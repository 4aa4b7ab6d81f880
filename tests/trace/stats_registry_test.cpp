#include "trace/stats_registry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pstlb/detail/simd/isa.hpp"
#include "pstlb/pstlb.hpp"
#include "sched/arena.hpp"

namespace pstlb::stats {
namespace {

/// Every test starts and ends with a clean, disabled registry — the slots
/// are process-global, so leftovers would leak between tests.
class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

std::uint64_t calls_of(op o) {
  for (const op_snapshot& s : snapshot()) {
    if (s.o == o) { return s.calls; }
  }
  return 0;
}

TEST_F(StatsTest, DisabledRecordsNothing) {
  { scoped_call call(op::reduce); }
  { scoped_call call(op::sort); }
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(StatsTest, EnableMidScopeDoesNotRecord) {
  // A scoped_call constructed while disabled must stay inert even if stats
  // get switched on before it destructs (it never read the clock).
  {
    scoped_call call(op::reduce);
    set_enabled(true);
  }
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(StatsTest, EnabledCountsEveryOutermostCall) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) { scoped_call call(op::reduce); }
  { scoped_call call(op::sort); }
  const auto snaps = snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(calls_of(op::reduce), 3u);
  EXPECT_EQ(calls_of(op::sort), 1u);
  // Histogram totals match the call counters.
  for (const op_snapshot& s : snaps) {
    const std::uint64_t hist_sum =
        std::accumulate(std::begin(s.hist), std::end(s.hist), std::uint64_t{0});
    EXPECT_EQ(hist_sum, s.calls);
    EXPECT_GE(s.max_ns, 0u);
  }
}

TEST_F(StatsTest, NestedCallsRecordOnlyTheOutermostOp) {
  set_enabled(true);
  {
    scoped_call outer(op::sort);
    scoped_call inner(op::merge);  // sort's merge phase: not user-visible
    scoped_call deeper(op::copy);
  }
  EXPECT_EQ(calls_of(op::sort), 1u);
  EXPECT_EQ(calls_of(op::merge), 0u);
  EXPECT_EQ(calls_of(op::copy), 0u);
}

TEST_F(StatsTest, FrontEndCallsLandUnderTheirOpName) {
  set_enabled(true);
  std::vector<double> v(1 << 12, 1.0);
  const double sum = pstlb::reduce(exec::seq_policy{}, v.begin(), v.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(v.size()));
  pstlb::for_each(exec::seq_policy{}, v.begin(), v.end(),
                  [](double& x) { x += 1; });
  EXPECT_EQ(calls_of(op::reduce), 1u);
  EXPECT_EQ(calls_of(op::for_each), 1u);
}

TEST_F(StatsTest, QuantilesAreBucketLowerBounds) {
  op_snapshot s;
  s.o = op::reduce;
  s.calls = 100;
  s.hist[4] = 100;  // every call in [16, 32) ns
  EXPECT_DOUBLE_EQ(metrics::quantile(s.hist, 0.50), 16.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(s.hist, 0.95), 16.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(s.hist, 0.99), 16.0);

  op_snapshot split;
  split.o = op::sort;
  split.calls = 100;
  split.hist[3] = 90;   // [8, 16)
  split.hist[10] = 10;  // [1024, 2048)
  EXPECT_DOUBLE_EQ(metrics::quantile(split.hist, 0.50), 8.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(split.hist, 0.95), 1024.0);

  const op_snapshot empty;
  EXPECT_DOUBLE_EQ(metrics::quantile(empty.hist, 0.50), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_ns(), 0.0);
}

TEST_F(StatsTest, ResetClearsAllSlots) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  ASSERT_FALSE(snapshot().empty());
  reset();
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(StatsTest, JsonShape) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  std::ostringstream os;
  write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"envelope\":{", 0), 0u);
  EXPECT_NE(json.find("\"ops\":["), std::string::npos);
  EXPECT_NE(json.find("\"knobs\":{"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"reduce\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  for (const char* key : {"\"total_ns\":", "\"max_ns\":", "\"p50_ns\":",
                          "\"p95_ns\":", "\"p99_ns\":", "\"hist\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST_F(StatsTest, PrometheusExposition) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  std::ostringstream os;
  write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE pstlb_calls_total counter"), std::string::npos);
  EXPECT_NE(text.find("pstlb_calls_total{op=\"reduce\"} 1"), std::string::npos);
  EXPECT_NE(text.find("pstlb_latency_ns{op=\"reduce\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pstlb_latency_ns_count{op=\"reduce\"} 1"),
            std::string::npos);
}

std::string signal_dump_text() {
  int fds[2];
  if (::pipe(fds) != 0) { return {}; }
  signal_safe_dump(fds[1]);
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  return text;
}

TEST_F(StatsTest, SignalSafeDumpWritesOneLinePerLiveOp) {
  set_enabled(true);
  { scoped_call call(op::reduce); }
  { scoped_call call(op::sort); }
  const std::string text = signal_dump_text();
  EXPECT_NE(text.find("pstlb_stats op=reduce calls=1"), std::string::npos);
  EXPECT_NE(text.find("pstlb_stats op=sort calls=1"), std::string::npos);
}

TEST_F(StatsTest, DumpToEnvFileSelectsFormatByExtension) {
  set_enabled(true);
  { scoped_call call(op::reduce); }

  ::unsetenv("PSTLB_STATS_FILE");
  EXPECT_FALSE(dump_to_env_file());

  const std::string json_path = ::testing::TempDir() + "pstlb_stats_test.json";
  ::setenv("PSTLB_STATS_FILE", json_path.c_str(), 1);
  ASSERT_TRUE(dump_to_env_file());
  {
    std::ifstream in(json_path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"ops\""), std::string::npos);
  }

  const std::string prom_path = ::testing::TempDir() + "pstlb_stats_test.prom";
  ::setenv("PSTLB_STATS_FILE", prom_path.c_str(), 1);
  ASSERT_TRUE(dump_to_env_file());
  {
    std::ifstream in(prom_path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("# TYPE pstlb_calls_total"), std::string::npos);
  }
  ::unsetenv("PSTLB_STATS_FILE");
}

/// The integer after the first `key` that follows `anchor` in `text`
/// (nullopt when either is missing).
std::optional<std::uint64_t> number_after(const std::string& text,
                                          const std::string& anchor,
                                          const std::string& key) {
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) { return std::nullopt; }
  const std::size_t k = text.find(key, at + anchor.size());
  if (k == std::string::npos) { return std::nullopt; }
  return std::stoull(text.substr(k + key.size()));
}

// The three writers walk one family table: every family they emit reports
// the same counts, whatever the output format.
TEST_F(StatsTest, WritersReportTheSameCounts) {
  set_enabled(true);
  const simd::isa saved = simd::active();
  const simd::isa level = simd::force(simd::isa::sse2);
  std::vector<std::int32_t> v(4096, 1);
  EXPECT_EQ(pstlb::reduce(pstlb::execution::unseq, v.begin(), v.end()), 4096);
  simd::force(saved);

  sched::arena::config cfg;
  cfg.name = "consistency";
  cfg.cap = 4;
  sched::arena a(cfg);
  { const auto ticket = a.admit(2); }

  std::ostringstream json_os;
  write_json(json_os);
  std::ostringstream prom_os;
  write_prometheus(prom_os);
  const std::string json = json_os.str();
  const std::string prom = prom_os.str();
  const std::string dump = signal_dump_text();

  auto same = [&](const std::string& what, std::optional<std::uint64_t> j,
                  std::optional<std::uint64_t> p, std::optional<std::uint64_t> d) {
    if (!(j && p && d)) {
      ADD_FAILURE() << what << " missing\n" << json << "\n" << prom << "\n" << dump;
      return std::uint64_t{0};
    }
    EXPECT_EQ(*j, *p) << what;
    EXPECT_EQ(*j, *d) << what;
    return *j;
  };
  EXPECT_EQ(same("reduce calls",
                 number_after(json, "{\"op\":\"reduce\"", "\"calls\":"),
                 number_after(prom, "pstlb_calls_total{op=\"reduce\"}", " "),
                 number_after(dump, "pstlb_stats op=reduce", " calls=")),
            1u);
  EXPECT_EQ(same("arena admitted",
                 number_after(json, "{\"arena\":\"consistency\"", "\"admitted\":"),
                 number_after(prom, "pstlb_arena_admitted_total{arena=\"consistency\"}", " "),
                 number_after(dump, "pstlb_stats arena=consistency", " admitted=")),
            1u);
  const std::string isa(simd::name(level));
  const std::uint64_t leaves =
      same("simd leaves",
           number_after(json, "\"simd\":[", "\"leaves_" + isa + "\":"),
           number_after(prom, "pstlb_simd_leaves_total{isa=\"" + isa + "\"}", " "),
           number_after(dump, "pstlb_stats simd", " leaves_" + isa + "="));
  if (level != simd::isa::scalar) { EXPECT_GE(leaves, 1u); }
}

TEST_F(StatsTest, OpNamesCoverTheWholeEnum) {
  for (std::size_t i = 0; i < op_count; ++i) {
    const std::string_view name = op_name(static_cast<op>(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_NE(name, "unknown") << i;
  }
}

}  // namespace
}  // namespace pstlb::stats
