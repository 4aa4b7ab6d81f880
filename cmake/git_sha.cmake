# Writes OUTPUT, a header defining PSTLB_GIT_SHA as `git rev-parse HEAD` of
# SOURCE_DIR ("unknown" outside a git checkout or without git). Runs on every
# build; rewrites the header only when the commit changed, so an unchanged
# commit recompiles nothing.
#
#   cmake -DGIT_EXECUTABLE=<git> -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P git_sha.cmake
set(sha "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" rev-parse HEAD
    OUTPUT_VARIABLE out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0 AND NOT out STREQUAL "")
    set(sha "${out}")
  endif()
endif()
set(content "// Generated at build time by cmake/git_sha.cmake.\n#define PSTLB_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
