# Writes OUT, a header defining FINWORK_GIT_SHA for perf records: the short
# SHA of SOURCE_DIR's HEAD, with "-dirty" appended when tracked files differ
# from it, or "unknown" outside a git checkout.  Run at every build (not at
# configure time), so a rebuild after a commit records the new commit; OUT
# is rewritten only when its text changes, so an unchanged SHA recompiles
# nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUT=<header> -P git_sha.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
else()
  execute_process(
    COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(NOT changes STREQUAL "")
    string(APPEND sha "-dirty")
  endif()
endif()
set(text "#define FINWORK_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
