# Writes OUT as a C++ string literal holding `git describe --always --dirty`
# of SOURCE_DIR ("unknown" outside a git checkout or without git). The file
# is rewritten only when the value changes, so an unchanged tree triggers no
# recompile. Run before every build of khop_bench_harness:
#   cmake -DSOURCE_DIR=<repo> -DOUT=<file> -P git_describe.cmake
get_filename_component(parent "${SOURCE_DIR}" DIRECTORY)
set(ENV{GIT_CEILING_DIRECTORIES} "${parent}")
execute_process(COMMAND git -C "${SOURCE_DIR}" describe --always --dirty
                OUTPUT_VARIABLE desc
                RESULT_VARIABLE rc
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET)
if(NOT rc EQUAL 0 OR desc STREQUAL "")
  set(desc "unknown")
endif()
set(content "\"${desc}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
