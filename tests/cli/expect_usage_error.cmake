# Runs TOOL with the space-separated ARGS, stdin fed from INPUT (a valid
# network), and fails unless the tool exits with status 2 (usage error).
# A valid network on stdin means an argument that slipped through parsing
# would run to completion and exit 0 instead. Tools that read no stdin
# ignore INPUT.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                INPUT_FILE "${INPUT}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected exit 2, got '${rc}'\n${err}")
endif()
