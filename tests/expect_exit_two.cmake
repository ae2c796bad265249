# Runs ${BENCH} with a negative --switches and requires exit status 2 plus
# an "error:" line naming the knob on stderr.
execute_process(COMMAND ${BENCH} --switches -3
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "^error: switches: --switches '-3'")
  message(FATAL_ERROR "expected status 2 and 'error: switches: ...', got "
                      "status ${rc}: ${err}")
endif()
