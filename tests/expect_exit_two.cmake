# Runs ${BENCH} with the ;-list ${ARGS} and requires exit status 2 plus
# stderr matching the regex ${EXPECT} (an "error:" line naming the flag).
execute_process(COMMAND ${BENCH} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected status 2 and stderr matching '${EXPECT}', "
                      "got status ${rc}: ${err}")
endif()
