# Passes when the binary NETDIAG (netdiag or netdiag-agent), run with ARGS
# (one space-separated string), exits RC with stderr matching MATCH.
# Driven with -DNETDIAG -DARGS -DRC -DMATCH.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${NETDIAG}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL RC OR NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${NETDIAG} ${ARGS}: exit ${rc}, want ${RC} and "
                      "stderr matching '${MATCH}':\n${err}")
endif()
