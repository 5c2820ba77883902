# Usage-drift guard: every verb main() dispatches (`cmd == "..."` in
# netdiag.cpp) must appear as a command entry in the no-args usage text,
# so adding a verb without documenting it fails the suite.
#
# Driven with -DNETDIAG=<binary> -DSRC=<apps source dir>.
if(NOT NETDIAG OR NOT SRC)
  message(FATAL_ERROR "usage_smoke: pass -DNETDIAG=... and -DSRC=...")
endif()

file(READ "${SRC}/netdiag.cpp" source)
string(REGEX MATCHALL "cmd == \"[a-z-]+\"" dispatches "${source}")
if(dispatches STREQUAL "")
  message(FATAL_ERROR "usage_smoke: no dispatched verbs found in netdiag.cpp")
endif()

execute_process(COMMAND "${NETDIAG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "usage_smoke: no-args netdiag must exit nonzero")
endif()
if(NOT err MATCHES "usage: netdiag")
  message(FATAL_ERROR "usage_smoke: no usage text on stderr")
endif()

set(verbs "")
foreach(dispatch IN LISTS dispatches)
  string(REGEX REPLACE "cmd == \"([a-z-]+)\"" "\\1" verb "${dispatch}")
  list(APPEND verbs "${verb}")
  # Each verb heads a usage line: two-space indent, the verb, whitespace,
  # then its one-line description.
  if(NOT err MATCHES "\n  ${verb} +[a-z]")
    message(FATAL_ERROR
            "usage_smoke: dispatched verb '${verb}' missing from usage()")
  endif()
endforeach()
list(LENGTH verbs n)
message(STATUS "usage_smoke: all ${n} dispatched verbs documented (${verbs})")
