# Runs vodsim (-DVODSIM=<path>) with each malformed or out-of-range flag
# set below and requires exit code 2 with the usage message: never a
# silent run on a misread number, a library abort or an uncaught exception.
#
#   cmake -DVODSIM=build/examples/vodsim -P examples/check_vodsim_usage.cmake
set(cases
  "--rate 5x"
  "--segments 9junk"
  "--rate inf"
  "--hours 1e300"
  "--protocol multi --videos 2 --hours 1e12")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${VODSIM}" ${args}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT err MATCHES "^usage: ")
    message(FATAL_ERROR "vodsim ${case}: exit ${code}, stderr: ${err}")
  endif()
endforeach()
