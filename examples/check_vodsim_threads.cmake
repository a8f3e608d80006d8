# Runs vodsim's catalog engine (-DVODSIM=<path>) and requires its header to
# report the workers the engine runs, min(resolve_num_threads(T), shards),
# not the requested --threads: 100 videos are 2 shards of 64, so 8
# requested threads run 2 workers, and 1 runs 1.
#
#   cmake -DVODSIM=build/examples/vodsim -P examples/check_vodsim_threads.cmake
foreach(case "8;2" "1;1")
  list(GET case 0 requested)
  list(GET case 1 workers)
  execute_process(
    COMMAND "${VODSIM}" --protocol multi --videos 100 --threads ${requested}
            --hours 1
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "vodsim --threads ${requested}: exit ${code}: ${err}")
  endif()
  if(NOT out MATCHES "measured hours, ${workers} threads\n")
    message(FATAL_ERROR
            "vodsim --threads ${requested}: expected ${workers} threads in\n"
            "${out}")
  endif()
endforeach()
