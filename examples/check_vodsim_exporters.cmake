# Runs vodsim (-DVODSIM=<path>) twice with observability outputs written
# under -DOUT=<dir>: an adaptive catalog (trace, metrics, and a QoE file
# that holds its flight-recorder decisions, since no catalog client's wait
# or continuity can vary) and a batching run (QoE and SLO JSONL: batching's
# clients wait for the next batch boundary). It checks every file with
# scripts/validate_trace.py and renders the batching QoE/SLO and the
# adaptive decisions with scripts/qoe_report.py (-DSCRIPTS=<dir>,
# -DPYTHON3=<interpreter>), the same runs CI's exporter-validation step
# makes. Without a python3 it prints "python3 not found" and the ctest
# reports a skip.
#
#   cmake -DVODSIM=build/examples/vodsim -DPYTHON3=python3 \
#         -DSCRIPTS=scripts -DOUT=build/exporters \
#         -P examples/check_vodsim_exporters.cmake
if(NOT PYTHON3)
  message(STATUS "python3 not found")
  return()
endif()

file(MAKE_DIRECTORY "${OUT}")
set(trace "${OUT}/adaptive-trace.json")
set(metrics "${OUT}/adaptive-metrics.jsonl")
set(decisions "${OUT}/adaptive-qoe.jsonl")
set(qoe "${OUT}/batching-qoe.jsonl")
set(slo "${OUT}/batching-slo.jsonl")
foreach(run "--protocol;multi;--policy;adaptive;--videos;100;--threads;2;--hours;24;--trace-out;${trace};--metrics-out;${metrics};--qoe-out;${decisions}"
            "--protocol;batching;--hours;24;--qoe-out;${qoe};--slo-out;${slo}")
  execute_process(COMMAND "${VODSIM}" ${run}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "vodsim ${run} exited ${code}: ${err}")
  endif()
endforeach()

foreach(check "validate_trace.py;${trace};${metrics};${decisions};${qoe};${slo}"
              "qoe_report.py;${qoe};${slo}"
              "qoe_report.py;${decisions}")
  list(POP_FRONT check script)
  execute_process(COMMAND "${PYTHON3}" "${SCRIPTS}/${script}" ${check}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${script} exited ${code}: ${err}${out}")
  endif()
endforeach()
