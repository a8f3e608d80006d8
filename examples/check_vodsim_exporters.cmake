# Runs an adaptive catalog through vodsim (-DVODSIM=<path>) with all four
# observability outputs written under -DOUT=<dir>, then checks them with
# scripts/validate_trace.py and renders the QoE/SLO/decision JSONL with
# scripts/qoe_report.py (-DSCRIPTS=<dir>, -DPYTHON3=<interpreter>), the
# same run CI's exporter-validation step makes. Without a python3 it
# prints "python3 not found" and the ctest reports a skip.
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
set(qoe "${OUT}/adaptive-qoe.jsonl")
set(slo "${OUT}/adaptive-slo.jsonl")
execute_process(
  COMMAND "${VODSIM}" --protocol multi --policy adaptive --videos 100
          --threads 2 --hours 24 --trace-out "${trace}"
          --metrics-out "${metrics}" --qoe-out "${qoe}" --slo-out "${slo}"
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "vodsim exited ${code}: ${err}")
endif()

foreach(check "validate_trace.py;${trace};${metrics};${qoe};${slo}"
              "qoe_report.py;${qoe};${slo}")
  list(POP_FRONT check script)
  execute_process(COMMAND "${PYTHON3}" "${SCRIPTS}/${script}" ${check}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${script} exited ${code}: ${err}${out}")
  endif()
endforeach()
