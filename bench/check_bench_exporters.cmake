# Runs bench/admission (-DADMISSION=<path>) with all four observability
# flags, writing under -DOUT=<dir>: its 12 bounded-admission runs (3 rates
# x 4 channel budgets) record a per-slot streams counter each, one track
# per run, and pool their deferral waits into one QoE stream. It checks
# every file with scripts/validate_trace.py and renders the QoE and SLO
# files with scripts/qoe_report.py (-DSCRIPTS=<dir>,
# -DPYTHON3=<interpreter>). Without a python3 it prints "python3 not
# found" and the ctest reports a skip.
#
# -DVOD_OBSERVE=OFF names a tree built without the recording hooks: there
# nothing records a QoE sample or an SLO window, so the trace and metrics
# are validated as usual and the QoE and SLO files must exist and be
# empty.
#
#   cmake -DADMISSION=build/bench/admission -DPYTHON3=python3 \
#         -DSCRIPTS=scripts -DOUT=build/bench/exporters -DVOD_OBSERVE=ON \
#         -P bench/check_bench_exporters.cmake
if(NOT PYTHON3)
  message(STATUS "python3 not found")
  return()
endif()

file(MAKE_DIRECTORY "${OUT}")
set(trace "${OUT}/admission-trace.json")
set(metrics "${OUT}/admission-metrics.jsonl")
set(qoe "${OUT}/admission-qoe.jsonl")
set(slo "${OUT}/admission-slo.jsonl")
execute_process(COMMAND "${ADMISSION}" --trace-out "${trace}"
                        --metrics-out "${metrics}" --qoe-out "${qoe}"
                        --slo-out "${slo}"
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "admission exited ${code}: ${err}")
endif()

function(run_script script)
  execute_process(COMMAND "${PYTHON3}" "${SCRIPTS}/${script}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${script} exited ${code}: ${err}${out}")
  endif()
endfunction()

if(DEFINED VOD_OBSERVE AND NOT VOD_OBSERVE)
  run_script(validate_trace.py "${trace}" "${metrics}")
  foreach(file "${qoe}" "${slo}")
    if(NOT EXISTS "${file}")
      message(FATAL_ERROR "admission wrote no ${file}")
    endif()
    file(SIZE "${file}" size)
    if(NOT size EQUAL 0)
      message(FATAL_ERROR "${file} holds ${size} bytes under VOD_OBSERVE=OFF")
    endif()
  endforeach()
else()
  run_script(validate_trace.py "${trace}" "${metrics}" "${qoe}" "${slo}")
  run_script(qoe_report.py "${qoe}" "${slo}")
endif()
