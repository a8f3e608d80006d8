# Runs vodsim (-DVODSIM=<path>) four times with observability outputs
# written under -DOUT=<dir>: a single-video DHB run and a sharded catalog
# run on four threads (trace and metrics each), an adaptive catalog (trace,
# metrics, and a QoE file that holds its flight-recorder decisions, since
# no catalog client's wait or continuity can vary) and a batching run (QoE
# and SLO JSONL: batching's clients wait for the next batch boundary). It
# checks every file with scripts/validate_trace.py and renders the batching
# QoE/SLO and the adaptive decisions with scripts/qoe_report.py
# (-DSCRIPTS=<dir>, -DPYTHON3=<interpreter>), which also proves the report
# tool parses what the exporters write. Without a python3 it prints
# "python3 not found" and the ctest reports a skip.
#
# -DVOD_OBSERVE=OFF names a tree built without the recording hooks: there
# nothing records a QoE sample, an SLO window or a controller decision, so
# the traces and metrics are validated as usual and the three files that
# hold those records must exist and be empty.
#
#   cmake -DVODSIM=build/examples/vodsim -DPYTHON3=python3 \
#         -DSCRIPTS=scripts -DOUT=build/exporters -DVOD_OBSERVE=ON \
#         -P examples/check_vodsim_exporters.cmake
if(NOT PYTHON3)
  message(STATUS "python3 not found")
  return()
endif()

file(MAKE_DIRECTORY "${OUT}")
set(dhb_trace "${OUT}/dhb-trace.json")
set(dhb_metrics "${OUT}/dhb-metrics.jsonl")
set(multi_trace "${OUT}/multi-trace.json")
set(multi_metrics "${OUT}/multi-metrics.jsonl")
set(trace "${OUT}/adaptive-trace.json")
set(metrics "${OUT}/adaptive-metrics.jsonl")
set(decisions "${OUT}/adaptive-qoe.jsonl")
set(qoe "${OUT}/batching-qoe.jsonl")
set(slo "${OUT}/batching-slo.jsonl")
foreach(run "--protocol;dhb;--hours;2;--trace-out;${dhb_trace};--metrics-out;${dhb_metrics}"
            "--protocol;multi;--videos;40;--threads;4;--hours;1;--trace-out;${multi_trace};--metrics-out;${multi_metrics}"
            "--protocol;multi;--policy;adaptive;--videos;100;--threads;2;--hours;24;--trace-out;${trace};--metrics-out;${metrics};--qoe-out;${decisions}"
            "--protocol;batching;--hours;24;--qoe-out;${qoe};--slo-out;${slo}")
  execute_process(COMMAND "${VODSIM}" ${run}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "vodsim ${run} exited ${code}: ${err}")
  endif()
endforeach()

function(run_script script)
  execute_process(COMMAND "${PYTHON3}" "${SCRIPTS}/${script}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${script} exited ${code}: ${err}${out}")
  endif()
endfunction()

set(traces "${dhb_trace}" "${dhb_metrics}" "${multi_trace}" "${multi_metrics}"
           "${trace}" "${metrics}")
if(DEFINED VOD_OBSERVE AND NOT VOD_OBSERVE)
  run_script(validate_trace.py ${traces})
  foreach(file "${decisions}" "${qoe}" "${slo}")
    if(NOT EXISTS "${file}")
      message(FATAL_ERROR "vodsim wrote no ${file}")
    endif()
    file(SIZE "${file}" size)
    if(NOT size EQUAL 0)
      message(FATAL_ERROR "${file} holds ${size} bytes under VOD_OBSERVE=OFF")
    endif()
  endforeach()
else()
  run_script(validate_trace.py ${traces} "${decisions}" "${qoe}" "${slo}")
  run_script(qoe_report.py "${qoe}" "${slo}")
  run_script(qoe_report.py "${decisions}")
endif()
