# Runs the quickstart (-DQUICKSTART=<path>) and requires its Figure 4 and
# Figure 5 grids verbatim: the n = 6 video's first request, during slot 1,
# sends S1..S6 on stream 1 in slots 2..7; a second one, during slot 3,
# shares S3..S6 and sends its own S1 and S2 on stream 2 in slots 4 and 5.
#
#   cmake -DQUICKSTART=build/examples/quickstart \
#         -P examples/check_quickstart_figures.cmake
execute_process(COMMAND "${QUICKSTART}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "quickstart exited ${code}: ${err}")
endif()

set(slots "Slot      \t1\t2\t3\t4\t5\t6\t7\t8\t9\n")
set(stream1 "Stream 1  \t-\tS1\tS2\tS3\tS4\tS5\tS6\t-\t-\n")
set(stream2 "Stream 2  \t-\t-\t-\tS1\tS2\t-\t-\t-\t-\n")
foreach(figure
    "Figure 4 — schedule after the first request:\n${slots}${stream1}\n"
    "Figure 5 — combined schedules of both requests:\n${slots}${stream1}${stream2}\n")
  string(FIND "${out}" "${figure}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "quickstart did not print\n${figure}in\n${out}")
  endif()
endforeach()
