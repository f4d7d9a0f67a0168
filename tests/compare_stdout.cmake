# Run a command and byte-compare its standard output with a golden file.
#
#   cmake -DCOMMAND=<exe> -DARGS="<space-separated args>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare_stdout.cmake
#
# On a mismatch the produced output is left in ACTUAL for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
  OUTPUT_VARIABLE produced RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${COMMAND} ${ARGS}' exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT produced STREQUAL expected)
  file(WRITE "${ACTUAL}" "${produced}")
  message(FATAL_ERROR
    "'${COMMAND} ${ARGS}' output differs from ${GOLDEN}; "
    "see: diff ${GOLDEN} ${ACTUAL}")
endif()
