# Stdout golden check, run as `cmake -DBENCH_DIR=<dir> -DGOLDEN_DIR=<dir> -P
# check_stdout.cmake`. Every file GOLDEN_DIR/<bench>.txt names a bench binary
# in BENCH_DIR; the script runs each one and fails unless its stdout equals
# the file byte for byte. A mismatching run's stdout is kept as
# <bench>.actual.txt in the working directory for `diff`.
file(GLOB goldens "${GOLDEN_DIR}/*.txt")
if(NOT goldens)
  message(FATAL_ERROR "no golden files in ${GOLDEN_DIR}")
endif()
set(failed "")
foreach(golden IN LISTS goldens)
  get_filename_component(bench "${golden}" NAME_WE)
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  OUTPUT_VARIABLE actual RESULT_VARIABLE status)
  file(READ "${golden}" expected)
  if(NOT status EQUAL 0)
    list(APPEND failed "${bench} (exit status ${status})")
  elseif(NOT actual STREQUAL expected)
    file(WRITE "${bench}.actual.txt" "${actual}")
    list(APPEND failed "${bench} (diff ${golden} ${bench}.actual.txt)")
  endif()
endforeach()
if(failed)
  list(JOIN failed "\n  " report)
  message(FATAL_ERROR "stdout differs from its golden:\n  ${report}")
endif()
