# Runs one bench binary in a fresh working directory and byte-compares the
# CSV it writes under bench_results/ with the committed copy:
#
#   cmake -DBENCH=<binary> -DCSV=<name>.csv -DWORKDIR=<dir> \
#         -DEXPECTED=<committed csv> -P bench/pin_csv.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${WORKDIR}/bench_results/${CSV}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${WORKDIR}/bench_results/${CSV} differs from ${EXPECTED}")
endif()
