# Runs one figure bench in a fresh directory with no fault plan and compares
# the BENCH_<NAME>.json it writes, byte for byte, with the committed copy in
# this directory. The virtual columns are deterministic, so any difference
# means the cost model or the AD output changed. bench/CMakeLists.txt
# registers one ctest per bench:
#   cmake -DBENCH=<binary> -DNAME=<name> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P compare.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env --unset=PARAD_FAULTS "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} failed (${rc}):\n${err}")
endif()
set(golden "${GOLDEN_DIR}/BENCH_${NAME}.json")
set(fresh "${WORK_DIR}/BENCH_${NAME}.json")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${fresh}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${golden}" "${fresh}")
  message(FATAL_ERROR
    "${fresh} differs from ${golden}. If the change to the virtual model is "
    "intended, copy the new file over the golden one and say so.")
endif()
