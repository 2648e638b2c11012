# Runs one bench binary at smoke size, traced, with RDMASEM_BENCH_OUT set
# but empty, in a fresh directory, and fails if it writes any file there:
# an empty value disables the report and the trace (README). Registered as
# a ctest entry (label `bench_smoke`) by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DDIR=<scratch dir> -P scripts/bench_out_empty.cmake

foreach(var BENCH DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
            "usage: cmake -DBENCH=... -DDIR=... -P bench_out_empty.cmake")
  endif()
endforeach()

get_filename_component(name "${BENCH}" NAME)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          --unset=RDMASEM_PROF
          --unset=RDMASEM_TRACE_MAX_SPANS
          "RDMASEM_BENCH_OUT="
          RDMASEM_TRACE=1
          RDMASEM_MICRO_OPS=300
          "${BENCH}"
  WORKING_DIRECTORY "${DIR}"
  OUTPUT_QUIET
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${name} exited with ${run_rc}")
endif()

file(GLOB written "${DIR}/*")
if(written)
  message(FATAL_ERROR
          "${name} wrote files with RDMASEM_BENCH_OUT empty: ${written}")
endif()
message(STATUS "${name}: RDMASEM_BENCH_OUT empty, nothing written")
