# Smoke-runs one bench binary at drastically shrunk workload sizes,
# validates the BENCH_<name>.json it emits against the rdmasem-bench-v1
# schema and pins its bytes: the report's sha256 must equal the one
# committed in DIGESTS (bench/smoke_digests.txt). Registered as one ctest
# entry per bench (label `bench_smoke`) by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DOUT=<dir> -DCHECK=<check_bench_json.py>
#         -DDIGESTS=<smoke_digests.txt> -P scripts/bench_smoke.cmake
#
# The env knobs below override every RDMASEM_* workload size (README) so
# the whole battery stays in CI-smoke territory; the figures these runs
# produce are NOT paper-comparable. The tracing and profiling knobs are
# unset so an inherited value cannot change the report's bytes.

foreach(var BENCH OUT CHECK DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
            "usage: cmake -DBENCH=... -DOUT=... -DCHECK=... -DDIGESTS=... "
            "-P bench_smoke.cmake")
  endif()
endforeach()

get_filename_component(name "${BENCH}" NAME)
file(MAKE_DIRECTORY "${OUT}")
file(REMOVE "${OUT}/BENCH_${name}.json")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          --unset=RDMASEM_TRACE
          --unset=RDMASEM_PROF
          --unset=RDMASEM_TRACE_MAX_SPANS
          "RDMASEM_BENCH_OUT=${OUT}"
          RDMASEM_MICRO_OPS=300
          RDMASEM_HT_KEYS=512
          RDMASEM_HT_OPS=400
          RDMASEM_JOIN_TUPLES=800
          RDMASEM_JOIN_SCALE_SHIFT=9
          RDMASEM_SHUFFLE_ENTRIES=600
          RDMASEM_DLOG_RECORDS=200
          RDMASEM_TENANT_OPS=2000
          RDMASEM_SYNC_OPS=48
          RDMASEM_SYNC_KEYS=8
          RDMASEM_SELFBENCH_EVENTS=60000
          RDMASEM_SELFBENCH_ACTORS=512
          RDMASEM_SELFBENCH_TASKS=800
          RDMASEM_SELFBENCH_HOPS=8
          "${BENCH}"
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${name} exited with ${run_rc}")
endif()

if(NOT EXISTS "${OUT}/BENCH_${name}.json")
  message(FATAL_ERROR "${name} did not write ${OUT}/BENCH_${name}.json")
endif()

find_program(PYTHON3 NAMES python3 python REQUIRED)
execute_process(
  COMMAND "${PYTHON3}" "${CHECK}" "${OUT}/BENCH_${name}.json"
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_bench_json.py rejected BENCH_${name}.json")
endif()

# The selfbench's numbers are host wall-clock time: its bytes differ on
# every run, so only its schema is checked.
if(name STREQUAL "selfbench_engine")
  message(STATUS "${name}: digest not checked (wall-clock report)")
  return()
endif()

file(SHA256 "${OUT}/BENCH_${name}.json" got)
file(STRINGS "${DIGESTS}" pinned REGEX "  BENCH_${name}\\.json$")
if(NOT pinned)
  message(FATAL_ERROR
          "${DIGESTS} has no line for BENCH_${name}.json; new digest:\n"
          "  ${got}  BENCH_${name}.json")
endif()
string(REGEX REPLACE "  .*$" "" want "${pinned}")
if(NOT got STREQUAL want)
  message(FATAL_ERROR
          "BENCH_${name}.json bytes changed at smoke size:\n"
          "  old ${want}\n"
          "  new ${got}\n"
          "Simulated output moved. If that is intended, update "
          "${DIGESTS} on purpose and record old -> new in CHANGES.md.")
endif()
