# Bench smoke tier: run one bench binary with --smoke --json, then require
# the emitted BENCH_<name>.json to pass schema validation and a self-
# comparison at the default regression threshold, and the committed
# baseline of that bench (if any) to name no series the report lacks.
#
# Expected -D arguments: BENCH (binary), BENCH_COMPARE (binary),
# NAME (bench name), WORK_DIR (scratch directory), BASELINE (the
# committed BENCH_<name>.json path; it need not exist).
cmake_minimum_required(VERSION 3.19)  # string(JSON), IN_LIST
file(MAKE_DIRECTORY ${WORK_DIR})
set(REPORT ${WORK_DIR}/BENCH_${NAME}.json)

execute_process(
  COMMAND ${BENCH} --smoke --json=${REPORT}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${NAME} --smoke failed (exit ${run_rc})")
endif()
if(NOT EXISTS ${REPORT})
  message(FATAL_ERROR "${NAME} --smoke --json did not write ${REPORT}")
endif()

execute_process(
  COMMAND ${BENCH_COMPARE} --check ${REPORT}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "${REPORT} failed schema validation")
endif()

# A report always matches itself: guards the comparison plumbing.
execute_process(
  COMMAND ${BENCH_COMPARE} ${REPORT} ${REPORT} --threshold 0.10
  RESULT_VARIABLE self_rc)
if(NOT self_rc EQUAL 0)
  message(FATAL_ERROR "${REPORT} does not compare clean against itself")
endif()

# Baseline guard. --smoke changes iteration counts, never series names, so
# a baseline series missing from the smoke report is one the bench no
# longer emits: bench_compare would skip it as unmatched and gate less
# than the baseline claims.
function(bench_series_names json_text out_var)
  string(JSON count LENGTH "${json_text}" results)
  set(names)
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON series GET "${json_text}" results ${i} name)
      list(APPEND names "${series}")
    endforeach()
  endif()
  set(${out_var} "${names}" PARENT_SCOPE)
endfunction()

if(EXISTS ${BASELINE})
  file(READ ${BASELINE} baseline_text)
  file(READ ${REPORT} report_text)
  bench_series_names("${baseline_text}" baseline_names)
  bench_series_names("${report_text}" report_names)
  set(missing)
  foreach(series IN LISTS baseline_names)
    if(NOT series IN_LIST report_names)
      list(APPEND missing "${series}")
    endif()
  endforeach()
  if(missing)
    list(JOIN missing ", " missing_text)
    message(FATAL_ERROR "${BASELINE} names series that ${NAME} --smoke "
            "does not emit: ${missing_text}; refresh the baseline with "
            "tools/bench_baseline.sh")
  endif()
endif()
