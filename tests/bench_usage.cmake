# Bench harness number check (run via `cmake -P` from CTest). A malformed
# --reps, LAKEORG_SCALE, LAKEORG_MAX_PROPOSALS or
# LAKEORG_SCALABILITY_MULTIPLIERS must exit 2 with "bad value for ..."
# before any workload result is printed, never fall back to a default and
# run a different workload.
#
# Inputs: BENCH (a BenchMain binary) and CASES: `flags` checks the shared
# knobs (on ablation_init), `multipliers` checks scalability's
# LAKEORG_SCALABILITY_MULTIPLIERS list.

# expect_bad_value(label flag env args...): run BENCH under `env` (a
# NAME=VALUE list, may be empty) with `args`; require exit 2 and the
# diagnostic naming `flag`.
function(expect_bad_value label flag env)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env} ${BENCH} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad value for ${flag}: "
     OR out MATCHES "rep\\(s\\)")
    message(FATAL_ERROR "${label}: expected exit 2 and 'bad value for "
                        "${flag}', got ${rc}:\n${out}\n${err}")
  endif()
endfunction()

if(CASES STREQUAL "flags")
  expect_bad_value("--reps 3x" "--reps" "" --reps 3x)
  expect_bad_value("--reps 0" "--reps" "" --reps 0)
  expect_bad_value("--reps -1" "--reps" "" --reps -1)
  expect_bad_value("LAKEORG_SCALE=abc" "LAKEORG_SCALE" "LAKEORG_SCALE=abc")
  expect_bad_value("LAKEORG_SCALE=0" "LAKEORG_SCALE" "LAKEORG_SCALE=0")
  expect_bad_value("LAKEORG_SCALE=-1" "LAKEORG_SCALE" "LAKEORG_SCALE=-1")
  # A tiny scale so the run reaches the proposal cap within a second.
  expect_bad_value("LAKEORG_MAX_PROPOSALS=-1" "LAKEORG_MAX_PROPOSALS"
                   "LAKEORG_SCALE=0.02;LAKEORG_MAX_PROPOSALS=-1")
  expect_bad_value("LAKEORG_MAX_PROPOSALS=12x" "LAKEORG_MAX_PROPOSALS"
                   "LAKEORG_SCALE=0.02;LAKEORG_MAX_PROPOSALS=12x")
elseif(CASES STREQUAL "multipliers")
  foreach(value "abc" "10x" "1,,10" "1,0")
    expect_bad_value("LAKEORG_SCALABILITY_MULTIPLIERS=${value}"
                     "LAKEORG_SCALABILITY_MULTIPLIERS"
                     "LAKEORG_SCALABILITY_MULTIPLIERS=${value}")
  endforeach()
else()
  message(FATAL_ERROR "unknown CASES '${CASES}'")
endif()
