# difftest --threads usage check (run via `cmake -P` from CTest). The
# default walk, --repair and --durability are serial: given --threads
# they must exit 2 with a diagnostic and run no trial, and their summary
# line carries no threads= field. The modes with concurrency (--serving
# here) accept it and print it. A retired mode flag is a usage error, so
# a stale script fails loudly.
#
# Input: DIFFTEST (binary path).

foreach(mode default --repair --durability)
  set(args)
  if(NOT mode STREQUAL "default")
    set(args ${mode})
  endif()
  execute_process(
    COMMAND ${DIFFTEST} ${args} --threads 4 --trials 1
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--threads selects nothing"
     OR out MATCHES "trials ok")
    message(FATAL_ERROR "difftest ${mode} --threads 4: expected exit 2 "
                        "and a diagnostic, got ${rc}:\n${out}\n${err}")
  endif()
endforeach()

set(retired --recycle)
execute_process(
  COMMAND ${DIFFTEST} ${retired} --trials 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: difftest" OR out MATCHES "trials ok")
  message(FATAL_ERROR "difftest ${retired}: expected exit 2 and the usage "
                      "text, got ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${DIFFTEST} --repair --trials 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "1/1 trials ok" OR out MATCHES "threads=")
  message(FATAL_ERROR "difftest --repair: expected a passing trial and no "
                      "threads= field, got ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${DIFFTEST} --serving --threads 2 --trials 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "1/1 trials ok \\(0 failed\\), threads=2, ")
  message(FATAL_ERROR "difftest --serving --threads 2: expected a passing "
                      "trial with threads=2, got ${rc}:\n${out}\n${err}")
endif()
