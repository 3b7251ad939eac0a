# Golden-output test for the herd CLI: runs a fixed set of deterministic
# invocations and compares each one's stdout and exit code byte for byte
# with tests/golden/cli/<name>.txt.  stderr is not compared, and --stats
# (which prints wall time) is left out.
#
#   cmake -DHERD=<herd binary> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<work directory> -P tests/cli_golden.cmake
#
# The sample programs are copied into WORK_DIR and every invocation runs
# there with relative paths, so no absolute path lands in a golden file.
# Set HERD_UPDATE_GOLDEN=1 in the environment to rewrite the golden files
# after an intentional output change.
cmake_minimum_required(VERSION 3.16)

foreach(Var HERD SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "cli_golden.cmake: -D${Var}=... is required")
  endif()
endforeach()

set(GoldenDir "${SOURCE_DIR}/tests/golden/cli")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/examples")
file(COPY "${SOURCE_DIR}/examples/programs" DESTINATION "${WORK_DIR}/examples")
set(Failures "")

# golden(<name> <herd arguments>...): one invocation, one golden file.  The
# file holds the command line, then stdout, then the exit code.
function(golden Name)
  execute_process(COMMAND "${HERD}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE Out
                  RESULT_VARIABLE Code
                  ERROR_QUIET)
  string(JOIN " " Args ${ARGN})
  set(Actual "$ herd ${Args}\n${Out}[exit ${Code}]\n")
  set(File "${GoldenDir}/${Name}.txt")
  if("$ENV{HERD_UPDATE_GOLDEN}" STREQUAL "1")
    file(WRITE "${File}" "${Actual}")
    return()
  endif()
  set(Expected "")
  if(EXISTS "${File}")
    file(READ "${File}" Expected)
  endif()
  string(COMPARE EQUAL "${Actual}" "${Expected}" Same)
  if(NOT Same)
    file(WRITE "${WORK_DIR}/${Name}.actual" "${Actual}")
    message(SEND_ERROR "${Name}: output differs from ${File}; "
                       "got ${WORK_DIR}/${Name}.actual")
    set(Failures "${Failures} ${Name}" PARENT_SCOPE)
  endif()
endfunction()

set(Fig2 examples/programs/figure2.mj)
set(Phil examples/programs/dining_philosophers.mj)

# Live runs.  The two --record runs also write the traces replayed below.
golden(live-record ${Fig2} --record=figure2.trace)
golden(live-sharded ${Fig2} --shards=3)
golden(live-epoch ${Fig2} --detector=epoch)
golden(live-json ${Fig2} --report=json)
golden(live-sarif-provenance ${Fig2} --report=sarif --provenance=on)
golden(live-provenance ${Fig2} --provenance=on)
golden(live-output examples/programs/histogram.mj --config=nopeeling)
golden(live-deadlocks ${Phil} --deadlocks --record=philosophers.trace)

# Replays of the recorded traces.
golden(replay ${Fig2} --replay=figure2.trace)
golden(replay-sharded ${Fig2} --replay=figure2.trace --shards=2)
golden(replay-epoch ${Fig2} --replay=figure2.trace --detector=epoch)
golden(replay-naive ${Fig2} --replay=figure2.trace --detector=naive)
golden(replay-json ${Fig2} --replay=figure2.trace --report=json)
golden(replay-sarif-provenance ${Fig2} --replay=figure2.trace --report=sarif
       --provenance=on)
golden(replay-provenance ${Fig2} --replay=figure2.trace --provenance=on)
golden(replay-deadlocks ${Phil} --replay=philosophers.trace --deadlocks)

if(Failures)
  message(FATAL_ERROR "herd CLI golden mismatches:${Failures}")
endif()
