# The hostile programs of tests/limits/ end to end through the herd CLI:
# under both dispatch modes, serial and with two shards, and under the
# epoch backend (serial only), each run must exit 1 with
# "herd: runtime error: ..." on stderr, never crash (exit 134 on an
# uncaught std::bad_alloc before the interpreter had limits).
#
#   cmake -DHERD=<herd binary> -DLIMITS_DIR=<tests/limits> -P cli_limits.cmake
cmake_minimum_required(VERSION 3.16)

file(GLOB Programs "${LIMITS_DIR}/*.mj")
set(Failures "")
foreach(Program ${Programs})
  foreach(Flags "" "--dispatch=switch" "--shards=2"
                "--dispatch=switch;--shards=2" "--detector=epoch")
    execute_process(COMMAND "${HERD}" "${Program}" ${Flags}
                    OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Code)
    if(NOT Code EQUAL 1 OR NOT Err MATCHES "^herd: runtime error: ")
      list(APPEND Failures "${Program} ${Flags}: exit ${Code}, ${Err}")
    endif()
  endforeach()
endforeach()
list(LENGTH Programs Count)
if(NOT Count EQUAL 5 OR Failures)
  message(FATAL_ERROR "${Count} programs; failures: ${Failures}")
endif()
