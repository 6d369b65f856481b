# Runs the command given after this script's path and fails unless it exits
# with EXPECT_CODE, prints nothing on stdout (it stopped before any work)
# and its stderr matches the regex EXPECT_STDERR. CTest's
# PASS_REGULAR_EXPRESSION ignores the exit code and WILL_FAIL accepts a
# crash, so a bad-knob test needs both checks at once:
#
#   cmake -DEXPECT_CODE=2 "-DEXPECT_STDERR=regex" -P expect_exit.cmake cmd args...
# The command is every argument after the script path, which follows -P.
set(cmd)
set(first 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(first AND i GREATER_EQUAL first)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first "${i} + 2")
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 15)
message("exit: ${code}\nstdout:\n${out}\nstderr:\n${err}")
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "expected exit code ${EXPECT_CODE}, got '${code}'")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout: the command ran before failing")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'")
endif()
