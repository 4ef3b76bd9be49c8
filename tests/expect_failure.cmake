# Runs a command that must fail: passes only when the command exits
# non-zero and its combined stdout/stderr matches a regular expression.
#
#   cmake -DCOMMAND_ARGS=<prog>|<arg>|... -DEXPECT=<regex>
#         -P expect_failure.cmake
#
# Arguments are separated by '|' so that one may contain spaces.
string(REPLACE "|" ";" args "${COMMAND_ARGS}")
execute_process(COMMAND ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "exit ${status}, but the output does not match '${EXPECT}':\n${out}${err}")
endif()
message(STATUS "exit ${status}: ${err}")
