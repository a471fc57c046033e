# Run one command line and check its exit code and combined output.
#
#   cmake -DCMD="prog|arg|..." -DEXIT=2 [-DEXPECT=regex] [-DFORBID=regex]
#         -P expect_exit.cmake
#
# CMD separates arguments with '|' so it survives add_test's list
# splitting. A crash never matches EXIT, unlike a bare WILL_FAIL test.
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit '${rc}', want ${EXIT}; output:\n${out}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
if(DEFINED FORBID AND out MATCHES "${FORBID}")
  message(FATAL_ERROR "output matches '${FORBID}':\n${out}")
endif()
message("${out}")
