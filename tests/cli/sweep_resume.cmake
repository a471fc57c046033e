# Run two sweeps against one fresh result store and check the second
# resumes from the first.
#
#   cmake -DSWEEP=path -DCONFIG=file -DSTORE=dir -DFIRST="k=v,v|k=v"
#         -DSECOND="..." -DHITS=n -DMISSES=n -P sweep_resume.cmake
#
# Every stdout row of the first run must reappear in the second, equal
# axes must give byte-identical stdout, and the second must report exactly
# HITS store hits and MISSES misses on stderr.
file(REMOVE_RECURSE "${STORE}")
foreach(pass FIRST SECOND)
  string(REPLACE "|" ";" axes "${${pass}}")
  execute_process(
    COMMAND "${SWEEP}" --config=${CONFIG} --result-store=${STORE} --threads=2 ${axes}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out_${pass} ERROR_VARIABLE err_${pass})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${pass} sweep exited ${rc}:\n${err_${pass}}")
  endif()
endforeach()
message("${out_SECOND}${err_SECOND}")
if(FIRST STREQUAL SECOND AND NOT out_FIRST STREQUAL out_SECOND)
  message(FATAL_ERROR "same axes, different stdout:\n${out_FIRST}---\n${out_SECOND}")
endif()
string(REPLACE "\n" ";" first_rows "${out_FIRST}")
foreach(row IN LISTS first_rows)
  string(FIND "${out_SECOND}" "${row}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "row missing from the second sweep: ${row}")
  endif()
endforeach()
if(NOT err_SECOND MATCHES "sweep: [0-9]+ cells, store hits=${HITS} misses=${MISSES},")
  message(FATAL_ERROR "second sweep did not report hits=${HITS} misses=${MISSES}")
endif()
