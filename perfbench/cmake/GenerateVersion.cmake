# src/CMakeLists.txt runs ${CMAKE_SOURCE_DIR}/cmake/GenerateVersion.cmake,
# and CMAKE_SOURCE_DIR is perfbench/ when the benchmark is the top-level
# project. Forward to the repository's script; SOURCE_DIR (perfbench/)
# sits inside the same checkout, so git reports the same stamp.
include("${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenerateVersion.cmake")
