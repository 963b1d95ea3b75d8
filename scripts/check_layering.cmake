# Layer-order check (DESIGN.md §1): no file under LAYER_DIR may include a
# header under FORBIDDEN (an include-path prefix such as asyncit/net/).
#
#   cmake -DLAYER_DIR=src/asyncit/transport -DFORBIDDEN=asyncit/net/ \
#         -P scripts/check_layering.cmake
#
# Exits non-zero and names every offending line. Registered as the
# `layering` ctest.
if(NOT LAYER_DIR OR NOT FORBIDDEN)
  message(FATAL_ERROR
          "usage: cmake -DLAYER_DIR=<dir> -DFORBIDDEN=<prefix> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(NOT IS_DIRECTORY "${LAYER_DIR}")
  message(FATAL_ERROR "layering: ${LAYER_DIR} is not a directory")
endif()
file(GLOB_RECURSE sources "${LAYER_DIR}/*.hpp" "${LAYER_DIR}/*.cpp")
set(violations "")
foreach(f ${sources})
  file(STRINGS "${f}" hits REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]${FORBIDDEN}")
  foreach(h ${hits})
    string(APPEND violations "\n  ${f}: ${h}")
  endforeach()
endforeach()
if(violations)
  message(FATAL_ERROR "layering: ${LAYER_DIR} must not include ${FORBIDDEN}${violations}")
endif()
list(LENGTH sources n)
message(STATUS "layering: ${n} files under ${LAYER_DIR}, none include ${FORBIDDEN}")
