# One-JSON-writer check (DESIGN.md §5): support/json.{hpp,cpp} is the only
# C++ code that writes JSON syntax. Any other line under src/, tools/ or
# bench/ that spells an escaped JSON key, i.e. matches
#
#   \\"[A-Za-z_.]+\\":        (grep -E syntax)
#
# in a C++ string literal, is a hand-built JSON emitter.
#
#   cmake -DSOURCE_DIR=. -P scripts/check_json_writer.cmake
#
# Exits non-zero and names every offending line. Registered as the
# `json_single_writer` ctest.
if(NOT SOURCE_DIR)
  message(FATAL_ERROR
          "usage: cmake -DSOURCE_DIR=<repo root> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
set(sources "")
foreach(dir src tools bench)
  if(NOT IS_DIRECTORY "${SOURCE_DIR}/${dir}")
    message(FATAL_ERROR "json_single_writer: ${SOURCE_DIR}/${dir} is not a directory")
  endif()
  file(GLOB_RECURSE found "${SOURCE_DIR}/${dir}/*.hpp" "${SOURCE_DIR}/${dir}/*.cpp")
  list(APPEND sources ${found})
endforeach()
list(FILTER sources EXCLUDE REGEX "/support/json\\.(hpp|cpp)$")
# Lines are split by hand: CMake's list syntax would otherwise merge or
# split source lines at the `;`, `[`, `]` and `\` they contain, so those
# four characters are replaced by placeholders first.
set(violations "")
set(count 0)
foreach(f ${sources})
  file(READ "${f}" text)
  string(REPLACE "\\" "<bs>" text "${text}")
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(lineno 0)
  foreach(line IN LISTS lines)
    math(EXPR lineno "${lineno} + 1")
    if(line MATCHES "<bs>\"[A-Za-z_.]+<bs>\":")
      math(EXPR count "${count} + 1")
      string(STRIP "${line}" shown)
      string(REPLACE "<bs>" "\\" shown "${shown}")
      string(REPLACE "<sc>" ";" shown "${shown}")
      string(REPLACE "<lb>" "[" shown "${shown}")
      string(REPLACE "<rb>" "]" shown "${shown}")
      string(APPEND violations "\n  ${f}:${lineno}: ${shown}")
    endif()
  endforeach()
endforeach()
if(violations)
  message(FATAL_ERROR
          "json_single_writer: ${count} lines of hand-built JSON outside "
          "support/json.*; write them through asyncit::JsonWriter${violations}")
endif()
list(LENGTH sources n)
message(STATUS "json_single_writer: ${n} files, no hand-built JSON keys")
