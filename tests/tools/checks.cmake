# Helpers shared by the end-to-end ctest scripts (fleet_smoke, farm_smoke,
# lifetime_smoke, campaign_engines, tools_smoke, coverage_gate,
# lifetime_gate): include() after setting WORK, and PYTHON before calling
# perturb().
#
# A gate that cannot fail proves nothing, so the gate ladders run a tool on
# good inputs that must pass and on perturbed inputs that must fail, and a
# failure must be a non-zero exit with a diagnosis, never a Python
# traceback.

# Runs the command line ARGN in WORK; `expect` is "pass" or "fail".
function(expect_exit expect why)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(out MATCHES "Traceback" OR err MATCHES "Traceback")
    message(FATAL_ERROR "${why}: unhandled traceback:\n${out}${err}")
  endif()
  if(expect STREQUAL "pass" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${why}: expected a pass, got exit ${rc}:\n${out}${err}")
  endif()
  if(expect STREQUAL "fail")
    if(rc EQUAL 0)
      message(FATAL_ERROR "${why}: passed a perturbed input:\n${out}")
    endif()
    string(STRIP "${err}" err)
    if(err STREQUAL "")
      string(REGEX MATCH "FAIL[^\n]*" err "${out}")
    endif()
    message(STATUS "rejected (${why}): exit ${rc}: ${err}")
  endif()
endfunction()

# Runs the gate script GATE on (baseline, current); `expect` is "pass" or
# "fail".
function(gate expect why baseline current)
  expect_exit(${expect} "${why}" "${PYTHON}" "${GATE}" "${baseline}" "${current}")
endfunction()

# Writes WORK/NAME.json: the JSON file SOURCE after the Python statements
# `edit`, which see the parsed document as `d`.
function(perturb name source edit)
  execute_process(COMMAND "${PYTHON}" -c "import json, sys
d = json.load(open(sys.argv[1]))
${edit}
json.dump(d, open(sys.argv[2], 'w'), indent=1)" "${source}" "${WORK}/${name}.json"
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot write ${name}.json: ${err}")
  endif()
endfunction()

# Writes WORK/NAME: the first half of the file SOURCE.
function(truncate name source)
  file(READ "${source}" text)
  string(LENGTH "${text}" len)
  math(EXPR half "${len} / 2")
  string(SUBSTRING "${text}" 0 ${half} text)
  file(WRITE "${WORK}/${name}" "${text}")
endfunction()

# Sets `var` in the caller to the files among ARGN that differ from `ref`
# byte for byte.
function(differing var ref)
  set(diff)
  foreach(other ${ARGN})
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK}/${ref}" "${WORK}/${other}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(APPEND diff ${other})
    endif()
  endforeach()
  set(${var} "${diff}" PARENT_SCOPE)
endfunction()

# Requires every file after the first to be byte-identical to the first.
function(same ref)
  differing(diff ${ref} ${ARGN})
  if(diff)
    message(FATAL_ERROR "${diff} differs from ${ref}")
  endif()
endfunction()

# Copies the text file WORK/SOURCE to WORK/NAME with its middle byte
# changed, and requires same()'s compare to report the copy: a byte diff
# that cannot fail proves nothing.
function(same_catches_a_flipped_byte name source)
  file(READ "${WORK}/${source}" text)
  string(LENGTH "${text}" len)
  math(EXPR mid "${len} / 2")
  math(EXPR after "${mid} + 1")
  string(SUBSTRING "${text}" ${mid} 1 byte)
  if(byte STREQUAL "0")
    set(byte 1)
  else()
    set(byte 0)
  endif()
  string(SUBSTRING "${text}" 0 ${mid} head)
  string(SUBSTRING "${text}" ${after} -1 tail)
  file(WRITE "${WORK}/${name}" "${head}${byte}${tail}")
  differing(diff ${source} ${name})
  if(NOT diff STREQUAL name)
    message(FATAL_ERROR "the byte compare missed a flipped byte in ${name}")
  endif()
  message(STATUS "rejected (flipped byte): ${name} differs from ${source}")
endfunction()
