# Helpers shared by the end-to-end ctest scripts (fleet_smoke, farm_smoke,
# coverage_gate, lifetime_gate): include() after setting WORK, and PYTHON
# before calling perturb().
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

# Requires every file after the first to be byte-identical to the first.
function(same ref)
  foreach(other ${ARGN})
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK}/${ref}" "${WORK}/${other}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${other} differs from ${ref}")
    endif()
  endforeach()
endfunction()
