# Failure ladder of the fault-coverage gate, end to end through
# tools/check_coverage.py. Registered as the `coverage_gate` ctest (label
# smoke):
#
#   cmake -DPYTHON=python3 -DSOURCE=. -DWORK=build/tests/coverage_gate \
#         -P tests/tools/coverage_gate.cmake
#
# The committed baseline checked against itself (and against a
# re-serialized copy of itself) passes. Every perturbed artifact below must
# fail the gate: a non-zero exit with a diagnosis, never a Python
# traceback. A gate that cannot fail proves nothing. WORK keeps the
# perturbed artifacts afterwards.

foreach(var PYTHON SOURCE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "coverage_gate: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(GATE "${SOURCE}/tools/check_coverage.py")
set(BASE "${SOURCE}/bench/BENCH_fault_coverage.json")

# Runs the gate on (baseline, current); `expect` is "pass" or "fail".
function(gate expect why baseline current)
  execute_process(COMMAND "${PYTHON}" "${GATE}" "${baseline}" "${current}"
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(out MATCHES "Traceback" OR err MATCHES "Traceback")
    message(FATAL_ERROR "${why}: unhandled traceback:\n${out}${err}")
  endif()
  if(expect STREQUAL "pass" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${why}: expected the gate to pass, got exit ${rc}:\n${out}${err}")
  endif()
  if(expect STREQUAL "fail")
    if(rc EQUAL 0)
      message(FATAL_ERROR "${why}: the gate passed a perturbed artifact:\n${out}")
    endif()
    string(STRIP "${err}" err)
    if(err STREQUAL "")
      string(REGEX MATCH "FAIL[^\n]*" err "${out}")
    endif()
    message(STATUS "rejected (${why}): exit ${rc}: ${err}")
  endif()
endfunction()

# Writes WORK/NAME.json: the baseline after the Python statements `edit`,
# which see its campaign list as `c`.
function(perturb name edit)
  execute_process(COMMAND "${PYTHON}" -c "import json, sys
d = json.load(open(sys.argv[1]))
c = d['campaigns']
${edit}
json.dump(d, open(sys.argv[2], 'w'), indent=1)" "${BASE}" "${WORK}/${name}.json"
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "coverage_gate: cannot write ${name}.json: ${err}")
  endif()
endfunction()

gate(pass "baseline against itself" "${BASE}" "${BASE}")
perturb(copy "pass")
gate(pass "re-serialized copy" "${BASE}" copy.json)

perturb(dropped "del c[3]")
gate(fail "dropped campaign" "${BASE}" dropped.json)
perturb(lowered "c[5]['coverage'] -= 1e-4")
gate(fail "coverage lowered by 1e-4" "${BASE}" lowered.json)
perturb(sdc "c[7]['outcomes']['SDC'] += 1")
gate(fail "one SDC added" "${BASE}" sdc.json)
perturb(duplicate "c.append(dict(c[0]))")
gate(fail "duplicate campaign identity" "${BASE}" duplicate.json)
gate(fail "duplicate campaign identity in the baseline" duplicate.json "${BASE}")

file(READ "${BASE}" text)
string(LENGTH "${text}" len)
math(EXPR half "${len} / 2")
string(SUBSTRING "${text}" 0 ${half} truncated)
file(WRITE "${WORK}/truncated.json" "${truncated}")
gate(fail "truncated file" "${BASE}" truncated.json)
gate(fail "truncated baseline" truncated.json "${BASE}")

file(WRITE "${WORK}/hollow.json" "{\"not\": \"a campaign artifact\"}")
gate(fail "file without campaigns" "${BASE}" hollow.json)
gate(fail "missing file" "${BASE}" no-such-file.json)
gate(fail "missing baseline" no-such-file.json "${BASE}")
