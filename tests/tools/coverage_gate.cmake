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

include("${CMAKE_CURRENT_LIST_DIR}/checks.cmake")

gate(pass "baseline against itself" "${BASE}" "${BASE}")
perturb(copy "${BASE}" "pass")
gate(pass "re-serialized copy" "${BASE}" copy.json)

perturb(dropped "${BASE}" "del d['campaigns'][3]")
gate(fail "dropped campaign" "${BASE}" dropped.json)
perturb(lowered "${BASE}" "d['campaigns'][5]['coverage'] -= 1e-4")
gate(fail "coverage lowered by 1e-4" "${BASE}" lowered.json)
perturb(sdc "${BASE}" "d['campaigns'][7]['outcomes']['SDC'] += 1")
gate(fail "one SDC added" "${BASE}" sdc.json)
perturb(duplicate "${BASE}" "c = d['campaigns']; c.append(dict(c[0]))")
gate(fail "duplicate campaign identity" "${BASE}" duplicate.json)
gate(fail "duplicate campaign identity in the baseline" duplicate.json "${BASE}")

truncate(truncated.json "${BASE}")
gate(fail "truncated file" "${BASE}" truncated.json)
gate(fail "truncated baseline" truncated.json "${BASE}")

file(WRITE "${WORK}/hollow.json" "{\"not\": \"a campaign artifact\"}")
gate(fail "file without campaigns" "${BASE}" hollow.json)
gate(fail "missing file" "${BASE}" no-such-file.json)
gate(fail "missing baseline" no-such-file.json "${BASE}")
