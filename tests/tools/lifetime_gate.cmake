# Failure ladder of the device-lifetime gate, end to end through
# tools/check_lifetime.py. Registered as the `lifetime_gate` ctest (label
# smoke):
#
#   cmake -DPYTHON=python3 -DSOURCE=. -DWORK=build/tests/lifetime_gate \
#         -P tests/tools/lifetime_gate.cmake
#
# The committed baseline checked against itself (and against a
# re-serialized copy of itself) passes. Every perturbed artifact below must
# fail the gate without a Python traceback. WORK keeps the perturbed
# artifacts afterwards.

foreach(var PYTHON SOURCE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lifetime_gate: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(GATE "${SOURCE}/tools/check_lifetime.py")
set(BASE "${SOURCE}/bench/BENCH_lifetime.json")

include("${CMAKE_CURRENT_LIST_DIR}/checks.cmake")

# runs[0] is the ladder device, runs[1] the no-degradation baseline device.
gate(pass "baseline against itself" "${BASE}" "${BASE}")
perturb(copy "${BASE}" "pass")
gate(pass "re-serialized copy" "${BASE}" copy.json)

perturb(lowered "${BASE}" "d['runs'][0]['delivered_fraction'] -= 1e-4")
gate(fail "delivered fraction lowered by 1e-4" "${BASE}" lowered.json)
perturb(sdc "${BASE}" "d['runs'][1]['sdc_blocks'] += 1")
gate(fail "one SDC block added" "${BASE}" sdc.json)
perturb(brownout "${BASE}" "d['runs'][1]['first_brownout_s'] -= 2")
gate(fail "first brownout one block earlier" "${BASE}" brownout.json)
perturb(dropped "${BASE}" "del d['runs'][1]")
gate(fail "dropped run" "${BASE}" dropped.json)

truncate(truncated.json "${BASE}")
gate(fail "truncated file" "${BASE}" truncated.json)
gate(fail "truncated baseline" truncated.json "${BASE}")

file(WRITE "${WORK}/hollow.json" "{\"not\": \"a lifetime artifact\"}")
gate(fail "file without runs" "${BASE}" hollow.json)
gate(fail "missing file" "${BASE}" no-such-file.json)
gate(fail "missing baseline" no-such-file.json "${BASE}")
