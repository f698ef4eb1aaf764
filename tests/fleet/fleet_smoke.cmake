# Fleet shard-merge smoke (DESIGN.md §13), end to end through the
# ulpmc-fleet binary. Registered as the `fleet_smoke` ctest (label smoke):
#
#   cmake -DFLEET=build/tools/ulpmc-fleet \
#         -DTIMELINE=bench/timelines/fleet_smoke.txt \
#         -DWORK=build/tests/fleet_smoke [-DPYTHON=python3 -DSOURCE=.] \
#         -P tests/fleet/fleet_smoke.cmake
#
# The fleet artifact is a pure function of (timeline, spec options), so
# every pair compared below must be byte-identical:
#   * --threads 1 vs --threads 4 vs --engine batched vs --engine reference
#     (JSON and store);
#   * `--merge` over shard stores 0/2 + 1/2 and 0/3 + 1/3 + 2/3, in more
#     than one input order, vs the unsharded JSON and ULPF store;
# and the compare must catch a copy with one byte flipped.
# Every malformed merge or invocation must exit 2 with a one-line
# diagnostic and write nothing. With PYTHON and SOURCE set, the independent
# ULPF oracle tools/read_fleet.py must agree with the JSON of the whole,
# shard and merged stores, and it and the fleet gate tools/check_fleet.py
# must fail on mangled artifacts without a traceback. WORK keeps the
# artifacts afterwards (whole.*, shard0.*, ...).

foreach(var FLEET TIMELINE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "fleet_smoke: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(SPEC --timeline "${TIMELINE}" --devices 64 --cohorts 2)
include("${CMAKE_CURRENT_LIST_DIR}/../tools/checks.cmake")

# Runs ulpmc-fleet with the spec options plus ARGN; requires exit 0.
function(fleet)
  execute_process(COMMAND "${FLEET}" ${SPEC} ${ARGN}
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ulpmc-fleet ${ARGN}: exit ${rc}: ${err}")
  endif()
endfunction()

# Requires ulpmc-fleet with the spec options plus ARGN to exit 2 with a
# one-line diagnostic, writing neither artifact nor journal. The
# diagnostic is left in `rejected_err`.
function(rejects why)
  set(outputs rejected.json rejected.ulpf rejected.jnl)
  foreach(f ${outputs})
    file(REMOVE "${WORK}/${f}")
  endforeach()
  execute_process(COMMAND "${FLEET}" ${SPEC} ${ARGN}
                          --json rejected.json --store rejected.ulpf
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${why}: expected exit 2, got ${rc}: ${err}")
  endif()
  if(err STREQUAL "" OR err MATCHES "\n")
    message(FATAL_ERROR "${why}: expected a one-line diagnostic, got:\n${err}")
  endif()
  foreach(f ${outputs})
    if(EXISTS "${WORK}/${f}")
      message(FATAL_ERROR "${why}: wrote ${f} despite the error")
    endif()
  endforeach()
  message(STATUS "rejected (${why}): ${err}")
  set(rejected_err "${err}" PARENT_SCOPE)
endfunction()

# ---- thread and engine invariance --------------------------------------
# The reference tier simulates every struck block from cycle 0, so it is
# the oracle for the clean-run memo the other tiers restore and rejoin.
fleet(--threads 1 --json whole.json --store whole.ulpf)
fleet(--threads 4 --json threads4.json --store threads4.ulpf)
fleet(--engine batched --threads 4 --json batched.json --store batched.ulpf)
fleet(--engine reference --threads 4 --json reference.json --store reference.ulpf)
same(whole.json threads4.json batched.json reference.json)
same(whole.ulpf threads4.ulpf batched.ulpf reference.ulpf)
same_catches_a_flipped_byte(flipped.json whole.json)
# The oracle pins the memo only if the fleet holds a struck device. An SDC
# block can only come from a strike; the aggregate's first sdc_blocks is
# the fleet-wide total.
file(READ "${WORK}/whole.json" whole_json)
string(REGEX MATCH "\"sdc_blocks\": ([0-9]+)" sdc_match "${whole_json}")
if(NOT sdc_match OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "whole.json holds no struck device: the reference run pins nothing")
endif()

# ---- shard runs merged back, in any order --------------------------------
foreach(k 0 1)
  fleet(--shard ${k}/2 --threads 2 --json shard${k}.json --store shard${k}.ulpf)
endforeach()
foreach(k 0 1 2)
  fleet(--shard ${k}/3 --threads 2 --store third${k}.ulpf)
endforeach()
fleet(--merge shard0.ulpf,shard1.ulpf --json merged.json --store merged.ulpf)
fleet(--merge shard1.ulpf,shard0.ulpf --json merged_rev.json --store merged_rev.ulpf)
fleet(--merge third0.ulpf,third1.ulpf,third2.ulpf --json merged3.json --store merged3.ulpf)
fleet(--merge third2.ulpf,third0.ulpf,third1.ulpf --json merged3_rot.json
      --store merged3_rot.ulpf)
same(whole.json merged.json merged_rev.json merged3.json merged3_rot.json)
same(whole.ulpf merged.ulpf merged_rev.ulpf merged3.ulpf merged3_rot.ulpf)

# ---- malformed merges -----------------------------------------------------
execute_process(COMMAND head -c 100 whole.ulpf OUTPUT_FILE trunc.ulpf
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot build the truncated store")
endif()
rejects("missing shard" --merge shard0.ulpf)
rejects("duplicate shard" --merge shard0.ulpf,shard0.ulpf)
rejects("mixed shard counts" --merge shard0.ulpf,third1.ulpf,third2.ulpf)
rejects("unsharded store as a shard" --merge shard0.ulpf,whole.ulpf)
rejects("truncated store" --merge shard0.ulpf,trunc.ulpf)
rejects("JSON fed as a store" --merge shard0.ulpf,shard1.json)
rejects("missing file" --merge shard0.ulpf,no-such-store.ulpf)
rejects("empty list entry" --merge shard0.ulpf,,shard1.ulpf)
rejects("seed mismatch" --seed 99 --merge shard0.ulpf,shard1.ulpf)
rejects("baseline mismatch" --baseline 0.9 --merge shard0.ulpf,shard1.ulpf)
rejects("days mismatch" --days 1 --merge shard0.ulpf,shard1.ulpf)
rejects("--merge with --shard" --shard 0/2 --merge shard0.ulpf,shard1.ulpf)
rejects("--merge with --journal" --journal rejected.jnl --merge shard0.ulpf,shard1.ulpf)
rejects("--merge with --resume" --resume rejected.jnl --merge shard0.ulpf,shard1.ulpf)

# ---- malformed invocations ------------------------------------------------
file(WRITE "${WORK}/corrupt_timeline.txt" "phase a 10 lambda=oops\n")
rejects("--journal with --resume" --journal rejected.jnl --resume rejected.jnl)
rejects("shard past the count" --shard 3/2)
rejects("negative thread count" --threads -1)
rejects("signed thread count" --threads +3)
rejects("space before the thread count" --threads " 7")
rejects("thread count over 1024" --threads 1025)
rejects("negative seed" --seed -1)
rejects("signed baseline" --baseline +0.5)
# The last few swap a piece of the spec itself.
set(SPEC --timeline corrupt_timeline.txt --devices 64 --cohorts 2)
rejects("corrupt timeline")
set(SPEC --timeline no-such-timeline.txt --devices 64 --cohorts 2)
rejects("missing timeline")
string(REGEX MATCHALL "no-such-timeline" named "${rejected_err}")
list(LENGTH named named)
if(NOT named EQUAL 1)
  message(FATAL_ERROR "missing timeline: the path should be named once, got: ${rejected_err}")
endif()
set(SPEC --timeline "${TIMELINE}" --devices -1 --cohorts 2)
rejects("negative device count")
# A run must span at least one and fewer than 2^64 block periods.
file(WRITE "${WORK}/short_timeline.txt" "phase a 1\n")
file(WRITE "${WORK}/endless_timeline.txt" "phase a 1e300\n")
set(SPEC --timeline short_timeline.txt --devices 2)
rejects("timeline shorter than one block")
set(SPEC --timeline endless_timeline.txt --devices 2)
rejects("timeline of 2^64 blocks or more")
set(SPEC --timeline "${TIMELINE}" --devices 2 --days 0.00001)
rejects("--days shorter than one block")
set(SPEC --timeline "${TIMELINE}" --devices 2 --days 1e300)
rejects("--days of 2^64 blocks or more")

# ---- the Python ULPF oracle and the fleet gate ------------------------------
# read_fleet.py re-validates a store offline (header binding, shard
# arithmetic, ascending gdi) and recomputes the integer slice totals from
# the raw records: they must equal the streaming aggregate in the JSON.
if(DEFINED PYTHON AND DEFINED SOURCE)
  set(READ "${PYTHON}" "${SOURCE}/tools/read_fleet.py")
  set(GATE "${SOURCE}/tools/check_fleet.py")
  set(BASE "${SOURCE}/bench/BENCH_fleet.json")
  expect_exit(pass "whole store vs its JSON" ${READ} whole.ulpf --check whole.json)
  expect_exit(pass "shard store vs its JSON" ${READ} shard0.ulpf --check shard0.json)
  expect_exit(pass "merged store vs the unsharded JSON" ${READ} merged.ulpf --check whole.json)
  gate(pass "fleet baseline against itself" "${BASE}" "${BASE}")
  # The gate compares the deterministic subtrees exactly and needs the
  # throughput section: a re-serialized copy passes, and one changed
  # digit, spec field or missing section fails.
  perturb(reserialized "${BASE}" "pass")
  perturb(last_digit "${BASE}"
          "d['aggregate']['delivered_fraction'] = round(d['aggregate']['delivered_fraction'] + 1e-6, 6)")
  perturb(other_seed "${BASE}" "d['fleet']['seed'] += 1")
  perturb(no_throughput "${BASE}" "del d['throughput']")
  gate(pass "re-serialized fleet baseline" "${BASE}" reserialized.json)
  gate(fail "aggregate number off in its last digit" "${BASE}" last_digit.json)
  gate(fail "fleet spec field changed" "${BASE}" other_seed.json)
  gate(fail "no throughput section" "${BASE}" no_throughput.json)

  file(WRITE "${WORK}/corrupt.json" "{\"fleet\": {")
  file(WRITE "${WORK}/hollow.json" "{\"not\": \"a fleet artifact\"}")
  gate(fail "truncated fleet baseline" corrupt.json "${BASE}")
  gate(fail "fleet artifact without sections" "${BASE}" hollow.json)
  gate(fail "missing fleet baseline" no-such-file.json "${BASE}")
  gate(fail "store fed to the fleet gate" "${BASE}" whole.ulpf)
  expect_exit(fail "truncated store" ${READ} trunc.ulpf)
  expect_exit(fail "JSON fed as a store" ${READ} whole.json)
  expect_exit(fail "missing store" ${READ} no-such-store.ulpf)
  expect_exit(fail "whole store vs a shard's JSON" ${READ} whole.ulpf --check shard0.json)
  expect_exit(fail "shard 0 store vs shard 1 JSON" ${READ} shard0.ulpf --check shard1.json)
  expect_exit(fail "store fed as the JSON" ${READ} whole.ulpf --check whole.ulpf)
endif()
