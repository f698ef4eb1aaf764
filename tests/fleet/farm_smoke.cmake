# Farm supervisor smoke (DESIGN.md §13), end to end through the
# ulpmc-farm and ulpmc-fleet binaries. Registered as the `farm_smoke`
# ctest (label smoke):
#
#   cmake -DFARM=build/tools/ulpmc-farm -DFLEET=build/tools/ulpmc-fleet \
#         -DTIMELINE=bench/timelines/fleet_smoke.txt \
#         -DWORK=build/tests/farm_smoke [-DPYTHON=python3 -DSOURCE=.] \
#         -P tests/fleet/farm_smoke.cmake
#
# Three supervised workers under seeded chaos (3 SIGKILLs and 1 SIGSTOP
# stall, which walks the heartbeat-timeout -> SIGTERM -> grace -> SIGKILL
# escalation) must merge to the bytes of an unsharded ulpmc-fleet run, JSON
# and ULPF store alike. The supervision report must show that every
# scheduled disruption landed, that the stall was escalated, and that no
# journaled device was simulated twice. `ulpmc-fleet --merge` over the
# restarted workers' own stores, in a shuffled order, reproduces the same
# bytes, and with PYTHON set the independent ULPF oracle tools/read_fleet.py
# agrees with the merged JSON. Then the rejection ladder: partial failure
# and misuse exit non-zero and publish nothing. WORK keeps the artifacts
# afterwards (whole.*, farmed.*, farm_report.json, farm/shard_K.*).
cmake_minimum_required(VERSION 3.19) # string(JSON)

foreach(var FARM FLEET TIMELINE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "farm_smoke: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(SPEC --timeline "${TIMELINE}" --devices 96 --cohorts 3)
set(WORKERS --fleet-bin "${FLEET}" --workers 3 --worker-threads 2 --dir farm)
include("${CMAKE_CURRENT_LIST_DIR}/../tools/checks.cmake")

# Requires the command line ARGN, given --json rejected.json --store
# rejected.ulpf, to exit with `code` and a diagnostic matching `diag`
# (one line when `code` is 2, a usage error), writing neither artifact.
function(rejects code diag why)
  file(REMOVE "${WORK}/rejected.json" "${WORK}/rejected.ulpf")
  execute_process(COMMAND ${ARGN} --json rejected.json --store rejected.ulpf
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "${why}: expected exit ${code}, got ${rc}: ${err}")
  endif()
  if(NOT err MATCHES "${diag}")
    message(FATAL_ERROR "${why}: expected a diagnostic matching '${diag}', got:\n${err}")
  endif()
  if(code EQUAL 2 AND err MATCHES "\n")
    message(FATAL_ERROR "${why}: expected a one-line diagnostic, got:\n${err}")
  endif()
  foreach(f rejected.json rejected.ulpf)
    if(EXISTS "${WORK}/${f}")
      message(FATAL_ERROR "${why}: wrote ${f} despite the failure")
    endif()
  endforeach()
  string(REGEX MATCH "[^\n]*$" last "${err}")
  message(STATUS "rejected (${why}): exit ${rc}: ${last}")
endfunction()

# ---- chaos farm vs the unsharded run --------------------------------------
expect_exit(pass "unsharded fleet"
            "${FLEET}" ${SPEC} --threads 4 --json whole.json --store whole.ulpf)
expect_exit(pass "chaos farm" "${FARM}" ${SPEC} ${WORKERS} --chaos kills=3,stalls=1,seed=11
            --heartbeat 0.2 --timeout 2 --grace 0.5 --backoff 0.05/0.4
            --json farmed.json --store farmed.ulpf --report farm_report.json)
same(whole.json farmed.json)
same(whole.ulpf farmed.ulpf)

# ---- what the supervision report must show --------------------------------
file(READ "${WORK}/farm_report.json" report)
# Requires the report's integer at the JSON path ARGN to be `op` `want`.
function(report_is op want)
  string(JSON got GET "${report}" ${ARGN})
  if(NOT got ${op} want)
    list(JOIN ARGN "." path)
    message(FATAL_ERROR "farm_report.json: ${path} is ${got}, expected ${op} ${want}")
  endif()
endfunction()
string(JSON devices GET "${report}" farm devices)
report_is(EQUAL ${devices} supervision devices_simulated)
report_is(EQUAL 0 supervision duplicate_records)
report_is(EQUAL 0 supervision chaos_undelivered)
report_is(GREATER_EQUAL 1 supervision timeout_kills)
report_is(GREATER_EQUAL 1 supervision restarts)

# ---- the workers' own stores merge to the same bytes ----------------------
expect_exit(pass "shuffled re-merge" "${FLEET}" ${SPEC}
            --merge farm/shard_2.ulpf,farm/shard_0.ulpf,farm/shard_1.ulpf
            --json remerged.json --store remerged.ulpf)
same(farmed.json remerged.json)
same(farmed.ulpf remerged.ulpf)

if(DEFINED PYTHON AND DEFINED SOURCE)
  expect_exit(pass "merged store vs merged JSON"
              "${PYTHON}" "${SOURCE}/tools/read_fleet.py" farmed.ulpf --check farmed.json)
endif()

# ---- partial failure and misuse -------------------------------------------
# A worker that always dies restartably exhausts the retry budget.
find_program(FALSE_BIN false REQUIRED)
rejects(3 "exhausted; shard is dead" "exhausted retry budget"
        "${FARM}" ${SPEC} --fleet-bin "${FALSE_BIN}" --workers 2 --retries 2
        --backoff 0.02/0.1 --dir dead)
# Resuming the chaos farm's journals under another seed: every worker
# refuses for good (exit 2, no retry burn) and leaves its journal alone.
foreach(k 0 1 2)
  file(SHA256 "${WORK}/farm/shard_${k}.jnl" jnl_before_${k})
endforeach()
rejects(3 "rejected the spec" "journals of another seed" "${FARM}" ${SPEC} --seed 99 ${WORKERS})
foreach(k 0 1 2)
  file(SHA256 "${WORK}/farm/shard_${k}.jnl" after)
  if(NOT after STREQUAL jnl_before_${k})
    message(FATAL_ERROR "a refused resume rewrote farm/shard_${k}.jnl")
  endif()
endforeach()
# Usage errors exit 2 before any worker spawns.
rejects(2 "--chaos" "stalls without kills" "${FARM}" ${SPEC} ${WORKERS} --chaos stalls=2)
rejects(2 "--chaos" "kills past 2^32" "${FARM}" ${SPEC} ${WORKERS} --chaos kills=4294967297)
rejects(2 "--backoff" "backoff base above max" "${FARM}" ${SPEC} ${WORKERS} --backoff 2/1)
rejects(2 "--workers" "zero workers" "${FARM}" ${SPEC} --fleet-bin "${FLEET}" --workers 0)
rejects(2 "--worker-threads" "negative worker threads"
        "${FARM}" ${SPEC} --fleet-bin "${FLEET}" --worker-threads -1)
rejects(2 "no-such-timeline" "missing timeline"
        "${FARM}" --timeline no-such-timeline.txt ${WORKERS})
# An incomplete worker store set does not merge.
rejects(2 "incomplete shard set" "incomplete --merge"
        "${FLEET}" ${SPEC} --merge farm/shard_0.ulpf,farm/shard_1.ulpf)
# The farm-only worker chaos list: malformed, or with nothing to count.
rejects(2 "--chaos-at" "chaos trigger of zero"
        "${FLEET}" ${SPEC} --resume chaos.jnl --chaos-at kill@0)
rejects(2 "--chaos-at" "chaos triggers out of order"
        "${FLEET}" ${SPEC} --resume chaos.jnl --chaos-at kill@5,stop@5)
rejects(2 "--chaos-at requires" "chaos without a journal" "${FLEET}" ${SPEC} --chaos-at kill@3)
