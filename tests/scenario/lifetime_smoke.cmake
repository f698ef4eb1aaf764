# Lifetime engine/thread byte-identity smoke (DESIGN.md §12), end to end
# through the ulpmc-life binary. Registered as the `lifetime_smoke` ctest
# (label smoke):
#
#   cmake -DLIFE=build/tools/ulpmc-life \
#         -DTIMELINE=bench/timelines/smoke.txt \
#         -DWORK=build/tests/lifetime_smoke -P tests/scenario/lifetime_smoke.cmake
#
# One (timeline, seed) pair fully determines a device lifetime, so the JSON
# may depend on neither the engine tier nor the worker count: trace on 1
# thread, batched on 4 and the reference oracle on 2 must give the same
# bytes, and the compare must catch a copy with one byte flipped. Every
# malformed invocation must exit 2 with a one-line diagnostic and write
# nothing. WORK keeps the artifacts afterwards.

foreach(var LIFE TIMELINE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lifetime_smoke: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
include("${CMAKE_CURRENT_LIST_DIR}/../tools/checks.cmake")

# Runs ulpmc-life on the smoke spec with `engine` and `threads`, writing
# smoke_<engine>.json; requires exit 0.
function(life engine threads)
  execute_process(COMMAND "${LIFE}" --timeline "${TIMELINE}" --seed 7 --policy both
                          --engine ${engine} --threads ${threads}
                          --json smoke_${engine}.json
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ulpmc-life --engine ${engine} --threads ${threads}: exit ${rc}: ${err}")
  endif()
endfunction()

life(trace 1)
life(batched 4)
life(reference 2)
same(smoke_trace.json smoke_batched.json smoke_reference.json)
same_catches_a_flipped_byte(flipped.json smoke_trace.json)

# Requires ulpmc-life with ARGN to exit 2 with a one-line diagnostic,
# writing neither JSON nor journal.
function(rejects why)
  set(outputs rejected.json rejected.jnl)
  foreach(f ${outputs})
    file(REMOVE "${WORK}/${f}")
  endforeach()
  execute_process(COMMAND "${LIFE}" ${ARGN} --json rejected.json
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
endfunction()

file(WRITE "${WORK}/corrupt_timeline.txt" "phase a 10 lambda=oops\n")
rejects("corrupt timeline" --timeline corrupt_timeline.txt)
rejects("missing timeline" --timeline no-such-timeline.txt)
rejects("--journal with --resume" --timeline "${TIMELINE}"
        --journal rejected.jnl --resume rejected.jnl)
rejects("negative thread count" --timeline "${TIMELINE}" --threads -1)
rejects("signed thread count" --timeline "${TIMELINE}" --threads +3)
rejects("space before the thread count" --timeline "${TIMELINE}" --threads " 7")
rejects("thread count over 1024" --timeline "${TIMELINE}" --threads 1025)
rejects("negative seed" --timeline "${TIMELINE}" --seed -1)
rejects("signed days" --timeline "${TIMELINE}" --days +1)
# A run must span at least one and fewer than 2^64 block periods.
file(WRITE "${WORK}/short_timeline.txt" "phase a 1\n")
file(WRITE "${WORK}/endless_timeline.txt" "phase a 1e300\n")
rejects("timeline shorter than one block" --timeline short_timeline.txt)
rejects("timeline of 2^64 blocks or more" --timeline endless_timeline.txt)
rejects("--days shorter than one block" --timeline "${TIMELINE}" --days 0.00001)
rejects("--days of 2^64 blocks or more" --timeline "${TIMELINE}" --days 1e300)
