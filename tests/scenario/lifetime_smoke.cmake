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
# bytes. WORK keeps the artifacts afterwards; smoke_trace.json is the
# uninterrupted reference a kill-and-resume check diffs against.

foreach(var LIFE TIMELINE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lifetime_smoke: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

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
foreach(other batched reference)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/smoke_trace.json" "${WORK}/smoke_${other}.json"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke_${other}.json differs from smoke_trace.json")
  endif()
endforeach()
