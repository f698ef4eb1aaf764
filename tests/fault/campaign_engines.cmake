# Campaign engine byte-identity smoke (DESIGN.md §11), end to end through
# the ext_fault_campaign binary. Registered as the `campaign_engines` ctest
# (label smoke):
#
#   cmake -DCAMPAIGN=build/bench/ext_fault_campaign \
#         -DWORK=build/tests/campaign_engines -P tests/fault/campaign_engines.cmake
#
# The batched engine only changes how much of each injection is simulated,
# so the seeded campaign JSON under --engine batched must equal the trace
# JSON byte for byte once its batched-only batch_* block is stripped, and the
# compare must catch a copy with one byte flipped.
# WORK keeps the artifacts afterwards.

foreach(var CAMPAIGN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_engines: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
include("${CMAKE_CURRENT_LIST_DIR}/../tools/checks.cmake")

foreach(engine trace batched)
  execute_process(COMMAND "${CAMPAIGN}" --injections 16 --seed 42 --engine ${engine}
                          --json ${engine}.json
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ext_fault_campaign --engine ${engine}: exit ${rc}: ${err}")
  endif()
endforeach()

file(READ "${WORK}/batched.json" batched)
string(REGEX REPLACE
  ",\n     \"batch_lockstep_cycles\": [0-9]+, \"batch_lane_peels\": [0-9]+, \"batch_peel_reasons\": {[^}]*}"
  "" stripped "${batched}")
if(stripped STREQUAL batched)
  message(FATAL_ERROR "batched.json carries no batch_* block to strip")
endif()
file(WRITE "${WORK}/batched_stripped.json" "${stripped}")
same(trace.json batched_stripped.json)
same_catches_a_flipped_byte(flipped.json trace.json)
