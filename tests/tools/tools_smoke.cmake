# Assembler and runner smoke, end to end through the ulpmc-asm and
# ulpmc-run binaries. Registered as the `tools_smoke` ctest (label smoke):
#
#   cmake -DASM=build/tools/ulpmc-asm -DRUN=build/tools/ulpmc-run \
#         -DWORK=build/tests/tools_smoke -P tests/tools/tools_smoke.cmake
#
# A small program written below is assembled to an image; the image's
# disassembly must equal the source's listing. The image then runs under
# the reference and trace engines on all three architectures, and the two
# engines must print the same bytes on each. Every malformed invocation of
# either tool (common/cli.hpp's grammar) must exit 2 with exactly one line
# on stderr and write nothing; --help prints the usage on stdout, exit 0.
# WORK keeps the artifacts afterwards.

foreach(var ASM RUN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tools_smoke: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
include("${CMAKE_CURRENT_LIST_DIR}/checks.cmake")

# Every core sums an 8-word table into `out` (36).
file(WRITE "${WORK}/sum.asm" [[
; sum a table into out on every core
        .entry main
main:   movi  r1, table
        movi  r2, 8
        movi  r3, 0
loop:   add   r3, r3, @r1+
        sub   r2, r2, #1
        bra   ne, loop
        movi  r4, out
        mov   @r4, r3
        hlt
        .data
table:  .word 1, 2, 3, 4, 5, 6, 7, 8
out:    .word 0
]])

# Runs the command line ARGN in WORK with stdout to WORK/OUT; requires
# exit 0.
function(run_to out)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_FILE "${WORK}/${out}" ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}: exit ${rc}: ${err}")
  endif()
endfunction()

# ---- assemble, disassemble, list -----------------------------------------
run_to(asm.txt "${ASM}" sum.asm -o sum.upmc)
run_to(disassembly.txt "${ASM}" -d sum.upmc)
run_to(listing.txt "${ASM}" sum.asm --list)
same(listing.txt disassembly.txt)

# ---- run on every architecture under both engines ------------------------
foreach(arch mc-ref ulpmc-int ulpmc-bank)
  foreach(engine reference trace)
    run_to(${arch}_${engine}.txt "${RUN}" sum.upmc --arch ${arch} --engine ${engine}
           --dump 0 10)
  endforeach()
  same(${arch}_reference.txt ${arch}_trace.txt)
  file(READ "${WORK}/${arch}_trace.txt" ran)
  if(NOT ran MATCHES "core 0 memory @0:\n  1 2 3 4 5 6 7 8 36 0\n")
    message(FATAL_ERROR "${arch}: the dump does not hold the table and its sum:\n${ran}")
  endif()
endforeach()

# ---- --help ----------------------------------------------------------------
foreach(tool "${ASM}" "${RUN}")
  execute_process(COMMAND "${tool}" --help RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: " OR NOT err STREQUAL "")
    message(FATAL_ERROR "${tool} --help: expected the usage on stdout and exit 0, got exit "
                        "${rc}:\n${out}${err}")
  endif()
endforeach()

# ---- rejection ladder ------------------------------------------------------
# Requires the command line ARGN to exit 2 with exactly one line on stderr,
# writing no rejected.upmc.
function(rejects why)
  file(REMOVE "${WORK}/rejected.upmc")
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${why}: expected exit 2, got ${rc}: ${err}")
  endif()
  if(NOT err MATCHES "^[^\n]+\n$")
    message(FATAL_ERROR "${why}: expected exactly one stderr line, got:\n${err}")
  endif()
  if(EXISTS "${WORK}/rejected.upmc")
    message(FATAL_ERROR "${why}: wrote rejected.upmc despite the error")
  endif()
  string(STRIP "${err}" err)
  message(STATUS "rejected (${why}): ${err}")
endfunction()

rejects("repeated option" "${RUN}" sum.upmc --cores 2 --cores 4)
rejects("value missing at the end" "${RUN}" sum.upmc --cores)
rejects("unknown option" "${RUN}" sum.upmc --no-such-option)
rejects("two program files" "${RUN}" sum.upmc sum.upmc)
rejects("--cores 9" "${RUN}" sum.upmc --cores 9)
rejects("--engine warp" "${RUN}" sum.upmc --engine warp)
rejects("two input files" "${ASM}" sum.asm sum.asm -o rejected.upmc)
rejects("repeated -o" "${ASM}" sum.asm -o other.upmc -o rejected.upmc)
rejects("-o missing its value" "${ASM}" sum.asm -o)
