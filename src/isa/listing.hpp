// Program listing generation: the assembler's human-facing output
// (addresses, encodings, disassembly, interleaved labels, symbol table),
// shared by ulpmc-asm, asm_explorer and the tests.
#pragma once

#include <string>

#include "isa/program.hpp"

namespace ulpmc::isa {

/// Renders a full listing of `p`: header, one line per instruction with
/// its labels, then the symbol table.
std::string format_listing(const Program& p);

} // namespace ulpmc::isa
