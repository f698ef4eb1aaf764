// ulpmc-asm: TamaRISC assembler driver.
//
//   ulpmc-asm prog.asm -o prog.upmc      assemble to a binary image
//   ulpmc-asm -d prog.upmc               disassemble a binary image
//   ulpmc-asm prog.asm --list            assemble and print the listing
//
// The binary container format is documented in src/isa/binfmt.hpp. Options
// follow the shared grammar of common/cli.hpp.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "isa/assembler.hpp"
#include "isa/binfmt.hpp"
#include "isa/listing.hpp"

using namespace ulpmc;

namespace {

constexpr const char* kUsage = "usage: ulpmc-asm <prog.asm> [-o out.upmc] [--list]\n"
                                "       ulpmc-asm -d <prog.upmc>\n";

std::vector<std::uint8_t> read_file_bytes(const std::string& path, bool& ok) {
    std::ifstream in(path, std::ios::binary);
    ok = static_cast<bool>(in);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void print_listing(const isa::Program& p) { std::fputs(isa::format_listing(p).c_str(), stdout); }

} // namespace

int main(int argc, char** argv) {
    std::string input;
    std::string output;
    bool disassemble = false;
    bool list = false;
    cli::Parser cli(kUsage);
    cli.positional(input, "input file");
    cli.flag("-d", disassemble);
    cli.text("-o", output);
    cli.flag("--list", list);
    if (const auto rc = cli.parse(argc, argv)) return *rc;
    if (input.empty()) {
        std::cerr << kUsage;
        return 2;
    }

    if (disassemble) {
        bool ok = false;
        const auto bytes = read_file_bytes(input, ok);
        if (!ok) {
            std::cerr << "cannot open " << input << '\n';
            return 1;
        }
        std::string err;
        const auto prog = isa::load_program(bytes, err);
        if (!prog) {
            std::cerr << input << ": " << err << '\n';
            return 1;
        }
        print_listing(*prog);
        return 0;
    }

    std::ifstream in(input);
    if (!in) {
        std::cerr << "cannot open " << input << '\n';
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    isa::Program prog;
    try {
        prog = isa::assemble(ss.str());
    } catch (const isa::AssemblyError& e) {
        std::cerr << input << ":" << e.what() << '\n';
        return 1;
    }

    if (list || output.empty()) print_listing(prog);

    if (!output.empty()) {
        const auto bytes = isa::save_program(prog);
        std::ofstream out(output, std::ios::binary);
        if (!out) {
            std::cerr << "cannot write " << output << '\n';
            return 1;
        }
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        std::cout << "wrote " << output << " (" << bytes.size() << " bytes)\n";
    }
    return 0;
}
