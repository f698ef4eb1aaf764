// ulpmc-run: execute a TamaRISC program image on the cycle-accurate
// cluster and report what happened.
//
//   ulpmc-run prog.upmc [options]
//     --arch mc-ref|ulpmc-int|ulpmc-bank   (default ulpmc-bank)
//     --cores N                            (default 8)
//     --shared W --private W               DM layout in words
//                                          (default 64 / 1024)
//     --engine reference|fast|trace|batched  simulator tier (default trace;
//                                          results are identical, see
//                                          DESIGN.md §10-11)
//     --ecc                                SEC-DED on every memory bank
//     --regprot none|parity|tmr            register-file protection mode
//     --im-scrub                           idle-cycle IM scrub walker
//     --dm-scrub                           idle-cycle DM scrub walker
//     --xbar-selfcheck                     self-checking crossbar arbiters
//     --watchdog N                         stuck-core trap after N idle cycles
//     --trace N                            print the last N trace events
//     --dump ADDR LEN                      dump core 0's memory after run
//     --max-cycles N                       safety limit (default 10M)
//
// Assembly sources are also accepted directly (detected by extension).
// Every option may be given at most once — a repeat is rejected with a
// one-line error.
// Exit codes: 0 all cores halted, 1 load error, 2 bad usage (malformed,
// duplicate or inconsistent options), 3 a core trapped (name printed),
// 4 the max-cycles limit was hit.
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "cluster/cluster.hpp"
#include "common/numparse.hpp"
#include "common/table.hpp"
#include "isa/assembler.hpp"
#include "isa/binfmt.hpp"

using namespace ulpmc;

namespace {

int usage() {
    std::cerr << "usage: ulpmc-run <prog.upmc|prog.asm> [--arch A] [--cores N]\n"
                 "                 [--shared W] [--private W] [--engine E]\n"
                 "                 [--ecc]\n"
                 "                 [--regprot none|parity|tmr] [--im-scrub] [--dm-scrub]\n"
                 "                 [--xbar-selfcheck] [--watchdog N]\n"
                 "                 [--trace N] [--dump ADDR LEN] [--max-cycles N]\n";
    return 2;
}

/// Strict decimal parse with range check; exits with a clear message on
/// anything malformed (no silent wrap, no std::stoul aborts).
std::uint64_t parse_num(const std::string& arg, const std::string& value, std::uint64_t min,
                        std::uint64_t max) {
    std::uint64_t v = 0;
    if (!parse_u64(value, v)) {
        std::cerr << arg << ": '" << value << "' is not a number\n";
        std::exit(2);
    }
    if (v < min || v > max) {
        std::cerr << arg << ": " << v << " out of range [" << min << ", " << max << "]\n";
        std::exit(2);
    }
    return v;
}

} // namespace

int main(int argc, char** argv) {
    std::string input;
    std::string arch_name = "ulpmc-bank";
    unsigned cores = kNumCores;
    Addr shared_words = 64;
    Addr private_words = 1024;
    bool ecc = false;
    bool im_scrub = false;
    bool dm_scrub = false;
    bool xbar_self_check = false;
    core::RegProtection regprot = core::RegProtection::None;
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    Cycle watchdog = 0;
    std::size_t trace_n = 0;
    long dump_addr = -1;
    unsigned dump_len = 0;
    Cycle max_cycles = 10'000'000;

    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // Repeating an option is always a mistake (the second occurrence
        // would silently win) — reject it instead of guessing intent.
        if (!arg.empty() && arg[0] == '-' && !seen.insert(arg).second) {
            std::cerr << arg << ": duplicate option\n";
            return 2;
        }
        const auto next = [&](const char* what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs " << what << '\n';
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--arch") {
            arch_name = next("a name");
        } else if (arg == "--cores") {
            cores = static_cast<unsigned>(parse_num(arg, next("a count"), 1, kNumCores));
        } else if (arg == "--shared") {
            shared_words =
                static_cast<Addr>(parse_num(arg, next("words"), 0, kDmWordsTotal));
        } else if (arg == "--private") {
            private_words =
                static_cast<Addr>(parse_num(arg, next("words"), 1, kDmWordsTotal));
        } else if (arg == "--ecc") {
            ecc = true;
        } else if (arg == "--im-scrub") {
            im_scrub = true;
        } else if (arg == "--dm-scrub") {
            dm_scrub = true;
        } else if (arg == "--xbar-selfcheck") {
            xbar_self_check = true;
        } else if (arg == "--regprot") {
            const std::string name = next("none|parity|tmr");
            if (!core::parse_reg_protection(name.c_str(), regprot)) {
                std::cerr << "unknown protection mode '" << name
                          << "' (expected none, parity or tmr)\n";
                return 2;
            }
        } else if (arg == "--engine") {
            const std::string name = next("reference|fast|trace|batched");
            if (!cluster::parse_engine(name, engine)) {
                std::cerr << "unknown engine '" << name
                          << "' (expected reference, fast, trace or batched)\n";
                return 2;
            }
        } else if (arg == "--watchdog") {
            watchdog = parse_num(arg, next("a cycle count"), 1, 1'000'000'000);
        } else if (arg == "--trace") {
            trace_n = parse_num(arg, next("a count"), 0, 1'000'000);
        } else if (arg == "--dump") {
            dump_addr = static_cast<long>(parse_num(arg, next("an address"), 0, kDmWordsTotal));
            dump_len = static_cast<unsigned>(parse_num(arg, next("a length"), 1, kDmWordsTotal));
        } else if (arg == "--max-cycles") {
            max_cycles = parse_num(arg, next("a count"), 1, ~0ull);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            if (!input.empty()) {
                std::cerr << "more than one program file given ('" << input << "' and '" << arg
                          << "')\n";
                return 2;
            }
            input = arg;
        }
    }
    if (input.empty()) return usage();

    // --- load the program ----------------------------------------------------
    isa::Program prog;
    if (input.size() > 4 && input.substr(input.size() - 4) == ".asm") {
        std::ifstream in(input);
        if (!in) {
            std::cerr << "cannot open " << input << '\n';
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        try {
            prog = isa::assemble(ss.str());
        } catch (const isa::AssemblyError& e) {
            std::cerr << input << ":" << e.what() << '\n';
            return 1;
        }
    } else {
        std::ifstream in(input, std::ios::binary);
        if (!in) {
            std::cerr << "cannot open " << input << '\n';
            return 1;
        }
        const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                              std::istreambuf_iterator<char>()};
        std::string err;
        const auto loaded = isa::load_program(bytes, err);
        if (!loaded) {
            std::cerr << input << ": malformed image: " << err << '\n';
            return 1;
        }
        prog = *loaded;
    }
    if (prog.text.empty()) {
        std::cerr << input << ": malformed image: empty text section\n";
        return 1;
    }
    if (prog.text.size() > kImWordsPerBank) {
        std::cerr << input << ": text section (" << prog.text.size()
                  << " words) exceeds an IM bank (" << kImWordsPerBank << ")\n";
        return 1;
    }

    // --- configure the cluster ----------------------------------------------
    cluster::ArchKind kind = cluster::ArchKind::UlpmcBank;
    if (arch_name == "mc-ref") {
        kind = cluster::ArchKind::McRef;
    } else if (arch_name == "ulpmc-int") {
        kind = cluster::ArchKind::UlpmcInt;
    } else if (arch_name != "ulpmc-bank") {
        std::cerr << "unknown architecture '" << arch_name
                  << "' (expected mc-ref, ulpmc-int or ulpmc-bank)\n";
        return 2;
    }
    if (shared_words + static_cast<std::size_t>(private_words) * cores > kDmWordsTotal) {
        std::cerr << "DM layout does not fit: " << shared_words << " shared + " << private_words
                  << " private x " << cores << " cores > " << kDmWordsTotal << " words\n";
        return 2;
    }
    auto cfg = cluster::make_config(kind, {shared_words, private_words});
    cfg.cores = cores;
    cfg.barrier_enabled = true; // harmless if unused
    cfg.ecc_enabled = ecc;
    cfg.im_scrub = im_scrub;
    cfg.dm_scrub = dm_scrub;
    cfg.xbar_self_check = xbar_self_check;
    cfg.reg_protection = regprot;
    cfg.engine = engine;
    cfg.watchdog_cycles = watchdog;
    if (prog.data.size() > cfg.dm_layout.limit()) {
        std::cerr << input << ": data image (" << prog.data.size()
                  << " words) exceeds the DM layout (" << cfg.dm_layout.limit() << " words)\n";
        return 1;
    }
    if (dump_addr >= 0 &&
        static_cast<std::size_t>(dump_addr) + dump_len > cfg.dm_layout.limit()) {
        std::cerr << "--dump range [" << dump_addr << ", " << dump_addr + dump_len
                  << ") exceeds the DM layout (" << cfg.dm_layout.limit() << " words)\n";
        return 2;
    }

    cluster::Cluster cl(cfg, prog);
    cluster::RingTrace ring(trace_n ? trace_n : 1);
    if (trace_n) cl.set_trace(&ring);
    cl.run(max_cycles);

    // --- report --------------------------------------------------------------
    const auto& s = cl.stats();
    std::cout << "arch " << cluster::arch_name(kind) << ", " << cores << " cores: " << s.cycles
              << " cycles, " << s.total_ops() << " ops (" << format_fixed(s.ops_per_cycle(), 3)
              << " ops/cycle)\n"
              << "IM bank accesses " << format_count(s.im_bank_accesses) << " ("
              << format_count(s.ixbar.broadcast_riders) << " broadcast riders), DM accesses "
              << format_count(s.dm_bank_accesses()) << ", conflicts denied "
              << format_count(s.ixbar.denied + s.dxbar.denied) << '\n';

    cluster::print_run_summary(std::cout, s);

    int rc = 0;
    std::cout << "registers (r0..r3):\n";
    for (unsigned p = 0; p < cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        const auto& st = cl.core_state(pid);
        if (cl.core_trap(pid) != core::Trap::None) {
            rc = 3;
        } else if (!cl.core_halted(pid)) {
            rc = 4; // hit max-cycles
        }
        std::cout << "  core " << p << ": " << st.regs[0] << ' ' << st.regs[1] << ' '
                  << st.regs[2] << ' ' << st.regs[3] << '\n';
    }
    if (rc == 3) {
        for (unsigned p = 0; p < cores; ++p) {
            const auto pid = static_cast<CoreId>(p);
            if (cl.core_trap(pid) != core::Trap::None) {
                std::cerr << "core " << p << " trapped: " << core::trap_name(cl.core_trap(pid))
                          << '\n';
            }
        }
    } else if (rc == 4) {
        std::cerr << "max-cycles limit (" << max_cycles << ") hit with cores still running\n";
    }

    if (dump_addr >= 0) {
        std::cout << "\ncore 0 memory @" << dump_addr << ":\n ";
        for (unsigned i = 0; i < dump_len; ++i)
            std::cout << ' ' << cl.dm_peek(0, static_cast<Addr>(dump_addr + i));
        std::cout << '\n';
    }
    if (trace_n) {
        std::cout << "\nlast " << trace_n << " trace events (of " << ring.total() << "):\n";
        ring.print(std::cout);
    }
    return rc;
}
