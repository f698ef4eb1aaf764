// ulpmc-life: device lifetime scenario driver (DESIGN.md §12).
//
// Walks a scripted timeline (scenario/timeline.hpp) with the lifetime
// engine and reports what the device lived through: per-phase energy by
// subsystem, samples delivered/degraded/lost, SDC count and the battery
// trace. One timeline plus one seed fully determines the run — the JSON
// is byte-identical across simulator engine tiers and thread counts.
//
// Usage:
//   ulpmc-life --timeline FILE [options]
//     --timeline FILE   phase script (required)
//     --seed N          campaign seed (default 1)
//     --engine E        reference|fast|trace|batched (default trace)
//     --days D          simulate D days, cycling the script (default: one pass)
//     --policy P        ladder|baseline|both (default both)
//     --threads N       worker threads, 0 = hardware (default 0)
//     --json FILE       write the report JSON to FILE ('-' = stdout)
//     --journal FILE    append one durable frame per simulated chunk to FILE
//     --resume FILE     continue the run journaled in FILE, each policy from
//                       its last journaled chunk boundary
//
// --journal, --resume and graceful SIGTERM/SIGINT preemption (the
// in-flight chunk's frame lands, then exit 3 with no JSON) follow the
// durable-run protocol of DESIGN.md §9.6.
//
// Exit codes: 0 success, 2 bad usage (malformed, duplicate or
// inconsistent options, unreadable or corrupt timeline/journal),
// 3 preempted by SIGTERM/SIGINT (journal flushed, artifacts unwritten).
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/journal.hpp"
#include "common/numparse.hpp"
#include "common/serial.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace {

/// Chunk journal frame kind ("CHNK" in ASCII): [u8 policy][engine state].
constexpr std::uint32_t kChunkFrame = 0x4B4E4843u;

void usage(std::ostream& os) {
    os << "usage: ulpmc-life --timeline FILE [--seed N] [--engine E] [--days D]\n"
          "                  [--policy ladder|baseline|both] [--threads N] [--json FILE]\n"
          "                  [--journal FILE | --resume FILE]\n";
}

/// Everything a journaled chunk state depends on (`threads` deliberately
/// absent: results are thread-count-independent by construction).
std::vector<std::uint8_t> meta_payload(std::uint64_t seed, double days,
                                       ulpmc::cluster::SimEngine engine, bool ladder,
                                       bool baseline, std::uint32_t timeline_crc) {
    std::vector<std::uint8_t> m;
    ulpmc::put_raw(m, seed);
    ulpmc::put_f64(m, days);
    ulpmc::put_raw(m, static_cast<std::uint8_t>(engine));
    ulpmc::put_raw(m, static_cast<std::uint8_t>(ladder ? 1 : 0));
    ulpmc::put_raw(m, static_cast<std::uint8_t>(baseline ? 1 : 0));
    ulpmc::put_raw(m, timeline_crc);
    return m;
}

} // namespace

int main(int argc, char** argv) {
    using ulpmc::parse_count;
    using ulpmc::parse_double;
    using ulpmc::parse_u64;
    using ulpmc::scenario::Policy;

    std::string timeline_path;
    std::string json_path;
    std::string journal_path;
    bool resume = false;
    std::uint64_t seed = 1;
    unsigned threads = 0;
    double days = 0;
    ulpmc::cluster::SimEngine engine = ulpmc::cluster::SimEngine::Trace;
    bool ladder = true, baseline = true;

    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.empty() && arg[0] == '-' && !seen.insert(arg).second) {
            std::cerr << arg << ": duplicate option\n";
            return 2;
        }
        auto value = [&](const char* name) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << name << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--timeline") {
            timeline_path = value("--timeline");
        } else if (arg == "--seed") {
            if (!parse_u64(value("--seed"), seed)) {
                std::cerr << "--seed: not a number\n";
                return 2;
            }
        } else if (arg == "--threads") {
            if (!parse_count(value("--threads"), 0, 1024, threads)) {
                std::cerr << "--threads: expected a count in [0, 1024]\n";
                return 2;
            }
        } else if (arg == "--days") {
            if (!parse_double(value("--days"), days) || days <= 0) {
                std::cerr << "--days: expected a positive number\n";
                return 2;
            }
        } else if (arg == "--engine") {
            if (!ulpmc::cluster::parse_engine(value("--engine"), engine)) {
                std::cerr << "--engine: unknown engine (reference|fast|trace|batched)\n";
                return 2;
            }
        } else if (arg == "--policy") {
            const std::string p = value("--policy");
            if (p == "ladder") {
                baseline = false;
            } else if (p == "baseline") {
                ladder = false;
            } else if (p != "both") {
                std::cerr << "--policy: expected ladder, baseline or both\n";
                return 2;
            }
        } else if (arg == "--json") {
            json_path = value("--json");
        } else if (arg == "--journal") {
            journal_path = value("--journal");
        } else if (arg == "--resume") {
            journal_path = value("--resume");
            resume = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << arg << ": unknown option\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (timeline_path.empty()) {
        std::cerr << "--timeline is required\n";
        usage(std::cerr);
        return 2;
    }
    if (seen.count("--journal") && seen.count("--resume")) {
        std::cerr << "--journal and --resume are mutually exclusive "
                     "(--resume already journals to its file)\n";
        return 2;
    }

    ulpmc::scenario::Timeline tl;
    std::uint32_t tl_crc = 0;
    try {
        tl = ulpmc::scenario::load_lifetime_timeline(timeline_path, days, &tl_crc);
    } catch (const ulpmc::scenario::TimelineError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    // ---- durable progress journal (DESIGN.md §9.6) ---------------------
    // Resume restarts each policy from its LAST intact chunk frame.
    std::unique_ptr<ulpmc::JournalWriter> journal;
    std::vector<std::uint8_t> replay_state[2]; // indexed by Policy
    if (!journal_path.empty()) {
        auto replay = [&](std::size_t f, const ulpmc::JournalFrame& fr) {
            if (fr.kind != kChunkFrame) return false;
            if (fr.payload.size() < 2 || fr.payload[0] > 1)
                throw ulpmc::JournalError(journal_path + ": frame " + std::to_string(f) +
                                          ": malformed chunk payload; refusing to resume");
            replay_state[fr.payload[0]].assign(fr.payload.begin() + 1, fr.payload.end());
            return true;
        };
        try {
            journal = ulpmc::open_run_journal(
                          journal_path, resume,
                          meta_payload(seed, days, engine, ladder, baseline, tl_crc), replay,
                          std::cerr)
                          .writer;
        } catch (const ulpmc::JournalError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    ulpmc::install_preempt_handlers();
    ulpmc::sweep::SweepRunner pool(threads);
    std::vector<ulpmc::scenario::LifetimeReport> runs;
    for (const Policy policy : {Policy::Ladder, Policy::Baseline}) {
        if (policy == Policy::Ladder && !ladder) continue;
        if (policy == Policy::Baseline && !baseline) continue;
        ulpmc::scenario::LifetimeEngine eng(
            tl, {.engine = engine, .seed = seed, .policy = policy, .max_days = days});
        ulpmc::scenario::LifeResume hooks;
        const auto pol = static_cast<std::uint8_t>(policy);
        if (journal) hooks.state = replay_state[pol];
        // The chunk hook is always set: it is both the journaling point
        // and the graceful-preemption poll (after the in-flight chunk's
        // frame is durable, never before).
        hooks.on_chunk = [&journal, pol](const std::vector<std::uint8_t>& state) {
            if (journal) {
                std::vector<std::uint8_t> p;
                p.reserve(1 + state.size());
                p.push_back(pol);
                p.insert(p.end(), state.begin(), state.end());
                journal->append(kChunkFrame, p);
            }
            if (ulpmc::preempt_requested()) throw ulpmc::Preempted{};
        };
        try {
            runs.push_back(eng.run(pool, hooks));
        } catch (const ulpmc::Preempted&) {
            if (journal)
                std::cerr << "preempted at a journaled chunk boundary; "
                             "resume to continue\n";
            else
                std::cerr << "preempted (no journal: progress not retained)\n";
            return 3;
        }
        ulpmc::scenario::print_summary(std::cout, runs.back());
        std::cout << "\n";
    }

    if (!json_path.empty()) {
        // The timeline's basename identifies the script in the JSON.
        std::string name = timeline_path;
        if (const auto slash = name.find_last_of('/'); slash != std::string::npos)
            name = name.substr(slash + 1);
        if (json_path == "-") {
            ulpmc::scenario::write_json(std::cout, name, runs);
        } else {
            // Rendered in memory, published via fsync+rename: a killed run
            // never leaves a truncated artifact for a CI gate to misread.
            std::ostringstream out;
            ulpmc::scenario::write_json(out, name, runs);
            try {
                ulpmc::write_file_atomic(json_path, out.str());
            } catch (const ulpmc::AtomicFileError& e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        }
    }
    return 0;
}
