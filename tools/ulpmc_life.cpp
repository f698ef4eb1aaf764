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
// Options follow the shared grammar of common/cli.hpp.
// Exit codes: 0 success, 2 bad usage (see common/cli.hpp, inconsistent
// options, unreadable or corrupt timeline/journal),
// 3 preempted by SIGTERM/SIGINT (journal flushed, artifacts unwritten).
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/journal.hpp"
#include "common/path.hpp"
#include "common/serial.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace {

/// Chunk journal frame kind ("CHNK" in ASCII): [u8 policy][engine state].
constexpr std::uint32_t kChunkFrame = 0x4B4E4843u;

constexpr const char* kUsage =
    "usage: ulpmc-life --timeline FILE [--seed N] [--engine E] [--days D]\n"
    "                  [--policy ladder|baseline|both] [--threads N] [--json FILE]\n"
    "                  [--journal FILE | --resume FILE]\n";

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

    ulpmc::cli::Parser cli(kUsage);
    cli.text("--timeline", timeline_path);
    cli.u64("--seed", seed);
    cli.count("--threads", threads, 0, 1024);
    cli.positive("--days", days, "expected a positive number");
    cli.bind("--engine", engine, ulpmc::cluster::parse_engine, ulpmc::cluster::kUnknownEngine);
    cli.option("--policy",
               [&](const std::string& p) {
                   ladder = p != "baseline";
                   baseline = p != "ladder";
                   return p == "ladder" || p == "baseline" || p == "both";
               },
               "expected ladder, baseline or both");
    cli.text("--json", json_path);
    cli.text("--journal", journal_path);
    cli.option("--resume",
               [&](const std::string& p) {
                   journal_path = p;
                   resume = true;
                   return true;
               },
               "");
    if (const auto rc = cli.parse(argc, argv)) return *rc;
    if (timeline_path.empty()) {
        std::cerr << "--timeline is required\n" << kUsage;
        return 2;
    }
    if (cli.given("--journal") && resume) {
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
        std::ostringstream out;
        ulpmc::scenario::write_json(out, ulpmc::basename_of(timeline_path), runs);
        try {
            ulpmc::publish_file(json_path, out.str());
        } catch (const ulpmc::AtomicFileError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }
    return 0;
}
