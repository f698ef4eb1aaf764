// Extension: adaptive vs fixed checkpoint intervals under a two-phase
// upset environment (DESIGN.md §9).
//
// A wearable's soft-error rate is anything but constant (altitude,
// shielding, solar activity). This experiment streams the multi-block ECG
// workload through ONE continuous cluster while seeded register upsets
// arrive at a LOW rate over the first 3/4 of the stream and a HIGH rate
// over the final quarter — the scenario a fixed checkpoint interval
// cannot win: tuned for the quiet phase it bleeds re-execution in the
// burst, tuned for the burst it pays checkpoint traffic all through the
// quiet lead. The adaptive controller (fault::UpsetRateEstimator feeding
// CheckpointRunner's online re-solve of
//   T* = sqrt(2 * cores * words/core * E_word / (lambda * E_cycle)))
// tracks the phase change and re-tunes the interval, so it must deliver
// the same zero-SDC coverage at LOWER total overhead (checkpoint-save +
// re-execution energy) than the best fixed interval in the ladder.
//
// Usage: ext_fault_adaptive [--runs N] [--seed S] [--json FILE]
//                           [--engine reference|fast|trace]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "app/streaming.hpp"
#include "common/numparse.hpp"
#include "common/table.hpp"
#include "exp/experiments.hpp"
#include "fault/campaign.hpp"
#include "sweep/sweep.hpp"

using namespace ulpmc;

namespace {

/// Strike rates [upsets/cycle]: quiet lead (first 3/4 of the stream, a
/// benign environment) vs burst tail (a high-flux episode).
constexpr double kLambdaLow = 1e-5;
constexpr double kLambdaHigh = 1e-3;
/// Fixed-interval ladder the adaptive controller competes against. The
/// per-phase optima T* = sqrt(2S/(lambda*E)) land at ~2263 (quiet) and
/// ~226 (burst), so the ladder brackets BOTH — "beats best fixed" is a
/// real contest against intervals tuned for either phase, not a strawman.
constexpr Cycle kFixedIntervals[] = {200, 600, 2000, 6000};
constexpr unsigned kBlocks = 6;

struct PolicyResult {
    std::string name;
    fault::CampaignResult r;
};

void write_json(std::ostream& os, const std::vector<PolicyResult>& results, unsigned cores) {
    os << "{\n";
    os << "  \"campaigns\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i].r;
        os << "    {\"workload\": \"adaptive-stream\", \"policy\": \"" << results[i].name
           << "\", \"arch\": \"" << cluster::arch_name(r.arch)
           << "\", \"ecc\": " << (r.cfg.ecc ? "true" : "false") << ", \"protection\": \""
           << core::reg_protection_name(r.cfg.reg_protection)
           << "\", \"checkpoint\": " << (r.cfg.checkpoint ? "true" : "false")
           << ", \"burst_len\": " << r.cfg.burst_len << ", \"reg_burst\": " << r.cfg.reg_burst
           << ", \"seed\": " << r.cfg.seed << ", \"injections\": " << r.runs.size()
           << ", \"clean_cycles\": " << r.clean_cycles << ", \"energy_per_op\": " << r.energy_per_op
           << ",\n     \"cores\": " << cores << ", \"strikes\": " << r.strikes
           << ", \"checkpoints\": " << r.checkpoints << ", \"reexec_cycles\": " << r.reexec_cycles
           << ", \"interval_updates\": " << r.interval_updates
           << ", \"overhead_energy\": " << r.overhead_energy << ",\n     \"outcomes\": {";
        for (unsigned o = 0; o < fault::kOutcomeCount; ++o) {
            os << (o ? ", " : "") << '"' << fault::outcome_name(static_cast<fault::Outcome>(o))
               << "\": " << r.counts[o];
        }
        os << "}, \"coverage\": " << r.coverage() << "}" << (i + 1 < results.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    fault::CampaignConfig cfg;
    cfg.injections = 12; // one "injection" = one full multi-block streaming run
    cfg.seed = 42;
    cfg.ecc = true;
    cfg.reg_protection = core::RegProtection::Parity;
    // Register upsets only: under parity every consumed strike is a
    // DETECTED trap, so the estimator's observed event rate is exactly the
    // rate that drives the rollback cost it is tuning against.
    cfg.kinds = fault::fault_bit(fault::FaultKind::RegUpset);
    cfg.checkpoint = true;
    cfg.lambda_low = kLambdaLow;
    cfg.lambda_high = kLambdaHigh;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::uint64_t v = 0;
        if (arg == "--runs" && i + 1 < argc) {
            if (!parse_count(argv[++i], 1, fault::kMaxInjections, cfg.injections)) {
                std::cerr << "--runs: expected a count in [1, " << fault::kMaxInjections
                          << "]\n";
                return 2;
            }
        } else if (arg == "--seed" && i + 1 < argc && parse_u64(argv[++i], v)) {
            cfg.seed = v;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--engine" && i + 1 < argc) {
            if (!cluster::parse_engine(argv[++i], cfg.engine)) {
                std::cerr << "unknown engine '" << argv[i]
                          << "' (expected reference, fast or trace)\n";
                return 2;
            }
        } else {
            std::cerr << "usage: ext_fault_adaptive [--runs N] [--seed S] [--json FILE]\n"
                         "                          [--engine reference|fast|trace]\n";
            return 2;
        }
    }

    exp::print_experiment_header("Extension: adaptive checkpoint intervals",
                                 "beyond the paper (self-tuning resilience, DESIGN.md §9)");
    std::cout << cfg.injections << " streaming runs per policy (" << kBlocks
              << " blocks, seed " << cfg.seed << "), register upsets at " << kLambdaLow
              << " /cycle over the first " << fault::kLambdaSplit * 100 << "% of the stream, then "
              << kLambdaHigh << " /cycle (burst).\n\n";

    const app::StreamingBenchmark stream({.use_barrier = true}, kBlocks);
    sweep::SweepRunner pool;
    std::vector<PolicyResult> results;

    Table t({"policy", "rolled-back", "trapped", "SDC", "coverage", "strikes", "ckpts", "re-exec",
             "retunes", "overhead"});
    for (const Cycle interval : kFixedIntervals) {
        fault::CampaignConfig c = cfg;
        c.adaptive_checkpoint = false;
        c.checkpoint_interval = interval;
        const auto r =
            fault::run_adaptive_campaign(stream, cluster::ArchKind::UlpmcBank, c, pool);
        t.add_row({"fixed-" + std::to_string(interval),
                   std::to_string(r.count(fault::Outcome::RolledBack)),
                   std::to_string(r.count(fault::Outcome::Trapped)),
                   std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1),
                   std::to_string(r.strikes), std::to_string(r.checkpoints),
                   std::to_string(r.reexec_cycles), "-", format_si(r.overhead_energy, "J")});
        results.push_back({"fixed-" + std::to_string(interval), r});
    }
    {
        fault::CampaignConfig c = cfg;
        c.adaptive_checkpoint = true;
        c.checkpoint_interval = 2000; // starting interval; the controller re-solves
        const auto r =
            fault::run_adaptive_campaign(stream, cluster::ArchKind::UlpmcBank, c, pool);
        t.add_row({"adaptive", std::to_string(r.count(fault::Outcome::RolledBack)),
                   std::to_string(r.count(fault::Outcome::Trapped)),
                   std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1),
                   std::to_string(r.strikes), std::to_string(r.checkpoints),
                   std::to_string(r.reexec_cycles), std::to_string(r.interval_updates),
                   format_si(r.overhead_energy, "J")});
        results.push_back({"adaptive", r});
    }
    t.print(std::cout);

    const auto& adaptive = results.back().r;
    double best_fixed = std::numeric_limits<double>::infinity();
    std::string best_name;
    for (const auto& p : results) {
        if (p.name == "adaptive") continue;
        if (p.r.overhead_energy < best_fixed) {
            best_fixed = p.r.overhead_energy;
            best_name = p.name;
        }
    }
    std::cout << "\nOverhead = checkpoint-save energy + re-executed-cycle energy (the two\n"
                 "terms the controller trades off). Best fixed interval: " << best_name << " at "
              << format_si(best_fixed, "J") << "; adaptive: "
              << format_si(adaptive.overhead_energy, "J") << " ("
              << format_percent(adaptive.overhead_energy / best_fixed - 1.0, 1)
              << " vs best fixed). The controller re-tuned " << adaptive.interval_updates
              << " times tracking the rate step.\n";

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        write_json(os, results, kNumCores);
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
