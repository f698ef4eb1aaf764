// Extension: seeded fault-injection campaigns (DESIGN.md §9). Four
// experiments share one deterministic strike set per seed:
//
//   1. per-architecture SEU campaigns, SEC-DED off/on — the baseline
//      dependability/energy trade;
//   2. the protection-tier ladder under multi-bit bursts (adjacent-bit
//      memory MBUs + multi-register upsets) on ulpmc-bank: none -> ECC ->
//      ECC+parity -> ECC+TMR -> ECC+parity+checkpoint. Bursts defeat
//      SEC-DED by construction, so this is where the register-file
//      protection and the generalized checkpoint service earn their keep;
//   3. the resilient streaming monitor under SEUs (block rollback +
//      lead-drop, as in PR 2);
//   4. the streaming monitor under MBU bursts across recovery tiers —
//      the acceptance row: ECC + parity + generalized checkpointing
//      reports ZERO silent corruptions.
//
// Usage: ext_fault_campaign [--injections N] [--seed S] [--json FILE]
//                           [--engine reference|fast|trace|batched]
//
// --engine batched runs every campaign through the memoized campaign
// paths (DESIGN.md §11): outcome/energy tables stay byte-identical to
// trace, only wall-clock changes, and the JSON artifact gains
// per-campaign batch_lockstep_cycles / batch_lane_peels /
// batch_peel_reasons fields.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "app/benchmark.hpp"
#include "app/streaming.hpp"
#include "cluster/stats.hpp"
#include "common/numparse.hpp"
#include "common/table.hpp"
#include "exp/experiments.hpp"
#include "fault/campaign.hpp"
#include "sweep/sweep.hpp"

using namespace ulpmc;

namespace {

constexpr cluster::ArchKind kArchs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                        cluster::ArchKind::UlpmcBank};

/// One row of the protection ladder (applied on top of a base config).
struct Tier {
    const char* name;
    bool ecc;
    core::RegProtection prot;
    bool checkpoint;
    bool im_scrub = false;    ///< idle-cycle IM scrub walker
    bool self_check = false;  ///< self-checking crossbar arbiters
    /// Distinguishes campaigns that would otherwise share the identity key
    /// (tools/check_coverage.py) — legacy rows stay untagged so the
    /// committed baseline keeps matching.
    const char* policy = nullptr;
};

constexpr Tier kOneShotTiers[] = {
    {"none", false, core::RegProtection::None, false},
    {"ecc", true, core::RegProtection::None, false},
    {"ecc+scrub", true, core::RegProtection::None, false, true, false, "scrub"},
    {"ecc+parity", true, core::RegProtection::Parity, false},
    {"ecc+tmr", true, core::RegProtection::Tmr, false},
    {"ecc+parity+ckpt", true, core::RegProtection::Parity, true},
};

/// Arbiter sequential-state upsets (kArbiterFaultKinds): the self-checking
/// arbiter converts both failure modes into counted repairs.
constexpr Tier kArbiterTiers[] = {
    {"ecc", true, core::RegProtection::None, false, false, false, "arb"},
    {"ecc+selfcheck", true, core::RegProtection::None, false, false, true, "arb+selfcheck"},
};

constexpr Tier kStreamTiers[] = {
    {"ecc", true, core::RegProtection::None, false},
    {"ecc+parity", true, core::RegProtection::Parity, false},
    {"ecc+parity+ckpt", true, core::RegProtection::Parity, true},
    {"ecc+tmr+ckpt", true, core::RegProtection::Tmr, true},
};

/// Adjacent-bit burst length / registers per spatial upset used by the
/// MBU experiments (2 & 4). 3 adjacent flips have odd parity, so the
/// SEC-DED decoder mis-corrects them silently.
constexpr unsigned kBurstLen = 3;
constexpr unsigned kRegBurst = 2;

/// A campaign result tagged with the workload that produced it.
struct TaggedResult {
    const char* workload; ///< "oneshot" | "streaming"
    fault::CampaignResult r;
    const char* policy = nullptr; ///< extra identity tag (omitted when null)
};

void write_json(std::ostream& os, const std::vector<TaggedResult>& results) {
    os << "{\n";
    os << "  \"campaigns\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i].r;
        os << "    {\"workload\": \"" << results[i].workload << "\", ";
        if (results[i].policy) os << "\"policy\": \"" << results[i].policy << "\", ";
        os << "\"arch\": \"" << cluster::arch_name(r.arch)
           << "\", \"ecc\": " << (r.cfg.ecc ? "true" : "false") << ", \"protection\": \""
           << core::reg_protection_name(r.cfg.reg_protection)
           << "\", \"checkpoint\": " << (r.cfg.checkpoint ? "true" : "false")
           << ", \"burst_len\": " << r.cfg.burst_len << ", \"reg_burst\": " << r.cfg.reg_burst
           << ", \"seed\": " << r.cfg.seed << ", \"injections\": " << r.runs.size()
           << ", \"clean_cycles\": " << r.clean_cycles << ", \"energy_per_op\": " << r.energy_per_op
           << ",\n     \"outcomes\": {";
        for (unsigned o = 0; o < fault::kOutcomeCount; ++o) {
            os << (o ? ", " : "") << '"' << fault::outcome_name(static_cast<fault::Outcome>(o))
               << "\": " << r.counts[o];
        }
        os << "}, \"coverage\": " << r.coverage();
        // Batched-engine observability only: the trace/reference artifact
        // stays byte-for-byte what the committed baselines expect.
        if (r.cfg.engine == cluster::SimEngine::Batched) {
            os << ",\n     \"batch_lockstep_cycles\": " << r.batch_lockstep_cycles
               << ", \"batch_lane_peels\": " << r.batch_lane_peels
               << ", \"batch_peel_reasons\": {";
            for (unsigned p = 0; p < cluster::kPeelReasonCount; ++p) {
                os << (p ? ", " : "") << '"'
                   << cluster::peel_reason_name(static_cast<cluster::PeelReason>(p))
                   << "\": " << r.batch_peel_reasons[p];
            }
            os << "}";
        }
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    fault::CampaignConfig cfg;
    cfg.injections = 400;
    cfg.seed = 42;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::uint64_t v = 0;
        if (arg == "--injections" && i + 1 < argc) {
            if (!parse_count(argv[++i], 1, fault::kMaxInjections, cfg.injections)) {
                std::cerr << "--injections: expected a count in [1, " << fault::kMaxInjections
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
                          << "' (expected reference, fast, trace or batched)\n";
                return 2;
            }
        } else {
            std::cerr << "usage: ext_fault_campaign [--injections N] [--seed S] [--json FILE]\n"
                         "                          [--engine reference|fast|trace|batched]\n";
            return 2;
        }
    }

    exp::print_experiment_header("Extension: fault-injection campaigns",
                                 "beyond the paper (dependability axis, DESIGN.md §9)");
    std::cout << cfg.injections << " seeded strikes per campaign (seed " << cfg.seed << ").\n\n";

    const app::EcgBenchmark bench{};
    sweep::SweepRunner pool;
    std::vector<TaggedResult> results;

    // -- 1: per-architecture SEU campaigns, SEC-DED off/on ------------------
    Table t({"arch", "ECC", "masked", "latent", "corrected", "trapped", "hang", "SDC", "coverage",
             "energy/op", "ECC overhead"});
    for (const auto arch : kArchs) {
        double epo_off = 0;
        for (const bool ecc : {false, true}) {
            fault::CampaignConfig c = cfg;
            c.ecc = ecc;
            const auto r = fault::run_campaign(bench, arch, c, pool);
            if (!ecc) epo_off = r.energy_per_op;
            t.add_row({cluster::arch_name(arch), ecc ? "on" : "off",
                       std::to_string(r.count(fault::Outcome::Masked)),
                       std::to_string(r.count(fault::Outcome::Latent)),
                       std::to_string(r.count(fault::Outcome::Corrected)),
                       std::to_string(r.count(fault::Outcome::Trapped)),
                       std::to_string(r.count(fault::Outcome::Hang)),
                       std::to_string(r.count(fault::Outcome::Sdc)),
                       format_percent(r.coverage(), 1), format_si(r.energy_per_op, "J"),
                       ecc ? format_percent(r.energy_per_op / epo_off - 1.0, 1) : "-"});
            results.push_back({"oneshot", r});
        }
        if (arch != cluster::ArchKind::UlpmcBank) t.add_separator();
    }
    t.print(std::cout);
    std::cout << "\nCoverage = 1 - SDC/injections. Latent = a struck register was never\n"
                 "read: the output is clean but corrupted state is still live.\n\n";

    // -- 2: multi-bit bursts vs the protection ladder (ulpmc-bank) ----------
    std::cout << "-- Multi-bit bursts (" << kBurstLen << " adjacent bits, " << kRegBurst
              << "-register upsets) vs protection tiers, ulpmc-bank --\n";
    Table bt({"tier", "masked", "latent", "corrected", "rolled-back", "trapped", "hang", "SDC",
              "coverage", "energy/op"});
    for (const auto& tier : kOneShotTiers) {
        fault::CampaignConfig c = cfg;
        c.ecc = tier.ecc;
        c.reg_protection = tier.prot;
        c.checkpoint = tier.checkpoint;
        c.im_scrub = tier.im_scrub;
        c.xbar_self_check = tier.self_check;
        c.burst_len = kBurstLen;
        c.reg_burst = kRegBurst;
        const auto r = fault::run_campaign(bench, cluster::ArchKind::UlpmcBank, c, pool);
        bt.add_row({tier.name, std::to_string(r.count(fault::Outcome::Masked)),
                    std::to_string(r.count(fault::Outcome::Latent)),
                    std::to_string(r.count(fault::Outcome::Corrected)),
                    std::to_string(r.count(fault::Outcome::RolledBack)),
                    std::to_string(r.count(fault::Outcome::Trapped)),
                    std::to_string(r.count(fault::Outcome::Hang)),
                    std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1),
                    format_si(r.energy_per_op, "J")});
        results.push_back({"oneshot", r, tier.policy});
    }
    bt.print(std::cout);
    std::cout << "\nAn odd-length adjacent burst aliases to a valid SEC-DED syndrome, so\n"
                 "the decoder mis-corrects it silently: ECC alone loses coverage here.\n"
                 "Parity catches the register strikes it covers; the checkpoint tier\n"
                 "re-executes from the last snapshot on any unrecoverable trap.\n\n";

    // -- 3: resilient streaming monitor under SEUs --------------------------
    const unsigned stream_injections = std::max(1u, cfg.injections / 4);
    std::cout << "-- Resilient streaming monitor (" << stream_injections
              << " strikes, 4 blocks, ulpmc-bank) --\n";
    const app::StreamingBenchmark stream({.use_barrier = true}, 4);
    fault::CampaignConfig sc = cfg;
    sc.injections = stream_injections;
    Table st({"ECC", "masked", "latent", "corrected", "rolled-back", "lead-dropped", "SDC",
              "coverage"});
    for (const bool ecc : {false, true}) {
        fault::CampaignConfig c = sc;
        c.ecc = ecc;
        const auto r = fault::run_streaming_campaign(stream, cluster::ArchKind::UlpmcBank, c, pool);
        st.add_row({ecc ? "on" : "off", std::to_string(r.count(fault::Outcome::Masked)),
                    std::to_string(r.count(fault::Outcome::Latent)),
                    std::to_string(r.count(fault::Outcome::Corrected)),
                    std::to_string(r.count(fault::Outcome::RolledBack)),
                    std::to_string(r.count(fault::Outcome::LeadDropped)),
                    std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1)});
        results.push_back({"streaming", r});
    }
    st.print(std::cout);
    std::cout << "\nEvery block is a checkpoint: a corrupted lead rolls the block back;\n"
                 "a persistently-broken lead is dropped while the others keep streaming.\n\n";

    // -- 4: streaming monitor under MBU bursts, recovery tiers --------------
    std::cout << "-- Streaming monitor under bursts (" << stream_injections
              << " strikes, recovery tiers, ulpmc-bank) --\n";
    Table mt({"tier", "masked", "latent", "corrected", "rolled-back", "lead-dropped", "SDC",
              "coverage", "re-exec", "energy/op"});
    for (const auto& tier : kStreamTiers) {
        fault::CampaignConfig c = sc;
        c.ecc = tier.ecc;
        c.reg_protection = tier.prot;
        c.checkpoint = tier.checkpoint;
        c.burst_len = kBurstLen;
        c.reg_burst = kRegBurst;
        const auto r = fault::run_streaming_campaign(stream, cluster::ArchKind::UlpmcBank, c, pool);
        const double reexec =
            r.runs.empty() ? 0.0
                           : static_cast<double>(r.reexec_cycles) /
                                 (static_cast<double>(r.clean_cycles) *
                                  static_cast<double>(r.runs.size()));
        mt.add_row({tier.name, std::to_string(r.count(fault::Outcome::Masked)),
                    std::to_string(r.count(fault::Outcome::Latent)),
                    std::to_string(r.count(fault::Outcome::Corrected)),
                    std::to_string(r.count(fault::Outcome::RolledBack)),
                    std::to_string(r.count(fault::Outcome::LeadDropped)),
                    std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1),
                    format_percent(reexec, 2), format_si(r.energy_per_op, "J")});
        results.push_back({"streaming", r});
    }
    mt.print(std::cout);
    std::cout << "\nThe checkpointed tiers run ONE continuous cluster with full-state\n"
                 "snapshots at block boundaries (cross-block state survives rollback).\n"
                 "Re-exec is the rollback cost: discarded cycles / fault-free cycles.\n"
                 "With ECC + parity + checkpointing every burst is detected and either\n"
                 "replayed or fail-stopped: the SDC column must read zero.\n\n";

    // -- 5: arbiter sequential-state upsets vs the self-checking arbiter ----
    std::cout << "-- Arbiter-state upsets (stuck RR pointer / grant-register flip, "
              << stream_injections << " strikes, ulpmc-bank) --\n";
    Table at({"tier", "masked", "corrected", "trapped", "hang", "SDC", "coverage", "energy/op"});
    for (const auto& tier : kArbiterTiers) {
        fault::CampaignConfig c = cfg;
        c.injections = stream_injections;
        c.ecc = tier.ecc;
        c.xbar_self_check = tier.self_check;
        c.kinds = fault::kArbiterFaultKinds;
        const auto r = fault::run_campaign(bench, cluster::ArchKind::UlpmcBank, c, pool);
        at.add_row({tier.name, std::to_string(r.count(fault::Outcome::Masked)),
                    std::to_string(r.count(fault::Outcome::Corrected)),
                    std::to_string(r.count(fault::Outcome::Trapped)),
                    std::to_string(r.count(fault::Outcome::Hang)),
                    std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1),
                    format_si(r.energy_per_op, "J")});
        results.push_back({"oneshot", r, tier.policy});
    }
    at.print(std::cout);
    std::cout << "\nA flipped grant register double-grants one bank: the hijacked master\n"
                 "latches the winner's word (a silent wrong-data channel ECC cannot\n"
                 "see); a stuck round-robin pointer starves whoever it deprioritizes\n"
                 "until the watchdog fires. The self-checking arbiter re-evaluates the\n"
                 "grant matrix each cycle, suppresses the flip and resyncs the pointer\n"
                 "(counted repairs), restoring coverage at a per-cycle checker cost.\n\n";

    // -- 6: durable delta checkpoint storage (DESIGN.md §9.6) ---------------
    // A longer stream than experiments 3/4: the byte economics of delta
    // records only show once one keyframe amortizes over many boundary
    // deltas (4 blocks would be keyframe-dominated by construction).
    constexpr unsigned kStoreBlocks = 12;
    constexpr unsigned kStoreKeyInterval = 16;
    std::cout << "-- Durable checkpoint storage (" << stream_injections << " strikes, "
              << kStoreBlocks << " blocks, delta records + CRC32, ulpmc-bank) --\n";
    const app::StreamingBenchmark dstream({.use_barrier = true}, kStoreBlocks);
    struct StoreArm {
        const char* name;
        const char* policy;
        cluster::CkptStorageConfig storage;
        bool strikes;
    };
    const StoreArm kStoreArms[] = {
        {"full+crc", "store-full", {.delta = false, .keyframe_interval = 1}, false},
        {"delta+crc", "store-delta", {.keyframe_interval = kStoreKeyInterval}, false},
        {"delta+crc, record strikes", "store-strike-crc",
         {.keyframe_interval = kStoreKeyInterval}, true},
        {"delta NO-crc, record strikes", "store-strike-nocrc",
         {.keyframe_interval = kStoreKeyInterval, .crc_verify = false}, true},
    };
    Table kt({"store", "masked", "corrected", "rolled-back", "lead-dropped", "trapped", "SDC",
              "coverage", "stored", "full-equiv", "crc-fail", "fallbacks"});
    std::vector<fault::CampaignResult> store_runs;
    for (const auto& arm : kStoreArms) {
        fault::CampaignConfig c = sc;
        c.ecc = true;
        c.reg_protection = core::RegProtection::Parity;
        c.checkpoint = true;
        const auto r = fault::run_storage_campaign(dstream, cluster::ArchKind::UlpmcBank, c,
                                                   {.storage = arm.storage,
                                                    .storage_strikes = arm.strikes},
                                                   pool);
        kt.add_row({arm.name, std::to_string(r.count(fault::Outcome::Masked)),
                    std::to_string(r.count(fault::Outcome::Corrected)),
                    std::to_string(r.count(fault::Outcome::RolledBack)),
                    std::to_string(r.count(fault::Outcome::LeadDropped)),
                    std::to_string(r.count(fault::Outcome::Trapped)),
                    std::to_string(r.count(fault::Outcome::Sdc)), format_percent(r.coverage(), 1),
                    format_si(static_cast<double>(r.ckpt_stored_bytes), "B"),
                    format_si(static_cast<double>(r.ckpt_full_bytes), "B"),
                    std::to_string(r.ckpt_crc_failures), std::to_string(r.ckpt_fallbacks)});
        store_runs.push_back(r);
        results.push_back({"streaming", store_runs.back(), arm.policy});
    }
    kt.print(std::cout);
    // Delta records must be an ENCODING, never a behavior: the full- and
    // delta-record arms see identical strikes, so campaign outcomes must
    // match injection for injection — only the stored bytes may differ.
    const auto& full_arm = store_runs[0];
    const auto& delta_arm = store_runs[1];
    for (std::size_t i = 0; i < full_arm.runs.size(); ++i) {
        if (full_arm.runs[i].fault.describe() != delta_arm.runs[i].fault.describe() ||
            full_arm.runs[i].outcome != delta_arm.runs[i].outcome ||
            full_arm.runs[i].cycles != delta_arm.runs[i].cycles) {
            std::cerr << "FAIL: delta-record arm diverged from full-record arm at injection "
                      << i << "\n";
            return 1;
        }
    }
    const double delta_reduction =
        delta_arm.ckpt_stored_bytes > 0
            ? static_cast<double>(delta_arm.ckpt_full_bytes) /
                  static_cast<double>(delta_arm.ckpt_stored_bytes)
            : 0.0;
    if (delta_reduction < 5.0) {
        std::cerr << "FAIL: delta records reduced checkpoint bytes only "
                  << format_fixed(delta_reduction, 2) << "x (acceptance floor: 5x)\n";
        return 1;
    }
    std::cout << "\nDelta records persist " << format_si(
                     static_cast<double>(delta_arm.ckpt_stored_bytes), "B")
              << " where full keyframes need "
              << format_si(static_cast<double>(delta_arm.ckpt_full_bytes), "B") << ": a "
              << format_fixed(delta_reduction, 1)
              << "x byte reduction at byte-identical campaign outcomes.\n"
                 "Record strikes with CRC verification on are rejected before restore\n"
                 "and absorbed by the keyframe fallback chain (cheap re-execution, zero\n"
                 "SDC). With verification off the corruption flows into the restored\n"
                 "state; the per-block golden check downstream still refuses to commit\n"
                 "it (retries, lead drops, fail-stops — never silence), but recovery is\n"
                 "no longer one cheap fallback.\n";

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        write_json(os, results);
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
