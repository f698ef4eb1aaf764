// fault-campaign: seeded SEC-DED strike campaigns on ulpmc-bank under the
// batched engine — one one-shot campaign plus one 4-block streaming
// campaign at the 4:1 injection ratio bench/ext_fault_campaign uses. The
// two halves use lockstep batching differently (one-shot lanes rarely
// rejoin; streaming memoizes the clean stream), so a change that helps
// one and costs the other shows here. Pins come from the trace-engine
// oracle, so a pinned seed also proves batched == trace per injection.
#include <algorithm>
#include <cctype>

#include "app/benchmark.hpp"
#include "app/ecg.hpp"
#include "app/streaming.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ulpmc::cluster::ArchKind;
using ulpmc::fault::CampaignConfig;
using ulpmc::fault::CampaignResult;

constexpr unsigned kOneShot = 384;
constexpr unsigned kStreaming = kOneShot / 4;
constexpr unsigned kStreamBlocks = 4;
constexpr unsigned kSetups = 7;

struct Inputs {
    std::unique_ptr<ulpmc::app::EcgBenchmark> bench;
    std::unique_ptr<ulpmc::app::StreamingBenchmark> stream;
};

void observe_runs(Gate& gate, const char* half, const CampaignResult& r, unsigned expected) {
    gate.check(std::string(half) + ".campaign", r.runs.size() == expected,
               "campaign returned " + std::to_string(r.runs.size()) + " injections");
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
        const auto& rec = r.runs[i];
        const std::string op = std::string(half) + "." + std::to_string(i);
        gate.observe(op, "outcome", ulpmc::fault::outcome_name(rec.outcome));
        gate.observe(op, "cycles", rec.cycles);
        gate.observe(op, "rollbacks", rec.rollbacks);
    }
}

void add_layers(std::map<std::string, double>& m, const CampaignResult& r) {
    double sim = 0;
    for (const auto& rec : r.runs) sim += static_cast<double>(rec.cycles);
    m["fault.sim_cycles"] += sim;
    m["fault.lockstep_cycles"] += static_cast<double>(r.batch_lockstep_cycles);
    for (unsigned k = 0; k < ulpmc::cluster::kPeelReasonCount; ++k) {
        const auto reason = static_cast<ulpmc::cluster::PeelReason>(k);
        m[std::string("fault.peels.") + ulpmc::cluster::peel_reason_name(reason)] +=
            static_cast<double>(r.batch_peel_reasons[k]);
    }
    for (unsigned k = 0; k < ulpmc::fault::kOutcomeCount; ++k) {
        std::string name = ulpmc::fault::outcome_name(static_cast<ulpmc::fault::Outcome>(k));
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
        m["fault.outcome." + name] += static_cast<double>(r.counts[k]);
    }
    m["fault.checkpoints"] += static_cast<double>(r.checkpoints);
    m["fault.reexec_cycles"] += static_cast<double>(r.reexec_cycles);
}

} // namespace

Result run_fault_campaign(const Context& ctx, Gate& gate) {
    Result res;
    ulpmc::sweep::SweepRunner pool(ctx.workers);
    const std::uint64_t patient = ulpmc::fault::mix_seed(ctx.seed, 0);

    Inputs in;
    for (unsigned i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        in.bench = std::make_unique<ulpmc::app::EcgBenchmark>(
            ulpmc::app::BenchmarkOptions{.seed = patient});
        in.stream = std::make_unique<ulpmc::app::StreamingBenchmark>(
            ulpmc::app::BenchmarkOptions{.seed = patient, .use_barrier = true}, kStreamBlocks);
        res.setup_s.push_back(seconds_since(t0));
    }

    CampaignConfig cfg;
    cfg.seed = ulpmc::fault::mix_seed(ctx.seed, 1);
    cfg.ecc = true;
    cfg.engine = ctx.oracle ? ulpmc::cluster::SimEngine::Trace : ulpmc::cluster::SimEngine::Batched;
    cfg.batch = 8;
    CampaignConfig scfg = cfg;
    cfg.injections = kOneShot;
    scfg.injections = kStreaming;

    CampaignResult oneshot, streaming;
    repeat(ctx, 2, res, [&](bool) {
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan s("fault.oneshot", "fault");
            oneshot = ulpmc::fault::run_campaign(*in.bench, ArchKind::UlpmcBank, cfg, pool);
        }
        {
            ScopedSpan s("fault.stream", "fault");
            streaming = ulpmc::fault::run_streaming_campaign(*in.stream, ArchKind::UlpmcBank,
                                                             scfg, pool);
        }
        const double t = seconds_since(t0);
        observe_runs(gate, "oneshot", oneshot, kOneShot);
        observe_runs(gate, "stream", streaming, kStreaming);
        gate.end_rep();
        return t;
    });

    const double block_h = static_cast<double>(ulpmc::app::kEcgBlockSamples) /
                           ulpmc::app::kEcgSampleRateHz / 3600.0;
    res.ops_per_rep = kOneShot + kStreaming;
    res.device_hours_per_rep = (kOneShot + kStreaming * kStreamBlocks) * block_h;
    res.headline = "injections_per_s";
    res.headline_unit = "1/s";
    res.headline_per_rep = res.ops_per_rep;

    if (ctx.trace) {
        auto& m = res.layers;
        const double traced_reps = static_cast<double>(res.traced_s.size());
        m["fault.oneshot_s"] = Spans::total("fault.oneshot") / traced_reps;
        m["fault.stream_s"] = Spans::total("fault.stream") / traced_reps;
        add_layers(m, oneshot);
        add_layers(m, streaming);
        m["fault.lockstep_share"] = m["fault.lockstep_cycles"] / m["fault.sim_cycles"];
        m["fault.ns_per_private_cycle"] = (m["fault.oneshot_s"] + m["fault.stream_s"]) * 1e9 /
                                          (m["fault.sim_cycles"] - m["fault.lockstep_cycles"]);
    }
    return res;
}

} // namespace perfbench
