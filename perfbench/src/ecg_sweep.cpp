// ecg-sweep: the paper's design-space exploration. Every point is one
// verified EcgBenchmark::run of the 8-lead CS + Huffman block on the
// default engine tier, over {mc-ref, ulpmc-int, ulpmc-bank} x {private,
// shared Huffman LUTs} x patients, fanned over a SweepRunner. The cluster
// layer and everything under it does almost all the work here.
#include <memory>
#include <vector>

#include "app/benchmark.hpp"
#include "app/ecg.hpp"
#include "cluster/pool.hpp"
#include "fault/fault.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ulpmc::app::BenchmarkOptions;
using ulpmc::app::EcgBenchmark;
using ulpmc::cluster::ArchKind;
using ulpmc::cluster::ClusterStats;
using ulpmc::cluster::SimEngine;

constexpr unsigned kPatients = 3;
constexpr unsigned kSetups = 7;
constexpr ArchKind kArchs[] = {ArchKind::McRef, ArchKind::UlpmcInt, ArchKind::UlpmcBank};

struct Point {
    const EcgBenchmark* bench = nullptr;
    ArchKind arch{};
    std::string label;
};

struct Inputs {
    std::vector<std::unique_ptr<EcgBenchmark>> benches;
    std::vector<Point> points;
};

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    for (unsigned p = 0; p < kPatients; ++p) {
        for (const bool shared : {false, true}) {
            in.benches.push_back(std::make_unique<EcgBenchmark>(BenchmarkOptions{
                .seed = ulpmc::fault::mix_seed(seed, p), .luts_shared = shared}));
            for (const ArchKind a : kArchs) {
                in.points.push_back({in.benches.back().get(), a,
                                     ulpmc::cluster::arch_name(a) +
                                         (shared ? ".shared" : ".private") + ".p" +
                                         std::to_string(p)});
            }
        }
    }
    return in;
}

std::uint64_t stall_cycles(const ClusterStats& s) {
    std::uint64_t n = 0;
    for (const auto& c : s.core) n += c.stall_cycles;
    return n;
}

/// Exact work counters of one sweep (the per-layer "counts" rows).
void add_counters(std::map<std::string, double>& m, const ClusterStats& s) {
    m["cluster.cycles"] += static_cast<double>(s.cycles);
    m["cluster.instret"] += static_cast<double>(s.total_ops());
    m["cluster.stall_cycles"] += static_cast<double>(stall_cycles(s));
    m["xbar.i.bank_accesses"] += static_cast<double>(s.ixbar.bank_accesses);
    m["xbar.i.broadcast_riders"] += static_cast<double>(s.ixbar.broadcast_riders);
    m["xbar.d.denied"] += static_cast<double>(s.dxbar.denied);
    m["xbar.d.conflict_cycles"] += static_cast<double>(s.dxbar.conflict_cycles);
    m["mem.dm_reads"] += static_cast<double>(s.dm_bank_reads);
    m["mem.dm_writes"] += static_cast<double>(s.dm_bank_writes);
}

struct Tier {
    SimEngine engine;
    const char* name;
    const char* load_span;
    const char* run_span;
};
constexpr Tier kTiers[] = {
    {SimEngine::Reference, "reference", "cluster.load.reference", "cluster.run.reference"},
    {SimEngine::Fast, "fast", "cluster.load.fast", "cluster.run.fast"},
    {SimEngine::Trace, "trace", "cluster.load.trace", "cluster.run.trace"},
};
constexpr unsigned kTierRounds = 3;

/// Attribution pass: the same points driven through Cluster directly, per
/// engine tier, so Cluster::run's share of EcgBenchmark::run is timed on
/// its own; on the default tier each point is followed by the same
/// EcgBenchmark::run on the same thread, so the pair differs only by
/// what run() adds around the cluster. Rounds interleave the tiers and
/// each number is the median over rounds. Every tier must reproduce the
/// sweep's statistics exactly.
void tier_pass(const Inputs& in, const std::vector<EcgBenchmark::Outcome>& ref,
               ulpmc::sweep::SweepRunner& pool, Gate& gate, Result& res) {
    const std::size_t n = in.points.size();
    double cycles = 0;
    for (const auto& o : ref) cycles += static_cast<double>(o.stats.cycles);
    std::map<std::string, std::vector<double>> rounds; // span name -> per-round total
    for (unsigned r = 0; r < kTierRounds; ++r) {
        for (const Tier& tier : kTiers) {
            const bool paired = tier.engine == SimEngine::Trace;
            std::vector<ClusterStats> stats(n);
            std::vector<double> load_s(n), run_s(n), app_s(n);
            pool.for_each_index(n, [&](std::size_t i) {
                const Point& pt = in.points[i];
                auto cfg = ulpmc::cluster::make_config(pt.arch, pt.bench->layout().dm_layout());
                cfg.engine = tier.engine;
                cfg.barrier_enabled = pt.bench->layout().use_barrier;
                Clock::time_point t0 = Clock::now();
                ulpmc::cluster::Cluster* cl = nullptr;
                {
                    ScopedSpan s(tier.load_span, "cluster");
                    cl = &ulpmc::cluster::pooled_cluster(cfg, pt.bench->image());
                    pt.bench->load_inputs(*cl, cfg.cores);
                }
                load_s[i] = seconds_since(t0);
                t0 = Clock::now();
                {
                    ScopedSpan s(tier.run_span, "cluster");
                    cl->run();
                }
                run_s[i] = seconds_since(t0);
                stats[i] = cl->stats();
                if (paired) {
                    t0 = Clock::now();
                    ScopedSpan s("app.run.paired", "app");
                    pt.bench->run(pt.arch);
                    app_s[i] = seconds_since(t0);
                }
            });
            for (std::size_t i = 0; i < n; ++i) {
                gate.check(std::string("tier.") + tier.name + "." + in.points[i].label,
                           stats[i] == ref[i].stats, "statistics differ from EcgBenchmark::run");
            }
            gate.end_rep(false);
            double load = 0, run = 0, app = 0;
            for (std::size_t i = 0; i < n; ++i) {
                load += load_s[i];
                run += run_s[i];
                app += app_s[i];
            }
            rounds[std::string("cluster.ns_per_cycle.") + tier.name].push_back(run * 1e9 / cycles);
            if (paired) {
                rounds["cluster.load_s"].push_back(load);
                rounds["app.overhead_s"].push_back(app - run);
            }
        }
    }
    for (const auto& [name, v] : rounds) res.layers[name] = median(v);
    res.layers["cluster.ns_per_cycle"] = res.layers["cluster.ns_per_cycle.trace"];
}

} // namespace

Result run_ecg_sweep(const Context& ctx, Gate& gate) {
    Result res;
    ulpmc::sweep::SweepRunner pool(ctx.workers);

    Inputs in;
    for (unsigned i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        in = make_inputs(ctx.seed);
        res.setup_s.push_back(seconds_since(t0));
    }

    const std::size_t n = in.points.size();
    const double block_h = static_cast<double>(ulpmc::app::kEcgBlockSamples) /
                           ulpmc::app::kEcgSampleRateHz / 3600.0;
    std::vector<EcgBenchmark::Outcome> out(n);
    double cycles_per_rep = 0;
    repeat(ctx, 3, res, [&](bool) {
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan s("sweep.run", "sweep");
            pool.for_each_index(n, [&](std::size_t i) {
                ScopedSpan sp("sweep.point", "sweep");
                ScopedSpan sa("app.run", "app");
                out[i] = in.points[i].bench->run(in.points[i].arch);
            });
        }
        const double t = seconds_since(t0);
        cycles_per_rep = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::string& op = in.points[i].label;
            const ClusterStats& s = out[i].stats;
            gate.check(op, out[i].verified, "outputs differ from the golden pipeline");
            gate.observe(op, "cycles", s.cycles);
            gate.observe(op, "instret", s.total_ops());
            gate.observe(op, "stall_cycles", stall_cycles(s));
            gate.observe(op, "im_bank_accesses", s.im_bank_accesses);
            gate.observe(op, "i_riders", s.ixbar.broadcast_riders);
            gate.observe(op, "d_denied", s.dxbar.denied);
            gate.observe(op, "d_conflict_cycles", s.dxbar.conflict_cycles);
            gate.observe(op, "dm_reads", s.dm_bank_reads);
            gate.observe(op, "dm_writes", s.dm_bank_writes);
            cycles_per_rep += static_cast<double>(s.cycles);
        }
        gate.end_rep();
        return t;
    });

    res.ops_per_rep = static_cast<double>(n);
    res.device_hours_per_rep = static_cast<double>(n) * block_h;
    res.headline = "sim_cycles_per_s";
    res.headline_unit = "cycles/s";
    res.headline_per_rep = cycles_per_rep;

    if (ctx.trace) {
        res.layers["sweep.busy_frac"] =
            Spans::total("sweep.point") /
            (static_cast<double>(pool.threads()) * Spans::total("sweep.run"));
        for (const auto& o : out) add_counters(res.layers, o.stats);
        Spans::enable(true);
        tier_pass(in, out, pool, gate, res);
        Spans::enable(false);
    }
    return res;
}

} // namespace perfbench
