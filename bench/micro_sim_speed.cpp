// Simulator micro-benchmarks (google-benchmark): throughput of the hot
// paths — instruction decode, ALU, crossbar arbitration, single-core ISS
// stepping and whole-cluster cycle stepping. These guard the simulator's
// usability for large design-space sweeps; they reproduce no paper figure.
//
// `--json FILE` writes the google-benchmark JSON report to FILE (shorthand
// for --benchmark_out=FILE --benchmark_out_format=json); the CI
// perf-regression job diffs it against the committed baseline
// BENCH_sim_speed.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "app/benchmark.hpp"
#include "app/streaming.hpp"
#include "cluster/cluster.hpp"
#include "core/alu.hpp"
#include "core/functional_core.hpp"
#include "fault/campaign.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "sweep/sweep.hpp"
#include "xbar/crossbar.hpp"

using namespace ulpmc;

namespace {

void BM_Decode(benchmark::State& state) {
    const InstrWord w = isa::encode(isa::make_alu(isa::Opcode::ADD, isa::dreg(1), isa::spostinc(2),
                                                  isa::sreg(3)));
    for (auto _ : state) {
        auto d = isa::decode(w);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_Decode);

void BM_Alu(benchmark::State& state) {
    Word a = 0x1234;
    Word b = 0x0F0F;
    for (auto _ : state) {
        const auto r = core::alu_exec(isa::Opcode::ADD, a, b);
        a = r.value;
        benchmark::DoNotOptimize(a);
        b ^= 0x2401;
    }
}
BENCHMARK(BM_Alu);

void BM_XbarArbitrate(benchmark::State& state) {
    xbar::Crossbar xb(16, 16, true);
    std::vector<xbar::Request> reqs(16);
    std::vector<xbar::Grant> grants(16);
    for (unsigned m = 0; m < 16; ++m)
        reqs[m] = {.active = true, .is_write = (m % 3 == 0), .bank = static_cast<BankId>(m % 5),
                   .offset = m % 7u};
    Cycle cycle = 0;
    for (auto _ : state) {
        xb.arbitrate_into(reqs, ++cycle, grants);
        benchmark::DoNotOptimize(grants.data());
    }
}
BENCHMARK(BM_XbarArbitrate);

// The crossbar's common case: every master claims a different bank (private
// data traffic, interleaved fetch with diverged PCs). `fast` exercises the
// claim-bitmask fast path, `slow` forces the reference round-robin arbiter
// on identical inputs.
void BM_XbarArbitrateConflictFree(benchmark::State& state, bool fast) {
    xbar::Crossbar xb(16, 16, true);
    xb.set_fast_path(fast);
    std::vector<xbar::Request> reqs(16);
    std::vector<xbar::Grant> grants(16);
    for (unsigned m = 0; m < 16; ++m)
        reqs[m] = {.active = true, .is_write = (m % 3 == 0), .bank = static_cast<BankId>(m),
                   .offset = m % 7u};
    Cycle cycle = 0;
    for (auto _ : state) {
        xb.arbitrate_into(reqs, ++cycle, grants);
        benchmark::DoNotOptimize(grants.data());
    }
}
BENCHMARK_CAPTURE(BM_XbarArbitrateConflictFree, fast, true);
BENCHMARK_CAPTURE(BM_XbarArbitrateConflictFree, slow, false);

void BM_FunctionalCoreStep(benchmark::State& state) {
    const auto prog = isa::assemble(R"(
            movi r1, 0
            movi r2, 1000
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
            movi r1, 0
            movi r2, 1000
            bra  al, loop
    )");
    core::FlatMemory mem;
    core::FunctionalCore c(prog.text, mem);
    for (auto _ : state) {
        c.step();
        benchmark::DoNotOptimize(c.state().pc);
    }
}
BENCHMARK(BM_FunctionalCoreStep);

// The same endless kernel through FunctionalCore::run()'s block-granular
// dispatcher (pre-decoded superblocks, no per-instruction fetch checks).
// The ratio against BM_FunctionalCoreStep is the ISS dispatch speedup.
void BM_FunctionalCoreRunBlocks(benchmark::State& state) {
    const auto prog = isa::assemble(R"(
            movi r1, 0
            movi r2, 1000
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
            movi r1, 0
            movi r2, 1000
            bra  al, loop
    )");
    core::FlatMemory mem;
    core::FunctionalCore c(prog.text, mem);
    constexpr std::uint64_t kChunk = 1024;
    for (auto _ : state) {
        c.run(kChunk);
        benchmark::DoNotOptimize(c.state().pc);
    }
    state.counters["instrs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(kChunk),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalCoreRunBlocks);

// The acceptance workload for the simulation fast path: an 8-core
// ulpmc-int cluster on an endless store/loop kernel. With staggered starts
// the PCs spread over the interleaved IM banks, so fetch and private-data
// traffic are conflict-free — the case the pre-decoded IM and the
// claim-bitmask arbiter are built for. `fast` and `slow` run the identical
// configuration with the fast path on/off (the slow path IS the old
// engine), so the ratio of the two is the measured speedup.
void BM_ClusterStep(benchmark::State& state, cluster::SimEngine engine, bool stagger) {
    const auto prog = isa::assemble(R"(
            movi r1, 512
            movi r2, 1000
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
            movi r1, 512
            movi r2, 1000
            bra  al, loop
    )");
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcInt,
                                    {.shared_words = 512, .private_words_per_core = 2048});
    cfg.engine = engine;
    cfg.stagger_start = stagger;
    cluster::Cluster cl(cfg, prog);
    for (auto _ : state) {
        bool alive = cl.step(); // the program never halts: one cycle per iteration
        benchmark::DoNotOptimize(alive);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kNumCores);
    std::uint64_t fetches = 0;
    for (const auto& c : cl.stats().core) fetches += c.im_fetches;
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
    state.counters["fetches/s"] =
        benchmark::Counter(static_cast<double>(fetches), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ClusterStep, int8_trace, cluster::SimEngine::Trace, true);
BENCHMARK_CAPTURE(BM_ClusterStep, int8_fast, cluster::SimEngine::Fast, true);
BENCHMARK_CAPTURE(BM_ClusterStep, int8_slow, cluster::SimEngine::Reference, true);
// Without the stagger all eight cores run in lockstep: on the trace tier
// each step() is an SPMD lockstep cycle (DESIGN.md §10) — commits and one
// broadcast fetch with no arbitration round.
BENCHMARK_CAPTURE(BM_ClusterStep, int8_lockstep_trace, cluster::SimEngine::Trace, false);
BENCHMARK_CAPTURE(BM_ClusterStep, int8_lockstep_fast, cluster::SimEngine::Fast, false);
BENCHMARK_CAPTURE(BM_ClusterStep, int8_lockstep_slow, cluster::SimEngine::Reference, false);

// The trace engine's acceptance workload (DESIGN.md §10): a single active
// core on a conflict-free loop, driven through run() so the superblock
// dispatcher and the timing memo engage (per-cycle step() is the generic
// path by design). The kernel mirrors the shape of the app's per-lead
// filter loops — a compute stretch of ALU work, then one streaming store
// per iteration — so the memo lane sees the mem-free runs real phases
// have. One iteration = one 4096-cycle burst; the trace/ref cycles/s
// ratio is the engine-tier speedup on conflict-free phases.
void BM_ClusterRunConflictFree(benchmark::State& state, cluster::SimEngine engine) {
    const auto prog = isa::assemble(R"(
            movi r1, 512
            movi r2, 1000
    loop:   add  r3, r3, #1
            xor  r4, r4, r3
            add  r5, r4, r3
            and  r6, r5, r4
            or   r7, r6, r3
            sub  r8, r7, r4
            add  r8, r8, r6
            mov  @r1+, r8
            sub  r2, r2, #1
            bra  ne, loop
            movi r1, 512
            movi r2, 1000
            bra  al, loop
    )");
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank,
                                    {.shared_words = 512, .private_words_per_core = 2048});
    cfg.cores = 1;
    cfg.engine = engine;
    cluster::Cluster cl(cfg, prog);
    constexpr Cycle kBurst = 4096;
    Cycle target = 0;
    for (auto _ : state) {
        target += kBurst;
        cl.run(target); // the program never halts: exactly kBurst cycles
        benchmark::DoNotOptimize(cl.stats().cycles);
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(kBurst),
        benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ClusterRunConflictFree, trace, cluster::SimEngine::Trace);
BENCHMARK_CAPTURE(BM_ClusterRunConflictFree, fast, cluster::SimEngine::Fast);
BENCHMARK_CAPTURE(BM_ClusterRunConflictFree, reference, cluster::SimEngine::Reference);

void BM_ClusterCycle(benchmark::State& state) {
    const app::EcgBenchmark bench{};
    const auto cfg =
        cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
    auto cl = std::make_unique<cluster::Cluster>(cfg, bench.program());
    for (auto _ : state) {
        bool alive = cl->step();
        if (!alive) {
            // The benchmark ran to completion: restart on a fresh cluster
            // (construction cost excluded from timing).
            state.PauseTiming();
            cl = std::make_unique<cluster::Cluster>(cfg, bench.program());
            state.ResumeTiming();
            alive = cl->step();
        }
        benchmark::DoNotOptimize(alive);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kNumCores);
}
BENCHMARK(BM_ClusterCycle);

// Design-space sweep throughput: six architecture points simulated to
// completion per iteration. `pool1` is the sequential reference (no pool
// threads), `pool_hw` uses the hardware concurrency — on a multi-core
// host the ratio shows the sweep-runner scaling, on a single-core CI
// container both degenerate to the same work.
void BM_Sweep(benchmark::State& state, unsigned threads) {
    const auto prog = isa::assemble(R"(
            movi r1, 512
            movi r2, 200
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
    std::vector<sweep::SweepPoint> points;
    for (const auto arch : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                            cluster::ArchKind::UlpmcBank}) {
        for (const bool stagger : {false, true}) {
            auto cfg = cluster::make_config(arch,
                                            {.shared_words = 512, .private_words_per_core = 2048});
            cfg.stagger_start = stagger;
            points.push_back({.label = std::string(cluster::arch_name(arch)),
                              .cfg = cfg,
                              .max_cycles = 100'000});
        }
    }
    sweep::SweepRunner pool(threads);
    for (auto _ : state) {
        auto out = pool.run(prog, points);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["points/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(points.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Sweep, pool1, 1u);
BENCHMARK_CAPTURE(BM_Sweep, pool_hw, 0u);

// Campaign throughput (DESIGN.md §11): the batched engine vs the trace
// tier on identical fault campaigns — byte-identical outcome tables,
// wall-clock is the only difference, so the pair ratio IS the engine
// speedup. `streaming_*` is the fleet shape the batched tier targets
// (sparse strikes over a long stream, clean prefix/tail memoized):
// one resilient SEU row plus one checkpointed burst row. `oneshot_*`
// is the run-to-completion shape where every injection diverges for
// good — the ratio there hovers near 1 and guards against the batched
// bookkeeping ever making campaigns slower than trace.
void BM_CampaignThroughput(benchmark::State& state, cluster::SimEngine engine, bool streaming) {
    sweep::SweepRunner pool(1);
    fault::CampaignConfig seu;
    seu.injections = 20;
    seu.seed = 42;
    seu.ecc = true;
    seu.engine = engine;
    seu.batch = 8;
    unsigned injections = 0;
    if (streaming) {
        const app::StreamingBenchmark stream({.use_barrier = true}, 4);
        auto burst = seu;
        burst.reg_protection = core::RegProtection::Parity;
        burst.checkpoint = true;
        burst.burst_len = 3;
        burst.reg_burst = 2;
        for (auto _ : state) {
            const auto a =
                fault::run_streaming_campaign(stream, cluster::ArchKind::UlpmcBank, seu, pool);
            const auto b =
                fault::run_streaming_campaign(stream, cluster::ArchKind::UlpmcBank, burst, pool);
            injections += a.cfg.injections + b.cfg.injections;
            benchmark::DoNotOptimize(a.runs.data());
            benchmark::DoNotOptimize(b.runs.data());
        }
    } else {
        const app::EcgBenchmark bench{};
        seu.injections = 40;
        for (auto _ : state) {
            const auto a = fault::run_campaign(bench, cluster::ArchKind::UlpmcBank, seu, pool);
            injections += a.cfg.injections;
            benchmark::DoNotOptimize(a.runs.data());
        }
    }
    state.counters["inj/s"] =
        benchmark::Counter(static_cast<double>(injections), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_CampaignThroughput, streaming_trace, cluster::SimEngine::Trace, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignThroughput, streaming_batched, cluster::SimEngine::Batched, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignThroughput, oneshot_trace, cluster::SimEngine::Trace, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignThroughput, oneshot_batched, cluster::SimEngine::Batched, false)
    ->Unit(benchmark::kMillisecond);

void BM_FullBenchmarkRun(benchmark::State& state) {
    const app::EcgBenchmark bench{};
    for (auto _ : state) {
        const auto out = bench.run(cluster::ArchKind::UlpmcBank);
        benchmark::DoNotOptimize(out.stats.cycles);
    }
}
BENCHMARK(BM_FullBenchmarkRun)->Unit(benchmark::kMillisecond);

} // namespace

// Custom main: translate our CI-facing `--json FILE` shorthand into
// google-benchmark's --benchmark_out pair, forward everything else.
int main(int argc, char** argv) {
    std::vector<std::string> fwd;
    fwd.emplace_back(argv[0]);
    std::string json;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json = argv[++i];
        } else {
            fwd.push_back(arg);
        }
    }
    if (!json.empty()) {
        fwd.push_back("--benchmark_out=" + json);
        fwd.push_back("--benchmark_out_format=json");
    }
    std::vector<char*> args;
    args.reserve(fwd.size());
    for (auto& s : fwd) args.push_back(s.data());
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
