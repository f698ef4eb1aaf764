#include "fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "cluster/checkpoint.hpp"
#include "cluster/ckpt_store.hpp"
#include "cluster/clean_run.hpp"
#include "cluster/pool.hpp"
#include "common/assert.hpp"
#include "power/calibration.hpp"
#include "power/power_model.hpp"

namespace ulpmc::fault {

const char* outcome_name(Outcome o) {
    switch (o) {
    case Outcome::Masked: return "masked";
    case Outcome::Latent: return "latent";
    case Outcome::Corrected: return "corrected";
    case Outcome::RolledBack: return "rolled-back";
    case Outcome::LeadDropped: return "lead-dropped";
    case Outcome::Trapped: return "trapped";
    case Outcome::Hang: return "hang";
    case Outcome::Sdc: return "SDC";
    }
    return "?";
}

double CampaignResult::coverage() const {
    if (runs.empty()) return 1.0;
    return 1.0 - static_cast<double>(count(Outcome::Sdc)) / static_cast<double>(runs.size());
}

namespace {

cluster::ClusterConfig resilient_config(const app::EcgBenchmark& bench, cluster::ArchKind arch,
                                        const CampaignConfig& cfg) {
    cluster::ClusterConfig c = cluster::make_config(arch, bench.layout().dm_layout());
    c.barrier_enabled = bench.layout().use_barrier;
    c.ecc_enabled = cfg.ecc;
    c.reg_protection = cfg.reg_protection;
    c.watchdog_cycles = cluster::kWatchdogCycles;
    c.engine = cfg.engine;
    c.im_scrub = cfg.im_scrub;
    c.xbar_self_check = cfg.xbar_self_check;
    return c;
}

/// Per-thread injection cluster, reused across campaigns so the
/// injection loop allocates nothing once warm.
struct Workspace {
    std::unique_ptr<cluster::Cluster> cl;
    std::unique_ptr<cluster::CheckpointRunner> runner; ///< bound to *cl
    cluster::ClusterStats credited;                    ///< a rejoined run's statistics
    cluster::Cluster::Snapshot loaded; ///< *cl freshly loaded for the ladder `loaded_for`
    std::uint64_t loaded_for = 0;      ///< CleanRun::id(); 0 = none
};

Workspace& workspace() {
    thread_local Workspace ws;
    return ws;
}

/// The divergence bucket a fault kind's injection is counted in.
cluster::PeelReason peel_reason_of(FaultKind k) {
    switch (k) {
    case FaultKind::IXbarGlitch:
    case FaultKind::DXbarGlitch:
    case FaultKind::IXbarStateUpset:
    case FaultKind::DXbarStateUpset: return cluster::PeelReason::CrossbarUpset;
    default: return cluster::PeelReason::FaultStrike;
    }
}

double clean_energy_per_op(cluster::ArchKind arch, const cluster::ClusterStats& stats,
                           double checkpoint_words_per_op = 0.0) {
    const power::PowerModel model(arch);
    auto rates = power::EventRates::from_run(stats);
    rates.checkpoint_words_per_op = checkpoint_words_per_op;
    return model.energy_per_op(rates).total();
}

/// Analytic checkpoint traffic per op: `checkpoints` full-cluster saves of
/// `cores` x kCheckpointWordsPerCore state words amortized over the run.
double checkpoint_words_per_op(double checkpoints, unsigned cores, std::uint64_t ops) {
    if (ops == 0) return 0.0;
    return checkpoints * static_cast<double>(cores) *
           static_cast<double>(power::cal::kCheckpointWordsPerCore) / static_cast<double>(ops);
}

/// A stream's clean-run J/op, from the one-shot benchmark (same firmware
/// inner loop). Block-boundary checkpoints amortize over the whole stream,
/// so the one-shot run stands in for one block's worth of ops; their
/// traffic is scaled by `stored_ratio`, the bytes the checkpoint store
/// persists per full-snapshot byte.
double stream_energy_per_op(const app::StreamingBenchmark& bench, cluster::ArchKind arch,
                            const cluster::ClusterConfig& ccfg, std::uint64_t checkpoints,
                            double stored_ratio) {
    cluster::Cluster& cl = cluster::pooled_cluster(ccfg, bench.base().image());
    bench.base().load_inputs(cl, ccfg.cores);
    cl.run();
    const double ckpts_per_block =
        static_cast<double>(checkpoints) / static_cast<double>(bench.n_blocks());
    return clean_energy_per_op(
        arch, cl.stats(),
        checkpoint_words_per_op(ckpts_per_block, ccfg.cores, cl.stats().total_ops()) *
            stored_ratio);
}

/// The strike universe of one campaign: IM strikes over `prog`'s text,
/// DM strikes over `bench`'s layout, strike cycles within `window`.
FaultUniverse universe_of(const isa::Program& prog, const app::EcgBenchmark& bench,
                          unsigned cores, Cycle window, const CampaignConfig& cfg) {
    FaultUniverse u;
    u.text_words = prog.text.size();
    u.dm_words = bench.layout().dm_layout().limit();
    u.cores = cores;
    u.window = window;
    u.kinds = cfg.kinds;
    u.flip_bits = cfg.flip_bits;
    u.burst_len = cfg.burst_len;
    u.reg_burst = cfg.reg_burst;
    return u;
}

/// Fills `rec` from one streaming run and classifies it. The storage
/// terms (exhausted record store, keyframe fallbacks) are zero outside
/// run_storage_campaign.
void classify_stream(const app::StreamingBenchmark::ResilientOutcome& ro, InjectionRecord& rec) {
    rec.cycles = ro.total_cycles;
    rec.ecc_corrected = ro.ecc_corrected;
    rec.rollbacks = ro.rollbacks;
    rec.checkpoints = ro.checkpoints;
    rec.reexec_cycles = ro.reexec_cycles;
    if (ro.storage_exhausted) {
        // Every stored record rejected: a DETECTED, fail-stop loss (the
        // run refuses to restore garbage), not silent corruption.
        rec.outcome = Outcome::Trapped;
    } else if (ro.leads_dropped > 0) {
        // LeadDropped before Sdc: a zero-survivor outage is a DETECTED
        // fail-stop (the monitor dropped every lead after failed
        // retries), not a silent corruption.
        rec.outcome = Outcome::LeadDropped;
    } else if (!ro.all_surviving_verified) {
        rec.outcome = Outcome::Sdc;
    } else if (ro.rollbacks > 0 || ro.ckpt_fallbacks > 0) {
        rec.outcome = Outcome::RolledBack;
    } else if (rec.ecc_corrected > 0 || ro.reg_tmr_votes > 0 || ro.xbar_selfchecks > 0 ||
               ro.im_scrub_corrected > 0) {
        rec.outcome = Outcome::Corrected;
    } else if (ro.latent_reg_faults > 0) {
        rec.outcome = Outcome::Latent;
    } else {
        rec.outcome = Outcome::Masked;
    }
}

/// Folds every run into the campaign totals; `extra(i)` adds a
/// campaign's own per-injection aggregates.
void tally(CampaignResult& res, const std::function<void(std::size_t)>& extra = {}) {
    for (std::size_t i = 0; i < res.runs.size(); ++i) {
        const InjectionRecord& r = res.runs[i];
        ++res.counts[static_cast<unsigned>(r.outcome)];
        res.checkpoints += r.checkpoints;
        res.reexec_cycles += r.reexec_cycles;
        res.batch_lockstep_cycles += r.batch_lockstep_cycles;
        res.batch_lane_peels += r.batch_lane_peels;
        for (unsigned b = 0; b < cluster::kPeelReasonCount; ++b)
            res.batch_peel_reasons[b] += r.batch_peel_reasons[b];
        if (extra) extra(i);
    }
}

} // namespace

CampaignResult run_campaign(const app::EcgBenchmark& bench, cluster::ArchKind arch,
                            const CampaignConfig& cfg, sweep::SweepRunner& pool) {
    ULPMC_EXPECTS(cfg.injections >= 1);
    CampaignResult res;
    res.arch = arch;
    res.cfg = cfg;

    const cluster::ClusterConfig ccfg = resilient_config(bench, arch, cfg);

    // The golden run, captured once before the pool starts and shared
    // read-only by every thread: its ladder rungs seed every injection
    // (restoring the rung below the strike replaces re-simulating the
    // clean prefix — on average half the run), and `golden` stays parked
    // at the verified final state.
    cluster::Cluster golden(ccfg, bench.image());
    bench.load_inputs(golden, ccfg.cores);
    const cluster::CleanRun clean(golden);
    res.clean_cycles = clean.cycles();
    ULPMC_EXPECTS(bench.verify(golden, ccfg.cores));
    Cycle interval = cfg.checkpoint_interval;
    if (interval == 0) interval = std::max<Cycle>(1, res.clean_cycles / 8);
    const double ckpts_per_run =
        cfg.checkpoint ? static_cast<double>(res.clean_cycles) / static_cast<double>(interval)
                       : 0.0;
    res.energy_per_op = clean_energy_per_op(
        arch, golden.stats(),
        checkpoint_words_per_op(ckpts_per_run, ccfg.cores, golden.stats().total_ops()));

    const FaultUniverse universe =
        universe_of(bench.program(), bench, ccfg.cores, res.clean_cycles, cfg);
    const Cycle bound = cluster::hang_bound(ccfg, res.clean_cycles);

    // Batched engine, one-shot recovery (DESIGN.md §11): after the strike
    // the injection walks the later rungs, and at the first one whose
    // state it matches, the rest of the run is credited from the clean
    // run instead of simulated. The checkpointed mode never rejoins
    // (rollback re-execution leaves the clean schedule for good).
    const bool rejoin = cfg.engine == cluster::SimEngine::Batched && !cfg.checkpoint;
    const std::size_t per_task = std::max(1u, cfg.batch);
    const std::size_t tasks = (cfg.injections + per_task - 1) / per_task;

    res.runs.resize(cfg.injections);
    pool.for_each_index(tasks, [&](std::size_t t) {
        Workspace& ws = workspace();
        if (!ws.cl) {
            ws.cl = std::make_unique<cluster::Cluster>(ccfg, bench.image());
            ws.runner = std::make_unique<cluster::CheckpointRunner>(*ws.cl);
        }
        cluster::Cluster& cl = *ws.cl;
        cluster::ClusterStats& credited = ws.credited;

        const std::size_t end = std::min<std::size_t>(cfg.injections, (t + 1) * per_task);
        for (std::size_t i = t * per_task; i < end; ++i) {
            FaultInjector inj(mix_seed(cfg.seed, i));
            InjectionRecord& rec = res.runs[i];
            rec.fault = inj.draw(universe);

            // Freshly loaded, the cluster stands at rung 0, the state the
            // ladder's compact rungs are materialized against. Loading is
            // done once per thread and campaign; restoring the saved load
            // costs a hundredth of a reset.
            if (ws.loaded_for != clean.id()) {
                cl.reset(ccfg, bench.image());
                bench.load_inputs(cl, ccfg.cores);
                cl.save(ws.loaded);
                ws.loaded_for = clean.id();
            } else {
                cl.restore(ws.loaded);
            }
            if (cfg.checkpoint) {
                // Generalized recovery: interval checkpoints, and any trap
                // (ECC double-bit, register parity, watchdog) re-executes
                // from the last one. Deterministic: the restored rung state
                // and the strike cycle fully determine every checkpoint.
                clean.restore_below(cl, rec.fault.cycle);
                cluster::CheckpointRunner& runner = *ws.runner;
                runner.reset({.interval = interval, .max_retries = 2, .parity_guard = true});
                runner.checkpoint(); // recovery point at the rung (pre-fault)
                runner.run(rec.fault.cycle);
                FaultInjector::apply(cl, rec.fault);
                rec.cycles = runner.run(bound);
                rec.rollbacks = runner.stats().rollbacks;
                rec.checkpoints = runner.stats().checkpoints;
                rec.reexec_cycles = runner.stats().reexec_cycles;
                classify_oneshot(cl, cl.stats(), bench, ccfg.cores, rec);
                continue;
            }

            // Every tier restores the rung below the strike; only the
            // batched engine rejoins.
            const StrikeEnd end = strike(cl, rec.fault, bound, &clean, rejoin, credited);
            rec.cycles = end.cycles;
            if (rejoin) {
                rec.batch_lockstep_cycles = clean.rung_cycle(end.rung);
                rec.batch_lane_peels = 1;
                ++rec.batch_peel_reasons[static_cast<unsigned>(peel_reason_of(rec.fault.kind))];
                if (end.rejoined) {
                    // Classified on the clean final state: exactly the
                    // state a standalone run would have reached.
                    rec.batch_lockstep_cycles += credited.cycles - cl.stats().cycles;
                    classify_oneshot(golden, credited, bench, ccfg.cores, rec);
                    continue;
                }
                const auto why = cl.stats().watchdog_trips > 0 ? cluster::PeelReason::Watchdog
                                                               : cluster::PeelReason::MemoBail;
                ++rec.batch_peel_reasons[static_cast<unsigned>(why)];
            }
            classify_oneshot(cl, cl.stats(), bench, ccfg.cores, rec);
        }
    });

    tally(res);
    return res;
}

CampaignResult run_streaming_campaign(const app::StreamingBenchmark& bench,
                                      cluster::ArchKind arch, const CampaignConfig& cfg,
                                      sweep::SweepRunner& pool) {
    ULPMC_EXPECTS(cfg.injections >= 1);
    CampaignResult res;
    res.arch = arch;
    res.cfg = cfg;

    const cluster::ClusterConfig ccfg = resilient_config(bench.base(), arch, cfg);
    // Batched engine: the fault-free stream is memoized (DESIGN.md §11) —
    // unperturbed blocks are credited from it instead of re-simulated. The
    // perturbs() predicate below mirrors the hook's early-return exactly,
    // which is what makes the credit sound.
    const bool batched = cfg.engine == cluster::SimEngine::Batched;

    Cycle clean_block = 0;
    // The checkpointed stream's clean-run ladder, captured once from the
    // reference run and shared read-only by every thread.
    std::optional<cluster::CleanRun> stream_clean;
    { // fault-free resilient reference
        const auto clean = !cfg.checkpoint ? bench.run_resilient(ccfg)
                           : batched       ? bench.capture_stream(ccfg, stream_clean)
                                           : bench.run_checkpointed(ccfg);
        ULPMC_EXPECTS(clean.rollbacks == 0 && clean.leads_dropped == 0);
        res.clean_cycles = clean.total_cycles;
        clean_block = clean.clean_block_cycles;
        res.energy_per_op = stream_energy_per_op(bench, arch, ccfg, clean.checkpoints, 1.0);
    }

    const FaultUniverse universe = // within-block strike cycle
        universe_of(bench.base().program(), bench.base(), ccfg.cores, clean_block, cfg);

    res.runs.resize(cfg.injections);
    pool.for_each_index(cfg.injections, [&](std::size_t i) {
        FaultInjector inj(mix_seed(cfg.seed, i));
        InjectionRecord rec;
        rec.fault = inj.draw(universe);
        const unsigned target_block = inj.rng().below(bench.n_blocks());
        // A quarter of the memory strikes model latched (hard) upsets: the
        // rollback retry re-hits them, which is what exercises lead-drop.
        const bool memory_fault = rec.fault.kind == FaultKind::ImBitFlip ||
                                  rec.fault.kind == FaultKind::DmBitFlip;
        const bool persistent = memory_fault && inj.rng().below(4) == 0;

        const auto perturbs = [&](unsigned block, unsigned attempt) {
            return (block == target_block && attempt == 0) ||
                   (persistent && block >= target_block);
        };
        const auto hook = [&](cluster::Cluster& cl, unsigned block, unsigned attempt) {
            if (!perturbs(block, attempt)) return;
            // run_resilient resets the cluster per attempt (cycle restarts
            // at 0); run_checkpointed's clock is continuous, so the strike
            // cycle is applied relative to the attempt's start.
            cl.run(cfg.checkpoint ? cl.stats().cycles + rec.fault.cycle : rec.fault.cycle);
            FaultInjector::apply(cl, rec.fault);
        };
        // Every path reuses the calibrated clean block.
        app::StreamingBenchmark::ResilientOutcome ro;
        if (!cfg.checkpoint) {
            ro = bench.run_resilient(ccfg, hook,
                                     batched ? perturbs : app::StreamingBenchmark::BlockPerturbed{},
                                     clean_block);
        } else if (batched) {
            ro = bench.run_checkpointed(ccfg, hook, perturbs, *stream_clean, clean_block);
        } else {
            ro = bench.run_checkpointed(ccfg, hook, clean_block);
        }

        classify_stream(ro, rec);
        rec.batch_lockstep_cycles = ro.memoized_cycles;
        if (batched) { // one "peel" = the struck block actually simulated
            rec.batch_lane_peels = 1;
            rec.batch_peel_reasons[static_cast<unsigned>(peel_reason_of(rec.fault.kind))] = 1;
        }
        res.runs[i] = std::move(rec);
    });

    tally(res);
    return res;
}

CampaignResult run_adaptive_campaign(const app::StreamingBenchmark& bench,
                                     cluster::ArchKind arch, const CampaignConfig& cfg,
                                     sweep::SweepRunner& pool) {
    ULPMC_EXPECTS(cfg.injections >= 1);
    ULPMC_EXPECTS(cfg.lambda_low >= 0.0 && cfg.lambda_high >= 0.0);
    CampaignResult res;
    res.arch = arch;
    res.cfg = cfg;

    const cluster::ClusterConfig ccfg = resilient_config(bench.base(), arch, cfg);
    // End-of-stream verification: every block recomputes the same outputs,
    // so the final state must hold the single-block golden bitstream on
    // every lead.
    const auto leads_ok = [&](const cluster::Cluster& cl) {
        for (unsigned p = 0; p < ccfg.cores; ++p)
            if (!bench.base().lead_ok(cl, p)) return false;
        return true;
    };

    { // fault-free continuous reference: cycle count and energy
        cluster::Cluster& cl = cluster::pooled_cluster(ccfg, bench.image());
        bench.base().load_inputs(cl, ccfg.cores);
        res.clean_cycles = cl.run(static_cast<Cycle>(bench.n_blocks()) * 400'000);
        ULPMC_EXPECTS(leads_ok(cl));
        res.energy_per_op = clean_energy_per_op(arch, cl.stats());
    }

    const FaultUniverse universe =
        universe_of(bench.program(), bench.base(), ccfg.cores, res.clean_cycles, cfg);

    const Cycle bound = cluster::hang_bound(ccfg, res.clean_cycles);
    const auto phase_split =
        static_cast<Cycle>(kLambdaSplit * static_cast<double>(res.clean_cycles));

    const cluster::CheckpointConfig rcfg{
        .interval = cfg.checkpoint_interval,
        // A high-rate phase can land several detectable strikes inside one
        // (long) interval; each rolls back individually, so the retry
        // budget must cover the burst rather than flag it deterministic.
        .max_retries = 8,
        .parity_guard = true,
        .adaptive = cfg.adaptive_checkpoint,
        // A rollback can never discard more than one interval; the default
        // 100k-cycle ceiling is longer than a whole burst phase of this
        // stream, so bound detection latency (and the interval the
        // controller parks at while the environment is quiet) to ~1% of
        // the run instead.
        .max_interval = std::min<Cycle>(4000, std::max<Cycle>(1000, res.clean_cycles / 32)),
    };

    res.runs.resize(cfg.injections);
    std::vector<std::uint64_t> updates(cfg.injections, 0);
    pool.for_each_index(cfg.injections, [&](std::size_t i) {
        FaultInjector inj(mix_seed(cfg.seed, i));
        InjectionRecord rec;
        rec.strikes = 0;

        cluster::Cluster cl(ccfg, bench.image());
        bench.base().load_inputs(cl, ccfg.cores);
        cluster::CheckpointRunner runner(cl);
        runner.reset(rcfg);

        // Piecewise-constant Poisson process on the strike schedule (not
        // the rollback-rewound clock). A draw that crosses the phase
        // boundary is redrawn FROM the boundary at the new rate —
        // memorylessness makes that exact; carrying a quiet-phase gap
        // (mean 1/lambda_low) into the burst would thin its strikes.
        const auto draw_gap = [&](double lam) -> Cycle {
            if (lam <= 0.0) return bound; // pushes the next strike past the end
            const double u = 1.0 - inj.rng().uniform(); // (0, 1]
            return std::max<Cycle>(1, static_cast<Cycle>(-std::log(u) / lam));
        };
        const auto next_strike = [&](Cycle now) -> Cycle {
            if (now < phase_split) {
                const Cycle t = now + draw_gap(cfg.lambda_low);
                if (t < phase_split) return t;
                now = phase_split; // crossed into the burst: redraw there
            }
            return now + draw_gap(cfg.lambda_high);
        };

        bool first = true;
        for (Cycle next = next_strike(0); next < bound; next = next_strike(next)) {
            runner.run(next);
            if (runner.stats().gave_up) break;
            if (cl.stats().cycles < next) break; // stream quiesced early
            // Strikes are TRANSIENT: deposited once at their scheduled
            // cycle; a rollback that rewinds past one does not re-apply it
            // (the re-execution is the clean, particle-free replay).
            FaultSpec f = inj.draw(universe);
            f.cycle = next;
            FaultInjector::apply(cl, f);
            if (first) rec.fault = f;
            first = false;
            ++rec.strikes;
        }
        if (!runner.stats().gave_up) runner.run(bound);

        rec.cycles = cl.stats().cycles;
        rec.rollbacks = runner.stats().rollbacks;
        rec.checkpoints = runner.stats().checkpoints;
        rec.reexec_cycles = runner.stats().reexec_cycles;
        updates[i] = runner.stats().interval_updates;
        // A runner that gave up left a core trapped, and maybe others still
        // running: the give-up is the verdict, not a hang.
        classify_oneshot(cl, cl.stats(), ccfg.cores, rec, [&] { return leads_ok(cl); });
        if (runner.stats().gave_up) rec.outcome = Outcome::Trapped;
        res.runs[i] = std::move(rec);
    });

    tally(res, [&](std::size_t i) {
        res.strikes += res.runs[i].strikes;
        res.interval_updates += updates[i];
    });
    // The policy's overhead in the calibrated energy model: every save
    // streams cores x kCheckpointWordsPerCore words at kCheckpointWordEnergy
    // each, every re-executed cycle burns the cluster's core energy — the
    // exact two cost terms the adaptive controller optimizes (DESIGN.md
    // §9), evaluated on what actually happened.
    const double save_energy = ccfg.cores *
                               static_cast<double>(power::cal::kCheckpointWordsPerCore) *
                               power::cal::kCheckpointWordEnergy;
    const double cycle_energy =
        static_cast<double>(ccfg.cores) * power::cal::kCoreEnergyPerOp;
    res.overhead_energy = static_cast<double>(res.checkpoints) * save_energy +
                          static_cast<double>(res.reexec_cycles) * cycle_energy;
    return res;
}

CampaignResult run_storage_campaign(const app::StreamingBenchmark& bench,
                                    cluster::ArchKind arch, const CampaignConfig& cfg,
                                    const StorageCampaignOptions& opts,
                                    sweep::SweepRunner& pool) {
    ULPMC_EXPECTS(cfg.injections >= 1);
    ULPMC_EXPECTS(cfg.checkpoint);
    CampaignResult res;
    res.arch = arch;
    res.cfg = cfg;

    const cluster::ClusterConfig ccfg = resilient_config(bench.base(), arch, cfg);

    const app::StreamingBenchmark::DurableOptions clean_durable{.storage = opts.storage,
                                                                .strike = {}};

    Cycle clean_block = 0;
    double stored_ratio = 1.0;
    { // fault-free durable reference: cycles, byte ratio, injection window
        const auto clean = bench.run_checkpointed(ccfg, {}, clean_durable);
        ULPMC_EXPECTS(clean.rollbacks == 0 && clean.leads_dropped == 0);
        res.clean_cycles = clean.total_cycles;
        clean_block = clean.clean_block_cycles;
        if (clean.ckpt_full_bytes > 0) {
            stored_ratio = static_cast<double>(clean.ckpt_stored_bytes) /
                           static_cast<double>(clean.ckpt_full_bytes);
        }
        // The checkpoint traffic term is scaled by the bytes the store
        // ACTUALLY persists, which is where delta encoding pays off.
        res.energy_per_op =
            stream_energy_per_op(bench, arch, ccfg, clean.checkpoints, stored_ratio);
    }

    // The storage fault target: payload words of one full keyframe record
    // of this exact cluster geometry (delta records are smaller; draws are
    // wrapped into the struck record's extent by corrupt()).
    std::uint64_t keyframe_words = 0;
    {
        cluster::Cluster& cl = cluster::pooled_cluster(ccfg, bench.base().image());
        bench.base().load_inputs(cl, ccfg.cores);
        cluster::Cluster::Snapshot snap;
        cl.save(snap);
        cluster::CheckpointStorage probe;
        probe.reset({.delta = false, .keyframe_interval = 1});
        probe.store(snap);
        keyframe_words = probe.payload_words(0);
    }

    const FaultUniverse universe = // within-block strike cycle
        universe_of(bench.base().program(), bench.base(), ccfg.cores, clean_block, cfg);

    FaultUniverse storage_universe;
    storage_universe.cores = 1;
    storage_universe.window = 1; // strike lands at the boundary, not a cycle
    storage_universe.kinds = kCkptFaultKinds;
    storage_universe.ckpt_words = keyframe_words;
    storage_universe.flip_bits = cfg.flip_bits;
    storage_universe.burst_len = cfg.burst_len;

    res.runs.resize(cfg.injections);
    struct StoreAgg {
        std::uint64_t stored = 0, full = 0, crc = 0, fallbacks = 0;
    };
    std::vector<StoreAgg> aggs(cfg.injections);
    pool.for_each_index(cfg.injections, [&](std::size_t i) {
        FaultInjector inj(mix_seed(cfg.seed, i));
        InjectionRecord rec;
        rec.fault = inj.draw(universe);
        const unsigned target_block = inj.rng().below(bench.n_blocks());
        FaultSpec storage_fault{};
        if (opts.storage_strikes) storage_fault = inj.draw(storage_universe);

        // Both strikes are single particles: deposited exactly once, even
        // when a keyframe fallback rewinds the stream back over the
        // struck block (the rewound re-execution is the clean replay).
        bool exec_struck = false;
        bool storage_struck = false;
        const auto hook = [&](cluster::Cluster& cl, unsigned block, unsigned attempt) {
            if (block != target_block || attempt != 0 || exec_struck) return;
            exec_struck = true;
            cl.run(cl.stats().cycles + rec.fault.cycle);
            FaultInjector::apply(cl, rec.fault);
        };
        app::StreamingBenchmark::DurableOptions durable{.storage = opts.storage, .strike = {}};
        if (opts.storage_strikes) {
            durable.strike = [&](cluster::CheckpointStorage& store, unsigned block) {
                // The record strike lands the moment the struck block's
                // boundary checkpoint is persisted — the very record the
                // execution strike's rollback then tries to consume.
                if (block != target_block || storage_struck) return;
                storage_struck = true;
                FaultInjector::apply(store, storage_fault);
            };
        }
        const auto ro = bench.run_checkpointed(ccfg, hook, durable, clean_block);

        classify_stream(ro, rec);
        aggs[i] = {ro.ckpt_stored_bytes, ro.ckpt_full_bytes, ro.ckpt_crc_failures,
                   ro.ckpt_fallbacks};
        res.runs[i] = std::move(rec);
    });

    tally(res, [&](std::size_t i) {
        res.ckpt_stored_bytes += aggs[i].stored;
        res.ckpt_full_bytes += aggs[i].full;
        res.ckpt_crc_failures += aggs[i].crc;
        res.ckpt_fallbacks += aggs[i].fallbacks;
    });
    return res;
}

} // namespace ulpmc::fault
