#include "app/streaming.hpp"

#include <algorithm>

#include "cluster/checkpoint.hpp"
#include "cluster/pool.hpp"
#include "common/assert.hpp"

namespace ulpmc::app {

StreamingBenchmark::StreamingBenchmark(const BenchmarkOptions& opt, unsigned n_blocks)
    : base_(opt), n_blocks_(n_blocks),
      program_(build_streaming_program(base_.matrix(), base_.table(), base_.layout(), n_blocks)),
      image_(isa::ProgramImage::build(program_)) {
    ULPMC_EXPECTS(n_blocks >= 1);
}

StreamingBenchmark::Outcome StreamingBenchmark::run(cluster::ArchKind arch) const {
    return run(cluster::make_config(arch, base_.layout().dm_layout()));
}

StreamingBenchmark::Outcome StreamingBenchmark::run(const cluster::ClusterConfig& cfg_in) const {
    cluster::ClusterConfig cfg = cfg_in;
    cfg.barrier_enabled = base_.layout().use_barrier;

    cluster::Cluster& cl = cluster::pooled_cluster(cfg, image_);
    base_.load_inputs(cl, cfg.cores);

    cl.run(static_cast<Cycle>(n_blocks_) * 400'000);

    Outcome out;
    out.stats = cl.stats();
    // Every block recomputes the same outputs; verify the final state.
    out.verified = true;
    for (unsigned p = 0; p < cfg.cores; ++p) out.verified = out.verified && base_.lead_ok(cl, p);

    out.cycles_per_block = static_cast<double>(out.stats.cycles) / n_blocks_;
    const std::uint64_t served = out.stats.ixbar.grants;
    out.fetch_merge_ratio =
        served == 0 ? 0.0
                    : static_cast<double>(out.stats.ixbar.broadcast_riders) /
                          static_cast<double>(served);
    return out;
}

StreamingBenchmark::ResilientOutcome
StreamingBenchmark::run_resilient(const cluster::ClusterConfig& cfg_in, const BlockFaultHook& hook,
                                  const BlockPerturbed& perturbed,
                                  Cycle known_clean_block) const {
    cluster::ClusterConfig cfg = cfg_in;
    cfg.barrier_enabled = base_.layout().use_barrier;

    // One block = one checkpoint interval, executed on the single-block
    // program; re-initializing the cluster from the program image IS the
    // rollback (block inputs are replayed from the sensor FIFO). One
    // cluster instance serves every attempt of every block: reset() reuses
    // its buffers, so the monitor's steady state allocates nothing.
    cluster::Cluster cl(cfg, base_.image());
    bool first_launch = true;
    const auto launch_block = [&]() -> cluster::Cluster& {
        if (!first_launch) cl.reset(cfg, base_.image());
        first_launch = false;
        base_.load_inputs(cl, cfg.cores);
        return cl;
    };

    ResilientOutcome out;
    out.lead_alive.assign(cfg.cores, 1);

    if (known_clean_block != 0) {
        // Caller has already calibrated (and validated) the reference
        // block — the campaign paths, once per campaign.
        out.clean_block_cycles = known_clean_block;
    } else { // fault-free reference block: calibrates the per-attempt cycle budget
        cluster::Cluster& ref = launch_block();
        out.clean_block_cycles = ref.run();
        for (unsigned p = 0; p < cfg.cores; ++p) ULPMC_EXPECTS(base_.lead_ok(ref, p));
    }
    // A wedged attempt must terminate.
    const Cycle budget = cluster::hang_bound(cfg, out.clean_block_cycles);

    for (unsigned block = 0; block < n_blocks_; ++block) {
        if (perturbed && !perturbed(block, 0)) {
            // Unperturbed first attempt: the cluster is re-initialized per
            // block, so this attempt is bit-identical to the fault-free
            // reference block — it verifies on every live lead and commits.
            // Credit it instead of simulating it (exact by determinism;
            // the clean block fires no protection events, so the
            // resilience counters gain nothing either).
            out.total_cycles += out.clean_block_cycles;
            out.memoized_cycles += out.clean_block_cycles;
            ++out.blocks;
            continue;
        }
        for (unsigned attempt = 0; attempt < 2; ++attempt) {
            cluster::Cluster& att = launch_block();
            if (hook) hook(att, block, attempt);
            att.run(budget);

            const auto& st = att.stats();
            out.total_cycles += st.cycles;
            out.ecc_corrected += st.ecc_corrected();
            out.watchdog_trips += st.watchdog_trips;
            out.xbar_selfchecks += st.xbar_selfchecks();
            out.im_scrub_corrected += st.im_scrub_corrected;

            std::vector<unsigned> corrupted;
            for (unsigned p = 0; p < cfg.cores; ++p) {
                if (out.lead_alive[p] && !base_.lead_ok(att, p)) corrupted.push_back(p);
            }
            if (corrupted.empty()) break; // block verified: commit checkpoint
            if (attempt == 0) {
                ++out.rollbacks; // roll back to the checkpoint, re-execute
                continue;
            }
            // Retry failed too: the corruption is persistent — degrade by
            // dropping the broken leads, keep monitoring the rest.
            for (const unsigned p : corrupted) {
                out.lead_alive[p] = 0;
                ++out.leads_dropped;
            }
        }
        ++out.blocks;
    }

    // The final committed state must be bit-exact on every surviving lead;
    // re-verify via the last attempt's semantics: any lead still alive had
    // lead_ok() true when its block committed, so corruption can only show
    // as zero survivors.
    bool any_alive = false;
    for (const auto a : out.lead_alive) any_alive = any_alive || a != 0;
    out.all_surviving_verified = any_alive;
    return out;
}

StreamingBenchmark::ResilientOutcome
StreamingBenchmark::run_checkpointed(const cluster::ClusterConfig& cfg_in,
                                     const BlockFaultHook& hook, Cycle known_clean_block) const {
    return run_checkpointed_impl(cfg_in, hook, nullptr, nullptr, known_clean_block, nullptr);
}

StreamingBenchmark::ResilientOutcome
StreamingBenchmark::run_checkpointed(const cluster::ClusterConfig& cfg_in,
                                     const BlockFaultHook& hook,
                                     const DurableOptions& durable,
                                     Cycle known_clean_block) const {
    return run_checkpointed_impl(cfg_in, hook, nullptr, nullptr, known_clean_block, nullptr,
                                 &durable);
}

StreamingBenchmark::ResilientOutcome
StreamingBenchmark::capture_stream(const cluster::ClusterConfig& cfg_in,
                                   std::optional<cluster::CleanRun>& clean) const {
    const ResilientOutcome out = run_checkpointed_impl(cfg_in, {}, nullptr, nullptr, 0, &clean);
    ULPMC_EXPECTS(out.rollbacks == 0 && out.leads_dropped == 0);
    return out;
}

StreamingBenchmark::ResilientOutcome
StreamingBenchmark::run_checkpointed(const cluster::ClusterConfig& cfg_in,
                                     const BlockFaultHook& hook, const BlockPerturbed& perturbed,
                                     const cluster::CleanRun& clean,
                                     Cycle known_clean_block) const {
    ULPMC_EXPECTS(clean.final_rung() == n_blocks_);
    return run_checkpointed_impl(cfg_in, hook, &perturbed, &clean, known_clean_block, nullptr);
}

StreamingBenchmark::ResilientOutcome
StreamingBenchmark::run_checkpointed_impl(const cluster::ClusterConfig& cfg_in,
                                          const BlockFaultHook& hook,
                                          const BlockPerturbed* perturbed,
                                          const cluster::CleanRun* memo,
                                          Cycle known_clean_block,
                                          std::optional<cluster::CleanRun>* capture,
                                          const DurableOptions* durable) const {
    const bool durable_on = durable != nullptr;
    // The memoized clean stream assumes every rollback restores the block
    // being retried; keyframe fallback breaks that, so durable storage is
    // a trace-path feature.
    ULPMC_EXPECTS(!(durable_on && (memo != nullptr || capture != nullptr)));
    cluster::ClusterConfig cfg = cfg_in;
    cfg.barrier_enabled = base_.layout().use_barrier;
    const auto& lay = base_.layout();

    ResilientOutcome out;
    out.lead_alive.assign(cfg.cores, 1);

    if (known_clean_block != 0) {
        out.clean_block_cycles = known_clean_block; // the caller calibrated it
    } else { // fault-free single-block reference: calibrates the attempt budget
        cluster::Cluster& ref = cluster::pooled_cluster(cfg, base_.image());
        base_.load_inputs(ref, cfg.cores);
        out.clean_block_cycles = ref.run();
    }
    const Cycle budget = cluster::hang_bound(cfg, out.clean_block_cycles);
    // Completion is polled at slice granularity. The slice must be much
    // shorter than the CS kernel: after the last lead finishes block b the
    // cluster overshoots by at most one slice into block b+1, and block
    // b's outputs are only safe to verify while b+1 is still inside CS
    // (Huffman is what rewrites the output window). The first slice also
    // guarantees the firmware has initialized its block counter before
    // the counter is ever consulted.
    const Cycle slice = std::max<Cycle>(out.clean_block_cycles / 64, 64);
    const auto counter_addr = static_cast<Addr>(lay.frame_base() + 2);

    // ONE cluster instance runs the whole multi-block program; the
    // checkpoint service snapshots it at every block boundary.
    cluster::Cluster cl(cfg, image_);
    base_.load_inputs(cl, cfg.cores);
    // Block 0's top is the freshly loaded cluster: the capture's rung 0.
    if (capture) capture->emplace(cluster::CleanRun::begin(cl));
    cluster::CheckpointRunner runner(cl);
    // Explicit block-boundary checkpoints; per-lead verification and the
    // drop policy live here, so the runner's global parity guard is off
    // (a latent parity upset is attributed to its lead below instead).
    runner.reset({.interval = 0,
                  .max_retries = 2,
                  .parity_guard = false,
                  .delta_store = durable_on,
                  .storage = durable_on ? durable->storage : cluster::CkptStorageConfig{}});
    // Maps each block boundary to its checkpoint cycle, so a keyframe
    // fallback (which restores an OLDER boundary) can be translated back
    // into the block index to rewind to.
    std::vector<Cycle> boundary_cycle(durable_on ? n_blocks_ : 0, 0);

    // Block `block` is finished on lead p once its countdown dropped to
    // n_blocks - (block+1) (or the core halted after the last block).
    const auto block_remaining = [&](unsigned block) {
        return static_cast<Word>(n_blocks_ - (block + 1));
    };
    const auto lead_failed = [&](unsigned p, unsigned block) {
        const auto pid = static_cast<CoreId>(p);
        if (cl.core_trap(pid) != core::Trap::None) return true;
        if (cl.reg_parity_pending(pid)) return true; // latched detectable upset
        const bool last = block + 1 == n_blocks_;
        if (cl.core_halted(pid)) {
            if (!last) return true; // halted early: control flow corrupted
        } else if (cl.dm_peek(pid, counter_addr) > block_remaining(block)) {
            return true; // never finished the block inside the budget
        }
        return !base_.bitstream_ok(cl, p);
    };
    const auto settled = [&](unsigned block) {
        for (unsigned p = 0; p < cfg.cores; ++p) {
            if (!out.lead_alive[p]) continue;
            const auto pid = static_cast<CoreId>(p);
            if (cl.core_trap(pid) != core::Trap::None || cl.core_halted(pid)) continue;
            if (cl.dm_peek(pid, counter_addr) > block_remaining(block)) return false;
        }
        return true;
    };
    const auto any_active = [&] {
        for (unsigned p = 0; p < cfg.cores; ++p) {
            const auto pid = static_cast<CoreId>(p);
            if (cl.core_trap(pid) == core::Trap::None && !cl.core_halted(pid)) return true;
        }
        return false;
    };

    // Resilience counters accumulate across attempts, but restore() rolls
    // the cluster's own statistics back with everything else — so each
    // attempt's delta is banked against a baseline sampled at its start.
    const auto bank = [&](const cluster::ClusterStats& now, const cluster::ClusterStats& since) {
        out.ecc_corrected += now.ecc_corrected() - since.ecc_corrected();
        out.reg_parity_traps += now.reg_parity_traps - since.reg_parity_traps;
        out.reg_tmr_votes += now.reg_tmr_votes - since.reg_tmr_votes;
        out.watchdog_trips += now.watchdog_trips - since.watchdog_trips;
        out.xbar_selfchecks += now.xbar_selfchecks() - since.xbar_selfchecks();
        out.im_scrub_corrected += now.im_scrub_corrected - since.im_scrub_corrected;
    };
    cluster::ClusterStats base;
    const auto sample_base = [&] { base = cl.stats(); };
    const auto bank_deltas = [&] { bank(cl.stats(), base); };

    // Memoized replay: the injection's clean prefix — every block before
    // the first perturbed one — IS the fault-free stream, so restore that
    // block's rung (stats and all) instead of simulating the prefix.
    // Exact: the restored state, the committed-block count and the later
    // lead_failed() block arithmetic all line up by determinism.
    const bool memoized = memo && perturbed && *perturbed;
    unsigned start_block = 0;
    if (memoized) {
        while (start_block + 1 < n_blocks_ && !(*perturbed)(start_block, 0)) ++start_block;
        memo->restore_below(cl, memo->rung_cycle(start_block));
        out.memoized_cycles = cl.stats().cycles;
        out.blocks = start_block;
    }

    // Tail rejoin (DESIGN.md §11): after the last perturbed block commits,
    // the remaining attempts are by contract a no-op for the hook — so if
    // the continuous state has converged back onto the fault-free stream
    // (a rollback restored the clean checkpoint, or the upset was ECC-
    // corrected / overwritten in place), the tail IS the memoized clean
    // run. CleanRun::matches() at the next block top is the proof;
    // divergent state (latent upsets, dropped leads) simulates the tail as
    // before.
    unsigned last_perturbed = 0;
    if (memoized) {
        for (unsigned b = 0; b < n_blocks_; ++b)
            if ((*perturbed)(b, 0) || (*perturbed)(b, 1)) last_perturbed = b;
    }
    Cycle tail_cycles = 0;
    std::uint64_t tail_checkpoints = 0;
    bool tail_skipped = false;

    std::vector<unsigned> corrupted;
    for (unsigned block = start_block; block < n_blocks_;) {
        if (capture && block > 0) (*capture)->append(cl);
        // Block boundary = recovery point. The runner owns the pre-save
        // register scrub (checkpoint() sweeps the files through the
        // protection layer before saving — DESIGN.md §9), so the base is
        // sampled first: the scrub's TMR votes belong to this block's
        // banked delta, exactly like the per-attempt repairs used to.
        sample_base();
        runner.checkpoint();
        if (durable_on) {
            boundary_cycle[block] = runner.checkpoint_cycle();
            if (durable->strike) durable->strike(runner.storage(), block);
        }
        // Tail rejoin is tested AFTER the checkpoint: the service's sweep
        // is what repairs a protected register (TMR vote, parity scrub),
        // so a corrected strike converges exactly here — and on clean
        // state the sweep is architecturally a no-op, which is what makes
        // the pre-checkpoint rung the right reference.
        if (memoized && block > last_perturbed && memo->matches(cl, block)) {
            bank_deltas(); // the sweep's own repairs belong to this injection
            // The clean stream never rolls back, so its banked counters at
            // any point are its cluster statistics there: the tail is
            // final minus this rung.
            bank(memo->final_stats(), memo->rung_stats(block));
            tail_cycles = memo->cycles() - memo->rung_cycle(block);
            out.memoized_cycles += tail_cycles;
            // Clean tail: one checkpoint per remaining block plus the
            // final stream-commit checkpoint; no rollbacks, no drops.
            tail_checkpoints = n_blocks_ - block;
            out.blocks = n_blocks_;
            tail_skipped = true;
            break;
        }
        bool rewound = false;
        for (unsigned attempt = 0; attempt < 2; ++attempt) {
            if (attempt > 0) sample_base(); // rollback rewound the counters
            if (hook) hook(cl, block, attempt);
            const Cycle limit = runner.checkpoint_cycle() + budget;
            do {
                cl.run(std::min(limit, cl.stats().cycles + slice));
            } while (cl.stats().cycles < limit && any_active() && !settled(block));

            bank_deltas();
            corrupted.clear();
            for (unsigned p = 0; p < cfg.cores; ++p) {
                if (out.lead_alive[p] && lead_failed(p, block)) corrupted.push_back(p);
            }
            if (corrupted.empty()) break; // block verified: commit
            if (attempt == 0) {
                const std::uint64_t fb0 =
                    durable_on ? runner.storage().stats().keyframe_fallbacks : 0;
                runner.rollback(); // re-execute the block from its checkpoint
                if (durable_on && runner.stats().gave_up) {
                    // Every stored record failed verification: a detected,
                    // unrecoverable storage loss. Fail stop.
                    out.storage_exhausted = true;
                    break;
                }
                if (durable_on && runner.storage().stats().keyframe_fallbacks > fb0) {
                    // CRC rejected the newest record(s): the restore landed
                    // on an OLDER boundary. Rewind the block loop there and
                    // re-execute — the discarded commits come off the count
                    // and are re-earned.
                    unsigned b = block;
                    while (b > 0 && boundary_cycle[b] != runner.checkpoint_cycle()) --b;
                    out.blocks -= block - b;
                    block = b;
                    rewound = true;
                    break;
                }
                continue;
            }
            // Retry failed too: persistent corruption — degrade by dropping
            // the broken leads, keep monitoring the rest.
            for (const unsigned p : corrupted) {
                out.lead_alive[p] = 0;
                ++out.leads_dropped;
            }
        }
        if (out.storage_exhausted) break;
        if (rewound) continue; // loop top re-checkpoints the restored state
        ++out.blocks;
        ++block;
    }

    if (!tail_skipped && !out.storage_exhausted) {
        // Drain: let the last block's stragglers reach their hlt (a dropped
        // lead that diverged is reined in by the watchdog).
        const Cycle drain_limit = cl.stats().cycles + cfg.watchdog_cycles + 1000;
        sample_base();
        while (any_active() && cl.stats().cycles < drain_limit)
            cl.run(std::min(drain_limit, cl.stats().cycles + slice));
        // Stream commit point: one final checkpoint scrubs (and under TMR
        // vote-repairs) upsets deposited during the last block, so the run
        // ends with clean architectural state — previously the job of the
        // now-removed per-attempt scrub call.
        runner.checkpoint();
        bank_deltas();
    }
    if (capture) (*capture)->append(cl); // the final rung: after the commit point

    out.rollbacks = static_cast<unsigned>(runner.stats().rollbacks);
    // The skipped prefix took one (clean) checkpoint per block boundary,
    // the credited tail one per remaining block plus the commit point.
    out.checkpoints = runner.stats().checkpoints + start_block + tail_checkpoints;
    out.reexec_cycles = runner.stats().reexec_cycles;
    // restore() brought the prefix's cycle counter along, so the total
    // already includes the memoized prefix; the credited tail is added.
    out.total_cycles = cl.stats().cycles + runner.stats().reexec_cycles + tail_cycles;
    // A rejoined run matched the clean stream, which never holds a struck
    // register, and its credited tail strikes none.
    out.latent_reg_faults = cl.pending_reg_faults();
    if (durable_on) {
        const cluster::CkptStorageStats& ss = runner.storage().stats();
        out.ckpt_stored_bytes = ss.stored_bytes;
        out.ckpt_full_bytes = ss.full_equiv_bytes;
        out.ckpt_crc_failures = ss.crc_failures;
        out.ckpt_fallbacks = ss.keyframe_fallbacks;
    }

    bool any_alive = false;
    for (const auto a : out.lead_alive) any_alive = any_alive || a != 0;
    out.all_surviving_verified = any_alive && !out.storage_exhausted;
    return out;
}

} // namespace ulpmc::app
