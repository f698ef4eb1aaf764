#include "cluster/checkpoint.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "power/calibration.hpp"

namespace ulpmc::cluster {

void CheckpointRunner::reset(const CheckpointConfig& cfg) {
    cfg_ = cfg;
    stats_ = {};
    has_ckpt_ = false;
    snap_cycle_ = 0;
    retries_ = 0;
    est_.reset();
    cur_interval_ = cfg.adaptive && cfg.interval == 0 ? cfg.max_interval : cfg.interval;
    if (cfg.adaptive) stats_.current_interval = cur_interval_;
    if (cfg.delta_store) storage_.reset(cfg.storage);
    base_events_ = 0;
    base_cycle_ = 0;
    replay_debt_ = 0;
}

bool CheckpointRunner::checkpoint() {
    // Anchor the next observation window BEFORE the scrub: the repairs the
    // scrub itself performs (TMR vote-outs of latent upsets) are upset
    // events, and anchoring after them would absorb them into the new base
    // so the estimator never hears about that whole detection channel.
    // Time does not advance inside checkpoint(), so the anchor cycle is
    // the same either way.
    rebase_window();
    cl_.scrub_registers();
    if (cfg_.parity_guard && cl_.reg_parity_pending() && has_ckpt_) {
        // The parity sweep found a latched (detectable) upset: the state
        // about to be saved is corrupt. Recover from the previous good
        // checkpoint rather than immortalizing the corruption. No
        // protection counter ever sees this upset (the trap would only
        // fire on a read), yet it costs a full rollback — report it to
        // the rate estimator as one event at the current silence.
        if (cfg_.adaptive) est_.observe(1, 0);
        rollback();
        return false;
    }
    cl_.save(snap_);
    if (cfg_.delta_store) storage_.store(snap_);
    snap_cycle_ = cl_.stats().cycles;
    has_ckpt_ = true;
    retries_ = 0;
    ++stats_.checkpoints;
    return true;
}

void CheckpointRunner::rollback() {
    ULPMC_EXPECTS(has_ckpt_);
    if (cfg_.delta_store) {
        // Restore what the STORE holds, not the in-memory snapshot: the
        // newest intact record, decoded from its payload bytes, possibly
        // an older keyframe when CRC verification rejected the newest.
        if (!storage_.load(snap_)) {
            // Every record failed verification — a detected, unrecoverable
            // storage loss. Fail stop: leave the cluster for the caller to
            // classify rather than restore known-corrupt state.
            stats_.storage_exhausted = true;
            stats_.gave_up = true;
            ++retries_;
            return;
        }
        // A fallback restore lands at an OLDER cycle than the in-memory
        // snapshot; charge the re-execution from there.
        snap_cycle_ = snap_.saved_cycle();
    }
    const Cycle now = cl_.stats().cycles;
    if (now > snap_cycle_) {
        stats_.reexec_cycles += now - snap_cycle_;
        // The discarded span re-executes and would be measured twice by
        // the observation windows; the debt discounts it as it replays.
        replay_debt_ += now - snap_cycle_;
    }
    ++stats_.rollbacks;
    ++retries_;
    cl_.restore(snap_);
    // restore() rewound the counters the observation window differences;
    // re-anchor it at the restored state (observe_and_retune() has already
    // consumed the pre-rollback delta when the controller is adaptive).
    rebase_window();
}

bool CheckpointRunner::any_trap() const {
    for (unsigned p = 0; p < cl_.config().cores; ++p)
        if (cl_.core_trap(static_cast<CoreId>(p)) != core::Trap::None) return true;
    return false;
}

bool CheckpointRunner::any_running() const {
    for (unsigned p = 0; p < cl_.config().cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        if (cl_.core_trap(pid) == core::Trap::None && !cl_.core_halted(pid)) return true;
    }
    return false;
}

void CheckpointRunner::rebase_window() {
    if (!cfg_.adaptive) return;
    const ClusterStats& s = cl_.stats();
    base_events_ = s.upset_events();
    base_cycle_ = s.cycles;
}

Cycle CheckpointRunner::solve_interval(double lambda) const {
    // DESIGN.md §9: the expected energy per checkpoint period is the save
    // cost (cores * W words at E_word each) plus the expected re-execution
    // loss (lambda * T * T/2 cycles at E_cycle each, for upsets uniform in
    // the interval). d/dT = 0 gives
    //   T* = sqrt(2 * cores * W * E_word / (lambda * E_cycle))
    // with W, E_word and E_cycle = cores * E_op from power::cal. lambda -> 0
    // pushes T* to infinity; the clamp keeps detection latency bounded.
    if (lambda <= 0.0) return cfg_.max_interval;
    const double cores = static_cast<double>(cl_.config().cores);
    double save_words = cores * power::cal::kCheckpointWordsPerCore;
    double word_energy = power::cal::kCheckpointWordEnergy;
    if (cfg_.delta_store) {
        // Deltas store only the dirty words; scale the save cost by the
        // observed stored/full byte ratio so the solve sees the cheaper
        // saves (DESIGN.md §9.6 revised T* math).
        const CkptStorageStats& ss = storage_.stats();
        if (ss.full_equiv_bytes > 0)
            save_words *= static_cast<double>(ss.stored_bytes) /
                          static_cast<double>(ss.full_equiv_bytes);
        word_energy = power::cal::kCheckpointDeltaWordEnergy;
    }
    const double save_energy = 2.0 * save_words * word_energy;
    const double e_cycle = cores * power::cal::kCoreEnergyPerOp;
    const double t = std::sqrt(save_energy / (lambda * e_cycle));
    if (t <= static_cast<double>(kMinCheckpointInterval)) return kMinCheckpointInterval;
    if (t >= static_cast<double>(cfg_.max_interval)) return cfg_.max_interval;
    return static_cast<Cycle>(t);
}

void CheckpointRunner::observe_and_retune() {
    if (!cfg_.adaptive) return;
    const ClusterStats& s = cl_.stats();
    const std::uint64_t events = s.upset_events() - base_events_;
    Cycle elapsed = s.cycles - base_cycle_;
    // Replayed cycles re-measure program time a previous window already
    // consumed; lambda lives in program time, so discount them.
    const Cycle discount = std::min(replay_debt_, elapsed);
    elapsed -= discount;
    replay_debt_ -= discount;
    est_.observe(events, elapsed);
    const Cycle solved = solve_interval(est_.lambda_hat());
    const auto cur = static_cast<double>(cur_interval_);
    if (std::abs(static_cast<double>(solved) - cur) > kIntervalHysteresis * cur) {
        cur_interval_ = solved;
        ++stats_.interval_updates;
    }
    stats_.current_interval = cur_interval_;
    stats_.lambda_hat = est_.lambda_hat();
}

Cycle CheckpointRunner::run(Cycle bound) {
    if (!has_ckpt_) checkpoint();
    for (;;) {
        const Cycle now = cl_.stats().cycles;
        if (now >= bound) break;
        Cycle target = bound;
        const Cycle interval = effective_interval();
        if (interval > 0) {
            const Cycle next = snap_cycle_ + interval;
            if (next > now && next < target) target = next;
        }
        cl_.run(target);
        if (any_trap()) {
            // The trap and everything the protection layer counted on the
            // way to it are this window's observation; consume it before
            // restore rewinds the counters.
            observe_and_retune();
            if (retries_ >= cfg_.max_retries) {
                // Deterministic fault (it re-trapped through every retry):
                // leave the cluster in its trapped state for the caller.
                stats_.gave_up = true;
                break;
            }
            rollback();
            if (stats_.gave_up) break; // storage exhausted: fail stop
            continue;
        }
        const Cycle after = cl_.stats().cycles;
        if (!any_running()) break;     // quiescent: every core halted cleanly
        if (after <= now) break;       // no forward progress (all parked)
        if (interval > 0 && after >= snap_cycle_ + interval) {
            observe_and_retune();
            if (!checkpoint()) continue; // detect-before-save rolled back
        }
    }
    return cl_.stats().cycles;
}

} // namespace ulpmc::cluster
