#include "cluster/clean_run.hpp"

#include <algorithm>

namespace ulpmc::cluster {

namespace {

void add_xbar_tail(xbar::XbarStats& dst, const xbar::XbarStats& now,
                   const xbar::XbarStats& base) {
    dst.requests += now.requests - base.requests;
    dst.grants += now.grants - base.grants;
    dst.bank_accesses += now.bank_accesses - base.bank_accesses;
    dst.broadcast_riders += now.broadcast_riders - base.broadcast_riders;
    dst.denied += now.denied - base.denied;
    dst.conflict_cycles += now.conflict_cycles - base.conflict_cycles;
    dst.hijacked_grants += now.hijacked_grants - base.hijacked_grants;
    dst.selfcheck_fixes += now.selfcheck_fixes - base.selfcheck_fixes;
    dst.selfcheck_resyncs += now.selfcheck_resyncs - base.selfcheck_resyncs;
}

// dst += (now - base) on every event counter: the clean tail from the
// rejoin rung to `now` is, by the exact-state rejoin proof, precisely
// what the rejoined run would have executed. Config-derived fields
// (flags, bank totals) keep dst's values; halted_at/trap are taken from
// the tail when the run had not ended yet — determinism puts its halt at
// exactly the clean run's cycle.
void add_tail(ClusterStats& dst, const ClusterStats& now, const ClusterStats& base) {
    dst.cycles += now.cycles - base.cycles;
    for (std::size_t p = 0; p < dst.core.size(); ++p) {
        CoreRunStats& d = dst.core[p];
        const CoreRunStats& n = now.core[p];
        const CoreRunStats& b = base.core[p];
        d.instret += n.instret - b.instret;
        d.stall_cycles += n.stall_cycles - b.stall_cycles;
        d.bubble_cycles += n.bubble_cycles - b.bubble_cycles;
        d.dm_loads += n.dm_loads - b.dm_loads;
        d.dm_stores += n.dm_stores - b.dm_stores;
        d.im_fetches += n.im_fetches - b.im_fetches;
        if (d.halted_at == 0) d.halted_at = n.halted_at;
        if (d.trap == core::Trap::None) d.trap = n.trap;
    }
    add_xbar_tail(dst.ixbar, now.ixbar, base.ixbar);
    add_xbar_tail(dst.dxbar, now.dxbar, base.dxbar);
    dst.im_bank_accesses += now.im_bank_accesses - base.im_bank_accesses;
    dst.dm_bank_reads += now.dm_bank_reads - base.dm_bank_reads;
    dst.dm_bank_writes += now.dm_bank_writes - base.dm_bank_writes;
    dst.ecc_im_corrected += now.ecc_im_corrected - base.ecc_im_corrected;
    dst.ecc_dm_corrected += now.ecc_dm_corrected - base.ecc_dm_corrected;
    dst.ecc_uncorrectable += now.ecc_uncorrectable - base.ecc_uncorrectable;
    dst.faults_injected += now.faults_injected - base.faults_injected;
    dst.watchdog_trips += now.watchdog_trips - base.watchdog_trips;
    dst.reg_parity_traps += now.reg_parity_traps - base.reg_parity_traps;
    dst.reg_tmr_votes += now.reg_tmr_votes - base.reg_tmr_votes;
    dst.im_scrub_reads += now.im_scrub_reads - base.im_scrub_reads;
    dst.im_scrub_corrected += now.im_scrub_corrected - base.im_scrub_corrected;
    dst.im_scrub_uncorrectable += now.im_scrub_uncorrectable - base.im_scrub_uncorrectable;
    dst.dm_scrub_reads += now.dm_scrub_reads - base.dm_scrub_reads;
    dst.dm_scrub_corrected += now.dm_scrub_corrected - base.dm_scrub_corrected;
    dst.dm_scrub_uncorrectable += now.dm_scrub_uncorrectable - base.dm_scrub_uncorrectable;
}

} // namespace

CleanRun::CleanRun(Cluster& cl) {
    ladder_.resize(kRungs + 1);
    // The rung spacing needs the run's length: save the start, run to the
    // end, then replay from the start to lay the rungs down.
    cl.save(ladder_[0]);
    const Cycle stride = std::max<Cycle>(1, cl.run() / kRungs);
    cl.save(ladder_[kRungs]);
    cl.restore(ladder_[0]);
    for (unsigned r = 1; r < kRungs; ++r) {
        cl.run(static_cast<Cycle>(r) * stride);
        cl.save(ladder_[r]);
    }
    cl.restore(ladder_[kRungs]);
}

unsigned CleanRun::restore_below(Cluster& cl, Cycle cycle) const {
    unsigned r = 0;
    while (r + 1 < kRungs && ladder_[r + 1].saved_cycle() <= cycle) ++r;
    cl.restore(ladder_[r]);
    return r;
}

std::optional<unsigned> CleanRun::rejoin(Cluster& cl, unsigned from, ClusterStats& out) const {
    for (unsigned r = from + 1; r < ladder_.size(); ++r) {
        cl.run(ladder_[r].saved_cycle());
        if (!cl.state_equals(ladder_[r])) continue;
        out = cl.stats();
        add_tail(out, final_state().saved_stats(), ladder_[r].saved_stats());
        return r;
    }
    return std::nullopt;
}

} // namespace ulpmc::cluster
