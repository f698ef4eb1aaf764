#include "cluster/clean_run.hpp"

#include <algorithm>
#include <atomic>

#include "common/assert.hpp"

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

struct CleanRun::Materialized {
    std::uint64_t run = 0; ///< id_ of the CleanRun whose rung `snap` holds; 0 = none
    unsigned rung = 0;
    Cluster::Snapshot snap;
};

CleanRun::Materialized& CleanRun::materialized() {
    thread_local Materialized m;
    return m;
}

CleanRun CleanRun::begin(const Cluster& loaded) {
    static std::atomic<std::uint64_t> next_id{1};
    CleanRun run;
    run.id_ = next_id.fetch_add(1, std::memory_order_relaxed);
    run.rungs_.emplace_back();
    run.materialize(loaded, 0); // what the first append() reads its DM delta against
    return run;
}

CleanRun::CleanRun(Cluster& cl, std::optional<Cycle> length) : CleanRun(begin(cl)) {
    // The rung spacing needs the run's length: unless it is known, run to
    // the end, then replay from rung 0, which begin() left materialized.
    if (!length) {
        length = cl.run();
        cl.restore(materialized().snap);
    }
    const Cycle stride = std::max<Cycle>(1, *length / kRungs);
    rungs_.reserve(kRungs + 1);
    for (unsigned r = 1; r <= kRungs; ++r) {
        if (r < kRungs) {
            cl.run(static_cast<Cycle>(r) * stride);
        } else {
            cl.run();
        }
        append(cl);
    }
    ULPMC_EXPECTS(cycles() == *length);
}

void CleanRun::append(const Cluster& cl) {
    // The thread's materialized snapshot holds the previous rung in full;
    // the DM delta is read straight off the cluster's banks against it.
    Materialized& m = materialized();
    ULPMC_EXPECTS(m.run == id_ && m.rung == final_rung());
    ULPMC_EXPECTS(cl.dm_banks_.size() <= 0x100);
    Rung g;
    for (std::size_t b = 0; b < cl.dm_banks_.size(); ++b) {
        const mem::MemoryBank& bank = cl.dm_banks_[b];
        const mem::BankSnapshot& was = m.snap.dm[b];
        ULPMC_EXPECTS(bank.size() <= 0x10000);
        for (std::size_t o = 0; o < bank.size(); ++o) {
            const mem::MemoryBank::CellState now = bank.cell_state(o);
            if (now.cell == was.cells[o] && (was.check.empty() || now.check == was.check[o]))
                continue;
            ULPMC_EXPECTS(now.cell <= 0xFFFF);
            g.dm.push_back({static_cast<std::uint16_t>(o), static_cast<std::uint8_t>(b),
                            now.check, static_cast<std::uint16_t>(now.cell)});
        }
    }
    g.dm.shrink_to_fit();
    cl.save(m.snap);
    g.state = m.snap.ctl;
    rungs_.push_back(std::move(g));
    m.rung = final_rung();
}

const ClusterStats& CleanRun::rung_stats(unsigned r) const {
    ULPMC_EXPECTS(r >= 1 && r <= final_rung()); // rung 0 stores nothing
    return rungs_[r].state.saved_stats();
}

void CleanRun::advance(Materialized& m, unsigned r) const {
    if (r == m.rung) return;
    for (unsigned k = m.rung + 1; k <= r; ++k) {
        for (const DmCell& c : rungs_[k].dm) {
            mem::BankSnapshot& bank = m.snap.dm[c.bank];
            bank.cells[c.offset] = c.cell;
            if (!bank.check.empty()) bank.check[c.offset] = c.check;
        }
    }
    m.snap.ctl = rungs_[r].state;
    m.rung = r;
}

const Cluster::Snapshot& CleanRun::materialize(const Cluster& loaded, unsigned r) const {
    ULPMC_EXPECTS(r <= final_rung());
    Materialized& m = materialized();
    if (m.run != id_ || m.rung > r) {
        // Re-base on rung 0, the loaded state; only forward moves follow.
        loaded.save(m.snap);
        ULPMC_EXPECTS(m.snap.saved_cycle() == 0);
        m.run = id_;
        m.rung = 0;
    }
    advance(m, r);
    return m.snap;
}

unsigned CleanRun::restore_below(Cluster& cl, Cycle cycle) const {
    unsigned r = 0;
    while (r + 1 < final_rung() && rung_cycle(r + 1) <= cycle) ++r;
    const Cluster::Snapshot& s = materialize(cl, r);
    if (r > 0) cl.restore(s); // rung 0 is where `cl` already stands
    return r;
}

bool CleanRun::matches(const Cluster& cl, unsigned r) const {
    Materialized& m = materialized();
    ULPMC_EXPECTS(m.run == id_ && m.rung <= r && r <= final_rung());
    advance(m, r);
    return cl.state_equals(m.snap);
}

std::optional<unsigned> CleanRun::rejoin(Cluster& cl, unsigned from, ClusterStats& out) const {
    for (unsigned r = from + 1; r <= final_rung(); ++r) {
        // A cluster that quiesced short of the rung never reaches it.
        if (cl.run(rung_cycle(r)) < rung_cycle(r)) break;
        if (!matches(cl, r)) continue;
        out = cl.stats();
        add_tail(out, final_stats(), rung_stats(r));
        return r;
    }
    return std::nullopt;
}

std::size_t CleanRun::resident_bytes() const {
    std::size_t bytes = sizeof(*this) + rungs_.capacity() * sizeof(Rung);
    for (const Rung& g : rungs_) bytes += g.state.heap_bytes() + g.dm.capacity() * sizeof(DmCell);
    return bytes;
}

} // namespace ulpmc::cluster
