// Mesh-of-Trees crossbar interconnect (paper §III-B, after Rahimi et al.,
// DATE'11): connects N processor ports to M memory banks with one-cycle
// access, per-bank round-robin arbitration under conflicts, and an
// optional read-broadcast that serves all same-address readers with a
// single bank access (the paper's key energy feature).
//
// The class is purely combinational-per-cycle: callers present one request
// per master and call arbitrate(); granted accesses are then applied to
// the banks by the caller (the cluster). Fairness is implemented as a
// rotating-priority scheme — the highest-priority master index advances
// every cycle — which distributes grants round-robin over time while
// guaranteeing forward progress for multi-port instructions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace ulpmc::xbar {

/// What a master asks of the interconnect this cycle.
struct Request {
    bool active = false;
    bool is_write = false;
    BankId bank = 0;
    std::uint32_t offset = 0; ///< cell offset within the bank
};

/// Per-master outcome of one arbitration round.
struct Grant {
    bool granted = false;
    /// True when this grant rode along on another master's bank access
    /// (read broadcast) instead of occupying the bank port itself.
    bool broadcast = false;
    /// Fault model only (DESIGN.md §9): the grant register flipped high for
    /// a master the arbiter actually denied. The master latches whatever is
    /// on the bank port — the WINNER's word at `hijack_offset` — for a
    /// read, and a hijacked write is silently lost (the winner holds the
    /// port). Never set in fault-free operation.
    bool hijacked = false;
    std::uint32_t hijack_offset = 0;
};

/// Aggregate statistics over the run (inputs to the energy model and the
/// §IV-C2 access-count experiment).
struct XbarStats {
    std::uint64_t requests = 0;       ///< master-cycles with an active request
    std::uint64_t grants = 0;         ///< requests served (incl. broadcast riders)
    std::uint64_t bank_accesses = 0;  ///< physical bank port activations
    std::uint64_t broadcast_riders = 0; ///< grants served without a bank access
    std::uint64_t denied = 0;         ///< master-cycles stalled by a conflict
    std::uint64_t conflict_cycles = 0; ///< cycles in which >=1 master was denied
    std::uint64_t hijacked_grants = 0; ///< grant-register upsets that corrupted a master
    std::uint64_t selfcheck_fixes = 0; ///< spurious grants suppressed by the self-check
    std::uint64_t selfcheck_resyncs = 0; ///< stuck RR pointers repaired by the self-check

    friend bool operator==(const XbarStats&, const XbarStats&) = default;
};

/// A one-shot arbitration upset (fault-injection extension, DESIGN.md §9).
/// Armed with Crossbar::inject_glitch(), applied to the next arbitration
/// round, then cleared. Both flavors are absorbed by the stall/retry
/// protocol — the denied master simply re-arbitrates next cycle — so the
/// architectural outcome is a stall, never corruption.
struct Glitch {
    enum class Kind : std::uint8_t {
        DroppedGrant,   ///< grant signal glitches low after arbitration:
                        ///< the bank port fires but the master latches
                        ///< nothing and must retry
        SpuriousDenial  ///< the request never reaches the arbiter this
                        ///< cycle (a competing master may win instead)
    };
    Kind kind = Kind::DroppedGrant;
    unsigned master = 0;
};

/// An upset of the arbiter's own sequential state (DESIGN.md §9). Unlike a
/// Glitch — which the stall/retry protocol absorbs — arbiter-state upsets
/// can corrupt data or starve masters:
///   RrStuck: the rotating-priority head register freezes at `head`; under
///     persistent conflict the low-priority masters starve (watchdog/hang).
///     Persists until repaired (self-checking arbiter) or rolled back.
///   GrantFlip: the grant register of `master` flips high on the next
///     conflict cycle that actually denies it. The master latches the bank
///     port mid-transfer — the winner's word, wrong offset — i.e. a broken
///     read-broadcast / double-grant, a silent-corruption channel. A
///     hijacked write grant loses the store (the winner holds the port).
///     One-shot: consumed at the next full arbitration round.
struct ArbiterUpset {
    enum class Kind : std::uint8_t { RrStuck, GrantFlip };
    Kind kind = Kind::GrantFlip;
    unsigned master = 0; ///< GrantFlip target (ignored for RrStuck)
    unsigned head = 0;   ///< RrStuck frozen priority head (ignored for GrantFlip)
};

/// Saved mutable state of one crossbar (Cluster snapshots): statistics,
/// the denial-hysteresis bit, and any armed one-shot glitch.
struct XbarSnapshot {
    XbarStats stats;
    bool last_denied = false;
    bool glitch_armed = false;
    Glitch glitch;
    bool rr_stuck = false;
    unsigned rr_head = 0;
    bool flip_armed = false;
    unsigned flip_master = 0;
};

/// One crossbar instance (I-Xbar: 8x8, D-Xbar: 8x16 in the paper).
class Crossbar {
public:
    /// `broadcast` enables same-address read merging (the proposed
    /// architecture); the mc-ref baseline interconnect disables it.
    Crossbar(unsigned masters, unsigned banks, bool broadcast);

    /// Reconfigures in place to the freshly-constructed state of
    /// Crossbar(masters, banks, broadcast): statistics cleared, hysteresis
    /// and glitch disarmed, fast path back to its default. Scratch buffers
    /// are reused, so a same-geometry reset performs no heap allocation.
    void reset(unsigned masters, unsigned banks, bool broadcast);

    /// Copies the mutable state (stats, hysteresis, armed glitch) out /
    /// back; the geometry is configuration and is not part of a snapshot.
    void save(XbarSnapshot& out) const {
        out.stats = stats_;
        out.last_denied = last_denied_;
        out.glitch_armed = glitch_armed_;
        out.glitch = glitch_;
        out.rr_stuck = rr_stuck_;
        out.rr_head = rr_head_;
        out.flip_armed = flip_armed_;
        out.flip_master = flip_master_;
    }
    void restore(const XbarSnapshot& s) {
        stats_ = s.stats;
        last_denied_ = s.last_denied;
        glitch_armed_ = s.glitch_armed;
        glitch_ = s.glitch;
        rr_stuck_ = s.rr_stuck;
        rr_head_ = s.rr_head;
        flip_armed_ = s.flip_armed;
        flip_master_ = s.flip_master;
    }

    /// True when the future-determining state (everything save() captures
    /// EXCEPT the statistics) matches the snapshot. The clean-run ladder's
    /// rejoin comparator: two crossbars in this relation arbitrate
    /// identically forever given identical request streams.
    bool state_equals(const XbarSnapshot& s) const {
        return last_denied_ == s.last_denied && glitch_armed_ == s.glitch_armed &&
               glitch_.kind == s.glitch.kind && glitch_.master == s.glitch.master &&
               rr_stuck_ == s.rr_stuck && rr_head_ == s.rr_head &&
               flip_armed_ == s.flip_armed && flip_master_ == s.flip_master;
    }

    unsigned masters() const { return masters_; }
    unsigned banks() const { return static_cast<unsigned>(banks_); }
    bool broadcast_enabled() const { return broadcast_; }

    /// Arbitrates one cycle. `reqs.size()` must equal masters().
    /// `cycle` drives the rotating round-robin priority.
    /// Returns one Grant per master.
    std::vector<Grant> arbitrate(std::span<const Request> reqs, Cycle cycle);

    /// In-place variant that avoids per-cycle allocation (hot path).
    /// `active_hint` is an optional bitmask of masters that MAY have an
    /// active request (bit m = master m); it lets the fast path skip idle
    /// masters without touching their request slots. It may overestimate
    /// (the default claims everyone) but must never omit an active master.
    /// Postcondition: grant slots of masters without an active request are
    /// left unmodified on the fast path — read a grant only behind its
    /// request's `active` flag, or use arbitrate(), which starts from
    /// default-initialized slots.
    void arbitrate_into(std::span<const Request> reqs, Cycle cycle, std::span<Grant> out,
                        std::uint32_t active_hint = 0xFFFFFFFFu);

    /// Enables/disables the conflict-free fast path (default on). The fast
    /// path is exactly result- and statistics-equivalent to the full
    /// round-robin arbiter; turning it off forces the reference arbiter on
    /// every cycle (differential testing).
    void set_fast_path(bool on) { fast_path_ = on; }
    bool fast_path() const { return fast_path_; }

    /// The one conflict-free credit: `requests` grants, all served, by
    /// `bank_accesses` physical port activations — the difference rode
    /// along as read-broadcast riders. It is what either arbiter tier
    /// records for a denial-free round, so callers that proved a round
    /// conflict-free skip arbitration and credit it here: the fast path
    /// below, the trace engine's single-active-core burst (one request per
    /// cycle, batched over many cycles) and the SPMD lockstep cycle
    /// (DESIGN.md §10). A round with requests leaves the denial hysteresis
    /// clear, exactly as the full arbiter would. Must not be used while a
    /// glitch or arbiter upset is pending — those need a real round.
    void account_uncontended(std::uint64_t requests, std::uint64_t bank_accesses) {
        if (requests == 0) return;
        stats_.requests += requests;
        stats_.grants += requests;
        stats_.bank_accesses += bank_accesses;
        stats_.broadcast_riders += requests - bank_accesses;
        last_denied_ = false;
    }

    /// Arms a one-shot arbitration glitch for the next cycle. If the
    /// targeted master raises no request that cycle the glitch dissipates
    /// without effect (strikes don't wait for traffic).
    void inject_glitch(const Glitch& g);
    bool glitch_pending() const { return glitch_armed_; }

    /// Upsets the arbiter's sequential state (RR pointer / grant register).
    /// RrStuck persists until the self-check repairs it or a snapshot is
    /// restored; GrantFlip is one-shot, consumed at the next full round.
    void inject_arbiter_upset(const ArbiterUpset& u);
    bool arbiter_upset_pending() const { return rr_stuck_ || flip_armed_; }

    /// Self-checking arbiter (DESIGN.md §9): duplicate-and-compare on the
    /// grant vector and priority head. A spurious grant is suppressed
    /// (the master stalls and retries, selfcheck_fixes); a stuck priority
    /// head is resynchronized from the cycle counter (selfcheck_resyncs).
    /// Configuration, not snapshot state — priced per-cycle in power::cal.
    void set_self_check(bool on) { self_check_ = on; }
    bool self_check() const { return self_check_; }

    const XbarStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

private:
    /// The original full arbiter: rotating-priority winner per bank, then
    /// the read-broadcast ride-along pass. Also the conflict fallback.
    /// Returns true when at least one master was denied.
    bool arbitrate_full(std::span<const Request> reqs, Cycle cycle, std::span<Grant> out);

    unsigned masters_;
    std::uint32_t banks_;
    bool broadcast_;
    bool fast_path_ = true;
    /// Denial hysteresis: after a conflict cycle the fast attempt is
    /// skipped once (conflicts cluster in time; attempting and bailing
    /// pays for both arbiters). Purely a tier-selection hint — grants and
    /// statistics are identical whichever tier runs.
    bool last_denied_ = false;
    Glitch glitch_;              ///< one-shot upset, valid while armed
    bool glitch_armed_ = false;
    bool self_check_ = false;    ///< configuration: self-checking arbiter
    bool rr_stuck_ = false;      ///< priority head frozen at rr_head_
    unsigned rr_head_ = 0;
    bool flip_armed_ = false;    ///< grant register of flip_master_ upset
    unsigned flip_master_ = 0;
    std::uint32_t master_mask_ = 0; ///< masters_-1 when a power of two, else 0
    XbarStats stats_;
    std::vector<std::uint8_t> bank_taken_; // scratch, sized banks_
    std::vector<std::uint8_t> winner_;     // scratch: winning master per bank
};

/// Pipeline depth of a Mesh-of-Trees routing network (levels of 2:1
/// switches); used by the area model and documented for completeness —
/// the paper's network still completes an access in a single cycle.
unsigned mot_levels(unsigned fanout);

} // namespace ulpmc::xbar
