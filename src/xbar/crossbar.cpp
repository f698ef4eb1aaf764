#include "xbar/crossbar.hpp"

#include <bit>

#include "common/assert.hpp"

namespace ulpmc::xbar {

Crossbar::Crossbar(unsigned masters, unsigned banks, bool broadcast)
    : masters_(masters), banks_(banks), broadcast_(broadcast), bank_taken_(banks, 0),
      winner_(banks, 0) {
    ULPMC_EXPECTS(masters > 0);
    ULPMC_EXPECTS(banks > 0);
    if (std::has_single_bit(masters_)) master_mask_ = masters_ - 1;
}

void Crossbar::reset(unsigned masters, unsigned banks, bool broadcast) {
    ULPMC_EXPECTS(masters > 0);
    ULPMC_EXPECTS(banks > 0);
    masters_ = masters;
    banks_ = banks;
    broadcast_ = broadcast;
    bank_taken_.assign(banks, 0);
    winner_.assign(banks, 0);
    master_mask_ = std::has_single_bit(masters_) ? masters_ - 1 : 0;
    fast_path_ = true;
    last_denied_ = false;
    glitch_ = {};
    glitch_armed_ = false;
    self_check_ = false;
    rr_stuck_ = false;
    rr_head_ = 0;
    flip_armed_ = false;
    flip_master_ = 0;
    stats_ = {};
}

std::vector<Grant> Crossbar::arbitrate(std::span<const Request> reqs, Cycle cycle) {
    std::vector<Grant> out(masters_);
    arbitrate_into(reqs, cycle, out);
    return out;
}

void Crossbar::arbitrate_into(std::span<const Request> reqs, Cycle cycle, std::span<Grant> out,
                              std::uint32_t active_hint) {
    ULPMC_EXPECTS(reqs.size() == masters_);
    ULPMC_EXPECTS(out.size() == masters_);

    // Fast path: one pass over the hinted masters from the rotating
    // priority head, with a per-bank claim bitmask (no scratch-array
    // clearing, no grant pre-clearing — every served master's grant is
    // written whole). It serves every cycle in which no request is denied
    // — conflict-free private traffic, the lockstep-SPMD broadcast case,
    // and mixed cycles where each bank's contenders are same-word reads
    // (staggered SPMD: cores a loop-length apart fetch the same PC).
    // Winner choice, broadcast flags, and every statistic are identical to
    // the full arbiter by construction — splitting the hint mask at the
    // head visits masters in exactly the rotated order, so the first
    // claimant of a bank IS pass 1's winner, and a ride-along that would
    // lose pass 1 wins pass 2. Any would-be denial bails to the full
    // arbiter, which alone updates denied/conflict_cycles. The bitmasks
    // bound it to 32 banks/masters; larger geometries (not used by any
    // configuration here) always take the full path.
    if (fast_path_ && !last_denied_ && !glitch_armed_ && !rr_stuck_ && !flip_armed_ &&
        banks_ <= 32 && masters_ <= 32) {
        std::uint32_t pending = active_hint;
        if (masters_ < 32) pending &= (std::uint32_t{1} << masters_) - 1;
        std::uint32_t claimed = 0;
        unsigned active = 0;
        unsigned winners = 0;
        bool denial = false;
        // The rotating head without the 64-bit division (masters counts
        // are powers of two in every configuration).
        const unsigned head = master_mask_ ? static_cast<unsigned>(cycle & master_mask_)
                                           : static_cast<unsigned>(cycle % masters_);
        // Visit hinted masters m >= head first, then those below the head:
        // ascending within each part = the rotated priority order.
        const std::uint32_t below = (std::uint32_t{1} << head) - 1;
        std::uint32_t part = pending & ~below;
        std::uint32_t rest = pending & below;
        while (part | rest) {
            if (!part) {
                part = rest;
                rest = 0;
                continue;
            }
            const unsigned m = static_cast<unsigned>(std::countr_zero(part));
            part &= part - 1;
            const Request& r = reqs[m];
            if (!r.active) continue; // the hint may overestimate
            ULPMC_EXPECTS(r.bank < banks_);
            ++active;
            const std::uint32_t bit = std::uint32_t{1} << r.bank;
            if (!(claimed & bit)) {
                claimed |= bit;
                winner_[r.bank] = static_cast<std::uint8_t>(m);
                out[m] = Grant{.granted = true, .broadcast = false};
                ++winners;
            } else {
                const Request& w = reqs[winner_[r.bank]];
                if (broadcast_ && !r.is_write && !w.is_write && w.offset == r.offset) {
                    out[m] = Grant{.granted = true, .broadcast = true};
                } else {
                    denial = true;
                    break;
                }
            }
        }
        if (!denial) {
            account_uncontended(active, winners);
            return;
        }
    }

    last_denied_ = arbitrate_full(reqs, cycle, out);
}

void Crossbar::inject_glitch(const Glitch& g) {
    ULPMC_EXPECTS(g.master < masters_);
    glitch_ = g;
    glitch_armed_ = true;
}

void Crossbar::inject_arbiter_upset(const ArbiterUpset& u) {
    if (u.kind == ArbiterUpset::Kind::RrStuck) {
        rr_stuck_ = true;
        rr_head_ = u.head % masters_;
    } else {
        ULPMC_EXPECTS(u.master < masters_);
        flip_armed_ = true;
        flip_master_ = u.master;
    }
}

bool Crossbar::arbitrate_full(std::span<const Request> reqs, Cycle cycle, std::span<Grant> out) {
    for (unsigned m = 0; m < masters_; ++m) out[m] = Grant{};
    for (auto& t : bank_taken_) t = 0;

    // Consume a pending arbitration glitch (one-shot).
    const bool glitched = glitch_armed_;
    const Glitch g = glitch_;
    glitch_armed_ = false;
    const bool suppress = glitched && g.kind == Glitch::Kind::SpuriousDenial;

    // Consume a pending grant-register flip (one-shot, even when it finds
    // no denied transfer to hijack — strikes don't wait for traffic).
    const bool flip = flip_armed_;
    const unsigned flip_m = flip_master_;
    flip_armed_ = false;

    bool any_denied = false;

    // Pass 1: pick one winner per bank, scanning masters from the rotating
    // priority head. The head advances every cycle, which yields
    // round-robin fairness over time and — because one master is globally
    // top priority each cycle — guarantees that multi-port instructions
    // eventually receive all their grants in a single cycle.
    // A stuck priority-head register breaks exactly that guarantee: the
    // same master stays top priority forever, so under persistent conflict
    // the others starve. The self-checking arbiter compares the head
    // register against the cycle counter and resynchronizes on mismatch.
    unsigned head = static_cast<unsigned>(cycle % masters_);
    if (rr_stuck_) {
        if (self_check_) {
            rr_stuck_ = false;
            ++stats_.selfcheck_resyncs;
        } else {
            head = rr_head_ % masters_;
        }
    }
    for (unsigned i = 0; i < masters_; ++i) {
        const unsigned m = (head + i) % masters_;
        const Request& r = reqs[m];
        if (!r.active) continue;
        ++stats_.requests;
        ULPMC_EXPECTS(r.bank < banks_);
        if (suppress && m == g.master) continue; // request never arrives
        if (!bank_taken_[r.bank]) {
            bank_taken_[r.bank] = 1;
            winner_[r.bank] = static_cast<std::uint8_t>(m);
            out[m].granted = true;
            ++stats_.grants;
            ++stats_.bank_accesses;
        }
    }

    // Pass 2: read broadcast — same-bank same-offset reads ride along with
    // the winner's access for free (no extra bank activation, no extra
    // cycle: paper §III-B).
    for (unsigned m = 0; m < masters_; ++m) {
        const Request& r = reqs[m];
        if (!r.active || out[m].granted) continue;
        const Request& w = reqs[winner_[r.bank]];
        if ((!suppress || m != g.master) && bank_taken_[r.bank] && broadcast_ && !r.is_write &&
            !w.is_write && w.offset == r.offset) {
            out[m].granted = true;
            out[m].broadcast = true;
            ++stats_.grants;
            ++stats_.broadcast_riders;
        } else if (flip && m == flip_m && bank_taken_[r.bank]) {
            // The denied master's grant register flipped high while the
            // bank port carries the winner's transfer. A self-checking
            // arbiter re-votes, spots the inconsistent grant vector and
            // suppresses the spurious grant — the master just stalls and
            // retries like any denial. Without it the master latches the
            // winner's word (wrong offset) on a read, or silently loses
            // its store on a write: the double-grant corruption channel.
            if (self_check_) {
                ++stats_.selfcheck_fixes;
                ++stats_.denied;
                any_denied = true;
            } else {
                out[m].granted = true;
                out[m].hijacked = true;
                out[m].hijack_offset = w.offset;
                ++stats_.grants;
                ++stats_.hijacked_grants;
            }
        } else {
            ++stats_.denied;
            any_denied = true;
        }
    }

    // A dropped grant revokes the winner's (or rider's) grant after the
    // fact: the bank port has already fired — the activation energy is
    // spent — but the master latches nothing and retries next cycle.
    if (glitched && g.kind == Glitch::Kind::DroppedGrant && reqs[g.master].active &&
        out[g.master].granted) {
        --stats_.grants;
        if (out[g.master].broadcast) --stats_.broadcast_riders;
        out[g.master] = Grant{};
        ++stats_.denied;
        any_denied = true;
    }

    if (any_denied) ++stats_.conflict_cycles;
    return any_denied;
}

unsigned mot_levels(unsigned fanout) {
    unsigned levels = 0;
    unsigned n = 1;
    while (n < fanout) {
        n *= 2;
        ++levels;
    }
    return levels;
}

} // namespace ulpmc::xbar
