#include "fault/fault.hpp"

#include <sstream>

#include "cluster/clean_run.hpp"
#include "common/assert.hpp"

namespace ulpmc::fault {

const char* fault_kind_name(FaultKind k) {
    switch (k) {
    case FaultKind::ImBitFlip: return "im-bit-flip";
    case FaultKind::DmBitFlip: return "dm-bit-flip";
    case FaultKind::RegUpset: return "reg-upset";
    case FaultKind::IXbarGlitch: return "ixbar-glitch";
    case FaultKind::DXbarGlitch: return "dxbar-glitch";
    case FaultKind::IXbarStateUpset: return "ixbar-state-upset";
    case FaultKind::DXbarStateUpset: return "dxbar-state-upset";
    case FaultKind::CkptBitFlip: return "ckpt-bit-flip";
    }
    return "?";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
    // One splitmix64 step over seed + odd-constant * (stream + 1): distinct
    // streams of the same campaign land in well-separated RNG states.
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::string FaultSpec::describe() const {
    std::ostringstream os;
    os << fault_kind_name(kind);
    switch (kind) {
    case FaultKind::ImBitFlip:
        os << " pc=" << pc;
        break;
    case FaultKind::DmBitFlip:
        os << " core" << static_cast<unsigned>(core) << " @" << vaddr;
        break;
    case FaultKind::RegUpset:
        os << " core" << static_cast<unsigned>(core) << " r" << reg;
        if (burst > 1) os << "x" << burst;
        break;
    case FaultKind::IXbarGlitch:
    case FaultKind::DXbarGlitch:
        os << " master" << static_cast<unsigned>(core)
           << (glitch == xbar::Glitch::Kind::DroppedGrant ? " dropped-grant" : " spurious-denial");
        break;
    case FaultKind::IXbarStateUpset:
    case FaultKind::DXbarStateUpset:
        if (arb_kind == xbar::ArbiterUpset::Kind::RrStuck) {
            os << " rr-stuck head=" << arb_head;
        } else {
            os << " grant-flip core" << static_cast<unsigned>(core);
            if (kind == FaultKind::DXbarStateUpset) os << (arb_write_port ? " wport" : " rport");
        }
        break;
    case FaultKind::CkptBitFlip:
        os << " rec" << ckpt_record << " word=" << ckpt_word << " mask=0x" << std::hex
           << flip_mask << std::dec;
        break;
    }
    if (kind == FaultKind::ImBitFlip || kind == FaultKind::DmBitFlip ||
        kind == FaultKind::RegUpset) {
        os << " mask=0x" << std::hex << flip_mask << std::dec;
    }
    os << " cycle=" << cycle;
    return os.str();
}

namespace {

/// `bits` distinct flipped bits inside a `width`-bit word.
std::uint32_t draw_mask(Rng& rng, unsigned width, unsigned bits) {
    std::uint32_t mask = 0;
    unsigned set = 0;
    while (set < bits) {
        const std::uint32_t bit = 1u << rng.below(width);
        if (mask & bit) continue;
        mask |= bit;
        ++set;
    }
    return mask;
}

/// `len` ADJACENT flipped bits inside a `width`-bit word (burst MBU).
/// Kept on a separate RNG path so burst_len == 1 universes reproduce the
/// exact draw sequence of earlier campaigns.
std::uint32_t draw_burst_mask(Rng& rng, unsigned width, unsigned len) {
    if (len >= width) return (width >= 32) ? ~0u : ((1u << width) - 1);
    const unsigned start = rng.below(width - len + 1);
    return ((1u << len) - 1) << start;
}

} // namespace

FaultSpec FaultInjector::draw(const FaultUniverse& u) {
    ULPMC_EXPECTS(u.kinds != 0);
    ULPMC_EXPECTS(u.cores >= 1);
    ULPMC_EXPECTS(u.flip_bits >= 1 && u.flip_bits <= 16);
    ULPMC_EXPECTS(u.burst_len >= 1 && u.burst_len <= 16);
    ULPMC_EXPECTS(u.reg_burst >= 1 && u.reg_burst <= kNumRegisters);

    FaultKind enabled[8];
    unsigned n = 0;
    for (unsigned k = 0; k < 8; ++k) {
        if (u.kinds & (1u << k)) enabled[n++] = static_cast<FaultKind>(k);
    }

    FaultSpec f;
    f.kind = enabled[rng_.below(n)];
    f.cycle = 1 + rng_.below(static_cast<std::uint32_t>(u.window));
    switch (f.kind) {
    case FaultKind::ImBitFlip:
        ULPMC_EXPECTS(u.text_words > 0);
        f.pc = static_cast<PAddr>(rng_.below(static_cast<std::uint32_t>(u.text_words)));
        f.flip_mask = u.burst_len > 1 ? draw_burst_mask(rng_, 24, u.burst_len)
                                      : draw_mask(rng_, 24, u.flip_bits);
        break;
    case FaultKind::DmBitFlip:
        ULPMC_EXPECTS(u.dm_words > 0);
        f.core = static_cast<CoreId>(rng_.below(u.cores));
        f.vaddr = static_cast<Addr>(rng_.below(u.dm_words));
        f.flip_mask = u.burst_len > 1 ? draw_burst_mask(rng_, 16, u.burst_len)
                                      : draw_mask(rng_, 16, u.flip_bits);
        break;
    case FaultKind::RegUpset:
        f.core = static_cast<CoreId>(rng_.below(u.cores));
        f.reg = rng_.below(kNumRegisters);
        f.flip_mask = draw_mask(rng_, 16, u.flip_bits);
        f.burst = u.reg_burst; // same column across adjacent registers: no extra draw
        break;
    case FaultKind::IXbarGlitch:
    case FaultKind::DXbarGlitch:
        f.core = static_cast<CoreId>(rng_.below(u.cores));
        f.glitch = rng_.below(2) == 0 ? xbar::Glitch::Kind::DroppedGrant
                                      : xbar::Glitch::Kind::SpuriousDenial;
        break;
    case FaultKind::IXbarStateUpset:
    case FaultKind::DXbarStateUpset:
        f.arb_kind = rng_.below(2) == 0 ? xbar::ArbiterUpset::Kind::RrStuck
                                        : xbar::ArbiterUpset::Kind::GrantFlip;
        f.core = static_cast<CoreId>(rng_.below(u.cores));
        f.arb_head = rng_.below(u.cores);
        f.arb_write_port = rng_.below(2) != 0;
        break;
    case FaultKind::CkptBitFlip:
        ULPMC_EXPECTS(u.ckpt_words > 0);
        // The store holds at most 3 records (delta + two keyframes); the
        // applier wraps both draws into whatever actually exists when the
        // strike lands.
        f.ckpt_record = rng_.below(3);
        f.ckpt_word = rng_.below(static_cast<std::uint32_t>(u.ckpt_words));
        f.flip_mask = u.burst_len > 1 ? draw_burst_mask(rng_, 32, u.burst_len)
                                      : draw_mask(rng_, 32, u.flip_bits);
        break;
    }
    return f;
}

void FaultInjector::apply(cluster::Cluster& cl, const FaultSpec& f) {
    switch (f.kind) {
    case FaultKind::ImBitFlip:
        cl.inject_im_fault(f.pc, f.flip_mask);
        break;
    case FaultKind::DmBitFlip:
        cl.inject_dm_fault(f.core, f.vaddr, static_cast<Word>(f.flip_mask));
        break;
    case FaultKind::RegUpset:
        for (unsigned r = 0; r < f.burst; ++r) {
            cl.inject_reg_fault(f.core, (f.reg + r) % kNumRegisters,
                                static_cast<Word>(f.flip_mask));
        }
        break;
    case FaultKind::IXbarGlitch:
        cl.inject_xbar_glitch(true, xbar::Glitch{f.glitch, f.core});
        break;
    case FaultKind::DXbarGlitch:
        cl.inject_xbar_glitch(false, xbar::Glitch{f.glitch, f.core});
        break;
    case FaultKind::IXbarStateUpset:
        cl.inject_xbar_state(true, xbar::ArbiterUpset{.kind = f.arb_kind,
                                                      .master = f.core,
                                                      .head = f.arb_head});
        break;
    case FaultKind::DXbarStateUpset:
        // D-Xbar masters are port-numbered: core c owns read port 2c and
        // write port 2c+1 (cluster::Cluster port mapping).
        cl.inject_xbar_state(
            false, xbar::ArbiterUpset{.kind = f.arb_kind,
                                      .master = 2u * f.core + (f.arb_write_port ? 1u : 0u),
                                      .head = f.arb_head});
        break;
    case FaultKind::CkptBitFlip:
        // Strikes storage, not the cluster: see the CheckpointStorage
        // overload. Deliberately silent here so mixed-kind campaigns can
        // route every spec through both appliers.
        break;
    }
}

void FaultInjector::apply(cluster::CheckpointStorage& store, const FaultSpec& f) {
    if (f.kind != FaultKind::CkptBitFlip) return;
    const unsigned records = store.record_count();
    if (records == 0) return;
    store.corrupt(f.ckpt_record % records, f.ckpt_word, f.flip_mask);
}

Cycle FaultInjector::run_with_fault(cluster::Cluster& cl, const FaultSpec& f, Cycle max_cycles) {
    ULPMC_EXPECTS(f.cycle <= max_cycles);
    // If the cluster quiesces before the strike cycle, the particle hits a
    // finished machine: the fault is still deposited (state flips) but no
    // execution consumes it — a masked outcome, as in a real campaign.
    cl.run(f.cycle);
    apply(cl, f);
    return cl.run(max_cycles);
}

StrikeEnd strike(cluster::Cluster& cl, const FaultSpec& f, Cycle bound,
                 const cluster::CleanRun* clean, bool rejoin, cluster::ClusterStats& credited) {
    ULPMC_EXPECTS(f.cycle <= bound && (clean != nullptr || !rejoin));
    StrikeEnd end;
    if (clean) end.rung = clean->restore_below(cl, f.cycle);
    cl.run(f.cycle);
    FaultInjector::apply(cl, f);
    if (rejoin && clean->rejoin(cl, end.rung, credited)) {
        end.rejoined = true;
        end.cycles = credited.cycles;
        return end;
    }
    end.cycles = cl.run(bound); // divergent to the end: full simulation
    return end;
}

} // namespace ulpmc::fault
