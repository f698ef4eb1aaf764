// Fault-injector and campaign tests (DESIGN.md §9): seed determinism,
// thread-count independence, glitch absorption, the SDC-vs-ECC acceptance
// behavior, and the calibrated ECC energy overhead.
#include <gtest/gtest.h>

#include "app/benchmark.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "isa/assembler.hpp"
#include "power/calibration.hpp"
#include "power/power_model.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::fault {
namespace {

FaultUniverse test_universe() {
    FaultUniverse u;
    u.text_words = 200;
    u.dm_words = 1000;
    u.cores = 8;
    u.window = 50'000;
    return u;
}

TEST(FaultInjector, SameSeedSameDrawSequence) {
    FaultInjector a(123), b(123), c(124);
    const auto u = test_universe();
    bool any_differs_from_c = false;
    for (int i = 0; i < 64; ++i) {
        const auto fa = a.draw(u), fb = b.draw(u), fc = c.draw(u);
        EXPECT_EQ(fa.describe(), fb.describe());
        if (fa.describe() != fc.describe()) any_differs_from_c = true;
    }
    EXPECT_TRUE(any_differs_from_c) << "different seeds must diverge";
}

TEST(FaultInjector, DrawRespectsKindMask) {
    FaultInjector inj(9);
    auto u = test_universe();
    u.kinds = fault_bit(FaultKind::RegUpset) | fault_bit(FaultKind::DXbarGlitch);
    for (int i = 0; i < 64; ++i) {
        const auto f = inj.draw(u);
        EXPECT_TRUE(f.kind == FaultKind::RegUpset || f.kind == FaultKind::DXbarGlitch);
    }
}

TEST(FaultInjector, MixSeedSeparatesStreams) {
    EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
    EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
    EXPECT_EQ(mix_seed(7, 3), mix_seed(7, 3));
}

TEST(FaultInjector, XbarGlitchIsAbsorbedByStallRetry) {
    // An arbitration glitch costs cycles, never correctness: the glitched
    // run ends with the same architectural state as the clean one.
    const auto prog = isa::assemble(R"(
        movi r1, 100        ; shared read-only word: every core competes
        movi r4, 600        ; private accumulator slot
        movi r2, 16
    loop:
        mov  r3, @r1
        add  r5, r5, r3
        mov  @r4, r5
        sub  r2, r2, #1
        bra  ne, loop
        hlt
    )");
    constexpr mmu::DmLayout layout{.shared_words = 512, .private_words_per_core = 512};
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcInt, layout);

    cluster::Cluster clean(cfg, prog);
    clean.dm_poke(0, 100, 5);
    clean.run(100'000);

    for (const auto kind :
         {xbar::Glitch::Kind::DroppedGrant, xbar::Glitch::Kind::SpuriousDenial}) {
        for (const bool instruction_side : {true, false}) {
            cluster::Cluster gl(cfg, prog);
            gl.dm_poke(0, 100, 5);
            gl.run(20);
            gl.inject_xbar_glitch(instruction_side, xbar::Glitch{kind, 2});
            gl.run(100'000);
            for (unsigned p = 0; p < cfg.cores; ++p) {
                const auto pid = static_cast<CoreId>(p);
                ASSERT_EQ(gl.core_trap(pid), core::Trap::None);
                ASSERT_TRUE(gl.core_halted(pid));
                ASSERT_EQ(gl.core_state(pid).regs, clean.core_state(pid).regs);
                ASSERT_EQ(gl.dm_peek(pid, 600), clean.dm_peek(pid, 600));
            }
        }
    }
}

TEST(Campaign, ReproducibleAcrossThreadCounts) {
    // The acceptance contract: same seed -> same per-injection fault and
    // classification, bit for bit, regardless of parallelism.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.injections = 16;
    cfg.ecc = true;

    sweep::SweepRunner serial(1), parallel(4);
    const auto a = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, serial);
    const auto b = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, parallel);

    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].fault.describe(), b.runs[i].fault.describe()) << i;
        EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
        EXPECT_EQ(a.runs[i].cycles, b.runs[i].cycles) << i;
    }
    EXPECT_EQ(a.counts, b.counts);
}

TEST(Verdict, OneShotChecksTheMeasurementsTheBitstreamVerdictDoesNot) {
    // The one-shot verdict verifies each lead's CS measurements (the y
    // window) and its bitstream; the adaptive campaign's verifies the
    // bitstream only. One wrong measurement word on a finished clean block
    // tells the two apart.
    const app::EcgBenchmark bench{};
    const auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
    cluster::Cluster cl(cfg, bench.image());
    bench.load_inputs(cl, cfg.cores);
    cl.run();
    ASSERT_TRUE(bench.verify(cl, cfg.cores));
    const Addr y = bench.layout().y_base();
    cl.dm_poke(3, y, static_cast<Word>(cl.dm_peek(3, y) ^ 1));

    InjectionRecord oneshot;
    classify_oneshot(cl, cl.stats(), bench, cfg.cores, oneshot);
    EXPECT_EQ(oneshot.outcome, Outcome::Sdc);

    InjectionRecord bitstream;
    classify_oneshot(cl, cl.stats(), cfg.cores, bitstream, [&] {
        for (unsigned p = 0; p < cfg.cores; ++p)
            if (!bench.lead_ok(cl, p)) return false;
        return true;
    });
    EXPECT_EQ(bitstream.outcome, Outcome::Masked);
}

TEST(Campaign, EccTurnsDmSdcIntoCorrections) {
    // Acceptance (a): at least one strike that is silent data corruption
    // with ECC off is corrected by SEC-DED — same seeds, same strikes.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 7;
    cfg.injections = 48;
    cfg.kinds = fault_bit(FaultKind::DmBitFlip);
    sweep::SweepRunner pool;

    cfg.ecc = false;
    const auto off = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.ecc = true;
    const auto on = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);

    ASSERT_GE(off.count(Outcome::Sdc), 1u) << "campaign must surface SDCs with ECC off";
    EXPECT_EQ(on.count(Outcome::Sdc), 0u) << "every DM SEU is inside SEC-DED's reach";
    EXPECT_GE(on.count(Outcome::Corrected), off.count(Outcome::Sdc));
    EXPECT_GT(on.coverage(), off.coverage());
}

TEST(Campaign, EccEnergyOverheadMatchesCalibration) {
    // Acceptance (c): the campaign's energy numbers are exactly what the
    // calibration constants prescribe — access factors on the IM/DM
    // components plus the per-correction scrub energy.
    const power::PowerModel model(cluster::ArchKind::UlpmcBank);
    power::EventRates r;
    r.im_bank_accesses = 0.2;
    r.ixbar_requests = 1.0;
    r.dm_bank_accesses = 0.4;
    r.dxbar_requests = 0.4;
    r.ops_per_cycle = 7.0;

    const auto off = model.energy_per_op(r);
    r.ecc = true;
    const auto on = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(on.im, off.im * power::cal::kEccImAccessFactor);
    EXPECT_DOUBLE_EQ(on.dm, off.dm * power::cal::kEccDmAccessFactor);
    EXPECT_DOUBLE_EQ(on.cores, off.cores);

    r.ecc_corrections = 0.01;
    const auto scrub = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(scrub.dm, on.dm + 0.01 * power::cal::kEccCorrectionEnergy);
}

TEST(Campaign, EccFaultTrapIsRaisedOnDoubleBitUpset) {
    // flip_bits = 2 exercises the detection (not correction) path: the
    // striken core must fail-stop with the dedicated trap, not corrupt.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 3;
    cfg.injections = 32;
    cfg.ecc = true;
    cfg.flip_bits = 2;
    cfg.kinds = fault_bit(FaultKind::DmBitFlip);
    sweep::SweepRunner pool;
    const auto r = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    EXPECT_EQ(r.count(Outcome::Sdc), 0u);
    EXPECT_GE(r.count(Outcome::Trapped), 1u);
    unsigned ecc_traps = 0;
    for (const auto& rec : r.runs) {
        if (rec.outcome == Outcome::Trapped && rec.trap == core::Trap::EccFault) ++ecc_traps;
    }
    EXPECT_GE(ecc_traps, 1u);
}

TEST(FaultInjector, CkptBitFlipIsOptInAndDrawsInsideTheUniverse) {
    // The legacy universe must not draw the storage kind (committed
    // campaign baselines reproduce their draw sequences bit-exactly).
    FaultInjector legacy(11);
    for (int i = 0; i < 64; ++i)
        EXPECT_NE(legacy.draw(test_universe()).kind, FaultKind::CkptBitFlip);

    FaultInjector inj(11);
    auto u = test_universe();
    u.kinds = kCkptFaultKinds;
    u.ckpt_words = 96;
    for (int i = 0; i < 64; ++i) {
        const auto f = inj.draw(u);
        EXPECT_EQ(f.kind, FaultKind::CkptBitFlip);
        EXPECT_LT(f.ckpt_record, 3u);
        EXPECT_LT(f.ckpt_word, 96u);
        EXPECT_NE(f.flip_mask, 0u);
        EXPECT_NE(f.describe().find("ckpt-bit-flip"), std::string::npos);
    }
}

TEST(FaultInjector, CkptBitFlipStrikesStoredRecordsOnly) {
    const auto prog = isa::assemble(R"(
        movi r1, 70
        movi r2, 200
    loop:
        mov  r3, @r1
        sub  r2, r2, #1
        bra  ne, loop
        hlt
    )");
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank,
                                    {.shared_words = 64, .private_words_per_core = 256});
    cfg.cores = 1;
    cluster::Cluster cl(cfg, prog);
    cl.run(57);
    cluster::Cluster::Snapshot snap;
    cl.save(snap);

    cluster::CheckpointStorage store;
    store.reset({});

    FaultSpec f;
    f.kind = FaultKind::CkptBitFlip;
    f.ckpt_record = 7; // wraps into whatever exists at strike time
    f.ckpt_word = 12345;
    f.flip_mask = 0x20;
    FaultInjector::apply(store, f); // empty store: must be a harmless no-op
    FaultInjector::apply(cl, f);    // cluster overload: no-op for this kind
    EXPECT_TRUE(cl.state_equals(snap));

    store.store(snap);
    FaultInjector::apply(store, f);
    cluster::Cluster::Snapshot out;
    EXPECT_FALSE(store.load(out)) << "the strike must land in the record and trip the CRC";
    EXPECT_EQ(store.stats().crc_failures, 1u);
}

} // namespace
} // namespace ulpmc::fault
