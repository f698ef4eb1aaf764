// CheckpointStorage unit coverage (DESIGN.md §9.6): keyframe and delta
// records round-trip bit-exactly, an unchanged snapshot deltas to (near)
// nothing, an everything-dirty snapshot is never stored worse than a full
// keyframe, CRC32 verification catches single-bit and adjacent-burst
// storage strikes and falls back along the keyframe chain, corruption
// flows through restore when verification is off (the SDC contrast arm),
// a stored record is portable across simulator engine tiers, and every
// record keeps the snapshot's statistics and protection state. The
// CheckpointRunner half: a storage-backed rollback restores DECODED
// payload bytes, falls back to an older recovery point past a corrupt
// delta, and fail-stops when every record is lost.
#include <gtest/gtest.h>

#include <utility>

#include "cluster/checkpoint.hpp"
#include "cluster/ckpt_store.hpp"
#include "cluster/cluster.hpp"
#include "isa/assembler.hpp"

namespace ulpmc::cluster {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 64, .private_words_per_core = 256};

ClusterConfig single_core(ArchKind arch = ArchKind::UlpmcBank) {
    auto cfg = make_config(arch, kLayout);
    cfg.cores = 1;
    return cfg;
}

// ~200-iteration countdown reading @70 every iteration, then hlt.
const char* kLoadLoop = R"(
    movi r1, 70
    movi r2, 200
loop:
    mov  r3, @r1
    sub  r2, r2, #1
    bra  ne, loop
    hlt
)";

TEST(CkptStore, KeyframeRoundTripsBitExactly) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57); // mid-loop: live registers, flags, DM traffic

    Cluster::Snapshot snap;
    cl.save(snap);
    CheckpointStorage store;
    store.reset({});
    store.store(snap);

    cl.run(500); // diverge well past the stored state
    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    cl.restore(out);
    EXPECT_TRUE(cl.state_equals(snap)) << "decoded payload must rebuild the exact state";
    EXPECT_EQ(out.saved_cycle(), snap.saved_cycle());
    EXPECT_EQ(store.stats().keyframes, 1u);
    EXPECT_EQ(store.stats().crc_failures, 0u);
}

TEST(CkptStore, RecordsKeepEveryFieldStatisticsIncluded) {
    // state_equals ignores statistics by contract, so this case compares
    // them too, on a cluster whose snapshot carries every kind of control
    // state: ECC on with a corrected DM upset, both scrub walkers part-way
    // through, a dirty IM cell and a pending register upset. A direct
    // restore, a keyframe load and a delta load must each give the saved
    // state, the saved statistics and the same continued run.
    auto cfg = single_core(ArchKind::UlpmcInt); // no IM bank gated: both walkers run
    cfg.ecc_enabled = true;
    cfg.im_scrub = true;
    cfg.dm_scrub = true;
    cfg.reg_protection = core::RegProtection::Parity;
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(cfg, prog);
    cl.run(20);
    Cluster::Snapshot early; // the delta's base, before any upset
    cl.save(early);
    cl.inject_dm_fault(0, 70, 0x4); // read every iteration: corrected on the next read
    cl.inject_im_fault(5, 0x10);    // the hlt, fetched only at the end
    cl.inject_reg_fault(0, 7, 0x1); // r7 is never read: stays pending
    cl.run(120);
    const ClusterStats saved = cl.stats();
    ASSERT_GT(saved.ecc_dm_corrected, 0u);
    ASSERT_GT(saved.im_scrub_reads, 0u);
    ASSERT_GT(saved.dm_scrub_reads, 0u);
    ASSERT_EQ(cl.pending_reg_faults(), 1u);
    Cluster::Snapshot snap;
    cl.save(snap);
    cl.run();
    const ClusterStats final_stats = cl.stats();
    Cluster::Snapshot final_state;
    cl.save(final_state);

    CheckpointStorage keyframe;
    keyframe.reset({});
    keyframe.store(snap);
    CheckpointStorage delta;
    delta.reset({});
    delta.store(early);
    delta.store(snap);
    ASSERT_EQ(delta.stats().delta_saves, 1u);
    Cluster::Snapshot from_keyframe;
    Cluster::Snapshot from_delta;
    ASSERT_TRUE(keyframe.load(from_keyframe));
    ASSERT_TRUE(delta.load(from_delta));

    const std::pair<const char*, const Cluster::Snapshot*> cases[] = {
        {"direct", &snap}, {"keyframe", &from_keyframe}, {"delta", &from_delta}};
    for (const auto& [name, s] : cases) {
        SCOPED_TRACE(name);
        Cluster other(cfg, prog);
        other.run(300); // somewhere else entirely
        other.restore(*s);
        EXPECT_TRUE(other.state_equals(snap));
        EXPECT_TRUE(other.stats() == saved);
        other.run();
        EXPECT_TRUE(other.stats() == final_stats);
        EXPECT_TRUE(other.state_equals(final_state));
    }
}

TEST(CkptStore, UnchangedSnapshotDeltasToNothing) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot snap;
    cl.save(snap);

    CheckpointStorage store;
    store.reset({});
    store.store(snap); // keyframe
    const std::uint64_t after_key = store.stats().stored_bytes;
    store.store(snap); // identical state: the delta carries zero dirty words

    EXPECT_EQ(store.stats().delta_saves, 1u);
    EXPECT_EQ(store.stats().dirty_words, 0u);
    EXPECT_LT(store.stats().stored_bytes - after_key, 64u) << "empty delta ~= framing only";

    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    cl.restore(out);
    EXPECT_TRUE(cl.state_equals(snap));
}

TEST(CkptStore, SparseDeltaIsSmallAndRoundTrips) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot base;
    cl.save(base);

    CheckpointStorage store;
    store.reset({});
    store.store(base); // keyframe
    const std::uint64_t after_key = store.stats().stored_bytes;

    cl.run(cl.stats().cycles + 40); // a few registers + loop counter move
    Cluster::Snapshot snap;
    cl.save(snap);
    store.store(snap); // delta vs the keyframe

    ASSERT_EQ(store.stats().delta_saves, 1u);
    EXPECT_GT(store.stats().dirty_words, 0u);
    const std::uint64_t delta_bytes = store.stats().stored_bytes - after_key;
    EXPECT_LT(delta_bytes * 4, after_key) << "a sparse delta must be far below a keyframe";

    cl.run(2'000);
    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    cl.restore(out);
    EXPECT_TRUE(cl.state_equals(snap));
    EXPECT_EQ(out.saved_cycle(), snap.saved_cycle());
}

TEST(CkptStore, EverythingDirtyIsStoredNoWorseThanAKeyframe) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot base;
    cl.save(base);

    CheckpointStorage store;
    store.reset({});
    store.store(base);
    const std::uint64_t stored1 = store.stats().stored_bytes;
    const std::uint64_t full1 = store.stats().full_equiv_bytes;

    // Dirty every reachable DM word and every register file bit column.
    for (Addr a = 0; a < 64 + 256; ++a)
        cl.dm_poke(0, a, static_cast<Word>(a * 7 + 1));
    for (unsigned r = 0; r < kNumRegisters; ++r)
        cl.inject_reg_fault(0, r, 0xFFFF);
    Cluster::Snapshot snap;
    cl.save(snap);
    store.store(snap);

    const std::uint64_t stored2 = store.stats().stored_bytes - stored1;
    const std::uint64_t full2 = store.stats().full_equiv_bytes - full1;
    EXPECT_LE(stored2, full2) << "an all-dirty save must not exceed a full keyframe";

    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    cl.restore(out);
    EXPECT_TRUE(cl.state_equals(snap));
}

TEST(CkptStore, CrcCatchesASingleBitStrikeAndFallsBackToTheKeyframe) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot key;
    cl.save(key);

    CheckpointStorage store;
    store.reset({});
    store.store(key); // keyframe
    cl.run(cl.stats().cycles + 40);
    Cluster::Snapshot snap;
    cl.save(snap);
    store.store(snap); // newest record: the delta

    ASSERT_EQ(store.record_count(), 2u);
    store.corrupt(0, 3, 0x1); // single-bit upset in the newest (delta) record

    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    EXPECT_EQ(store.stats().crc_failures, 1u);
    EXPECT_EQ(store.stats().keyframe_fallbacks, 1u);
    EXPECT_EQ(out.saved_cycle(), key.saved_cycle()) << "served by the older keyframe";
    cl.restore(out);
    EXPECT_TRUE(cl.state_equals(key));
}

TEST(CkptStore, CrcCatchesAnAdjacentBurstStrike) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot key;
    cl.save(key);

    CheckpointStorage store;
    store.reset({});
    store.store(key);
    cl.run(cl.stats().cycles + 40);
    Cluster::Snapshot snap;
    cl.save(snap);
    store.store(snap);

    store.corrupt(0, 7, 0x7 << 9); // 3 adjacent bits: odd parity, defeats SEC-DED
    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    EXPECT_EQ(store.stats().crc_failures, 1u);
    cl.restore(out);
    EXPECT_TRUE(cl.state_equals(key));
}

TEST(CkptStore, AllRecordsCorruptIsADetectedUnrecoverableLoss) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot snap;
    cl.save(snap);

    CheckpointStorage store;
    store.reset({});
    store.store(snap);
    cl.run(cl.stats().cycles + 40);
    cl.save(snap);
    store.store(snap);

    const unsigned records = store.record_count();
    for (unsigned s = 0; s < records; ++s) store.corrupt(s, 1, 0x10);

    Cluster::Snapshot out;
    EXPECT_FALSE(store.load(out)) << "nothing intact: load must refuse, not guess";
    EXPECT_EQ(store.stats().crc_failures, records);
}

TEST(CkptStore, WithVerificationOffCorruptionFlowsThroughRestore) {
    const auto prog = isa::assemble(kLoadLoop);
    Cluster cl(single_core(), prog);
    cl.run(57);
    Cluster::Snapshot snap;
    cl.save(snap);

    CheckpointStorage store;
    store.reset({.delta = true, .keyframe_interval = 8, .crc_verify = false});
    store.store(snap);
    // Payload layout: the record opens with core 0's 16-bit architectural
    // words, two per 32-bit payload word — r1 (the firmware's @70
    // pointer) is the upper half of payload word 0.
    store.corrupt(0, 0, 0x1u << 16);

    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out)) << "no verification: the corrupt record is accepted";
    EXPECT_EQ(store.stats().crc_failures, 0u);
    cl.restore(out);
    EXPECT_FALSE(cl.state_equals(snap)) << "the flipped bit silently entered the state";
    EXPECT_EQ(cl.core_state(0).regs[1], 70u ^ 0x1u);
}

TEST(CkptStore, StoredRecordIsPortableAcrossEngineTiers) {
    const auto prog = isa::assemble(kLoadLoop);
    auto trace_cfg = single_core();
    trace_cfg.engine = SimEngine::Trace;
    auto ref_cfg = single_core();
    ref_cfg.engine = SimEngine::Reference;

    Cluster tr(trace_cfg, prog);
    tr.run(57);
    Cluster::Snapshot snap;
    tr.save(snap);
    CheckpointStorage store;
    store.reset({});
    store.store(snap);

    // Decode the stored bytes into a Reference-tier cluster and let both
    // tiers finish: the tiers are cycle-for-cycle identical, so the
    // restored run must land on the same final state.
    Cluster ref(ref_cfg, prog);
    Cluster::Snapshot out;
    ASSERT_TRUE(store.load(out));
    ref.restore(out);
    const Cycle tr_end = tr.run(100'000);
    const Cycle ref_end = ref.run(100'000);
    EXPECT_EQ(tr_end, ref_end);
    EXPECT_TRUE(ref.core_halted(0));
    EXPECT_EQ(ref.core_state(0).regs[3], tr.core_state(0).regs[3]);
    EXPECT_EQ(ref.core_state(0).regs[2], tr.core_state(0).regs[2]);
}

TEST(CkptStore, RunnerRollbackFallsBackPastACorruptDelta) {
    // Two recovery points; the newest (delta) record is struck in storage.
    // The rollback must detect it, restore the OLDER keyframe, and replay
    // from there to a clean finish.
    const auto prog = isa::assemble(kLoadLoop);
    auto cfg = single_core();
    cfg.ecc_enabled = true;
    Cluster cl(cfg, prog);
    cl.dm_poke(0, 70, 5);

    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true, .delta_store = true});
    ASSERT_TRUE(runner.checkpoint()); // keyframe at cycle 0
    const Cycle key_cycle = runner.checkpoint_cycle();
    runner.run(60);
    ASSERT_TRUE(runner.checkpoint()); // delta at cycle 60
    runner.run(100);

    runner.storage().corrupt(0, 4, 0x2); // strike the newest (delta) record
    cl.inject_dm_fault(0, 70, 0b11);     // double-bit: detectable, uncorrectable
    runner.run(100'000);

    EXPECT_TRUE(cl.core_halted(0));
    EXPECT_EQ(cl.core_trap(0), core::Trap::None);
    EXPECT_EQ(cl.core_state(0).regs[3], 5u) << "replay reads the clean value";
    EXPECT_EQ(runner.stats().rollbacks, 1u);
    EXPECT_FALSE(runner.stats().gave_up);
    EXPECT_EQ(runner.storage().stats().crc_failures, 1u);
    EXPECT_EQ(runner.storage().stats().keyframe_fallbacks, 1u);
    // The fallback restored the keyframe's cycle, so the whole span since
    // then was charged as re-execution.
    EXPECT_GE(runner.stats().reexec_cycles, 100u - key_cycle);
}

TEST(CkptStore, RunnerFailStopsWhenEveryRecordIsLost) {
    const auto prog = isa::assemble(kLoadLoop);
    auto cfg = single_core();
    cfg.ecc_enabled = true;
    Cluster cl(cfg, prog);
    cl.dm_poke(0, 70, 5);

    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true, .delta_store = true});
    ASSERT_TRUE(runner.checkpoint());
    runner.run(50);

    runner.storage().corrupt(0, 2, 0x8); // the only record
    cl.inject_dm_fault(0, 70, 0b11);
    runner.run(100'000);

    EXPECT_TRUE(runner.stats().gave_up);
    EXPECT_TRUE(runner.stats().storage_exhausted);
    EXPECT_EQ(cl.core_trap(0), core::Trap::EccFault)
        << "fail stop leaves the trapped state for the caller to classify";
    EXPECT_EQ(runner.stats().rollbacks, 0u) << "no restore happened";
}

} // namespace
} // namespace ulpmc::cluster
