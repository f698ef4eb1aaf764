// CheckpointRunner unit coverage (DESIGN.md §9): interval checkpoints on
// a clean run are invisible, a transient trap re-executes from the last
// snapshot, a deterministic trap exhausts the retry budget and reports
// gave_up, and the parity detect-before-save guard refuses to immortalize
// a latched register upset in a recovery point. The adaptive half: the
// upset-rate estimator smooths inter-event gaps (silence only bounds the
// rate, it never enters the EWMA), the controller parks at max_interval
// on a quiet run and shortens the interval under a sustained event
// stream, and detect-before-save rollbacks are reported to the estimator
// even though no protection counter ever sees them.
#include <gtest/gtest.h>

#include "cluster/checkpoint.hpp"
#include "cluster/cluster.hpp"
#include "fault/estimator.hpp"
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

TEST(Checkpoint, IntervalCheckpointsDoNotPerturbACleanRun) {
    const auto prog = isa::assemble(kLoadLoop);
    const auto cfg = single_core();

    Cluster plain(cfg, prog);
    const Cycle plain_cycles = plain.run(100'000);

    Cluster cl(cfg, prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 100, .max_retries = 2, .parity_guard = true});
    const Cycle cycles = runner.run(100'000);

    EXPECT_EQ(cycles, plain_cycles);
    EXPECT_TRUE(cl.core_halted(0));
    EXPECT_EQ(cl.core_state(0).regs[3], plain.core_state(0).regs[3]);
    EXPECT_GE(runner.stats().checkpoints, plain_cycles / 100);
    EXPECT_EQ(runner.stats().rollbacks, 0u);
    EXPECT_EQ(runner.stats().reexec_cycles, 0u);
    EXPECT_FALSE(runner.stats().gave_up);
}

TEST(Checkpoint, TransientEccTrapRollsBackAndReexecutes) {
    // A double-bit DM upset traps on the next read; restoring the pre-fault
    // snapshot erases the deposited corruption, so the replay verifies.
    const auto prog = isa::assemble(kLoadLoop);
    auto cfg = single_core();
    cfg.ecc_enabled = true;

    Cluster cl(cfg, prog);
    cl.dm_poke(0, 70, 5);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true});
    ASSERT_TRUE(runner.checkpoint());

    runner.run(50); // mid-loop, past the recovery point
    cl.inject_dm_fault(0, 70, 0b11); // double-bit: detectable, uncorrectable
    const Cycle cycles = runner.run(100'000);

    EXPECT_TRUE(cl.core_halted(0));
    EXPECT_EQ(cl.core_trap(0), core::Trap::None);
    EXPECT_EQ(cl.core_state(0).regs[3], 5u) << "replayed read sees the clean value";
    EXPECT_EQ(runner.stats().rollbacks, 1u);
    EXPECT_GT(runner.stats().reexec_cycles, 0u);
    EXPECT_FALSE(runner.stats().gave_up);
    EXPECT_GT(cycles, 0u);
}

TEST(Checkpoint, DeterministicTrapExhaustsRetriesAndGivesUp) {
    // The program itself faults (store far outside the mapped space): every
    // replay re-traps, so the runner must stop after max_retries rollbacks
    // and leave the trapped state for the caller to classify.
    const auto prog = isa::assemble(R"(
        movi r1, 40000
        mov  @r1, r1
        hlt
    )");
    Cluster cl(single_core(), prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true});
    ASSERT_TRUE(runner.checkpoint());

    runner.run(100'000);

    EXPECT_TRUE(runner.stats().gave_up);
    EXPECT_EQ(runner.stats().rollbacks, 2u);
    EXPECT_EQ(cl.core_trap(0), core::Trap::MemoryFault);
}

TEST(Checkpoint, ParityGuardRefusesToSaveCorruptState) {
    // A latched (parity-detectable) register upset at checkpoint time
    // means the CURRENT state is corrupt: checkpoint() must roll back to
    // the previous good snapshot instead of saving, clearing the upset.
    const auto prog = isa::assemble(R"(
        movi r2, 50
    loop:
        sub  r2, r2, #1
        bra  ne, loop
        hlt
    )");
    auto cfg = single_core();
    cfg.reg_protection = core::RegProtection::Parity;
    Cluster cl(cfg, prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true});
    ASSERT_TRUE(runner.checkpoint());

    cl.run(10);
    cl.inject_reg_fault(0, 7, 0x4); // r7 is never read: stays latched
    ASSERT_TRUE(cl.reg_parity_pending());

    EXPECT_FALSE(runner.checkpoint()) << "detect-before-save must reject corrupt state";
    EXPECT_FALSE(cl.reg_parity_pending()) << "rollback restored the clean snapshot";
    EXPECT_EQ(runner.stats().rollbacks, 1u);
    EXPECT_TRUE(runner.checkpoint()) << "clean state checkpoints normally";
}

TEST(Checkpoint, TmrScrubRepairsAtCheckpointTime) {
    const auto prog = isa::assemble(R"(
        movi r2, 50
    loop:
        sub  r2, r2, #1
        bra  ne, loop
        hlt
    )");
    auto cfg = single_core();
    cfg.reg_protection = core::RegProtection::Tmr;
    Cluster cl(cfg, prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true});
    ASSERT_TRUE(runner.checkpoint());

    cl.run(10);
    cl.inject_reg_fault(0, 7, 0x4);
    EXPECT_EQ(cl.pending_reg_faults(), 1u);

    EXPECT_TRUE(runner.checkpoint()) << "TMR vote-repairs, nothing to reject";
    EXPECT_EQ(cl.pending_reg_faults(), 0u);
    EXPECT_EQ(cl.stats().reg_tmr_votes, 1u);
    EXPECT_EQ(runner.stats().rollbacks, 0u);
}

TEST(UpsetRateEstimator, PrimesOnTheFirstEventBearingWindow) {
    fault::UpsetRateEstimator est;
    EXPECT_FALSE(est.primed());
    EXPECT_DOUBLE_EQ(est.lambda_hat(), 0.0);
    est.observe(2, 300); // mean gap 150
    EXPECT_TRUE(est.primed());
    EXPECT_DOUBLE_EQ(est.gap_hat(), 150.0);
    EXPECT_DOUBLE_EQ(est.lambda_hat(), 1.0 / 150.0);
    EXPECT_EQ(est.updates(), 1u);
}

TEST(UpsetRateEstimator, SmoothsInterEventGapsNotWindowRates) {
    fault::UpsetRateEstimator est;
    est.observe(1, 100);
    est.observe(1, 300); // gap EWMA over the two gaps, not the window rates
    EXPECT_DOUBLE_EQ(est.gap_hat(),
                     fault::kUpsetRateWeight * 300.0 + (1.0 - fault::kUpsetRateWeight) * 100.0);
    EXPECT_EQ(est.updates(), 2u);
}

TEST(UpsetRateEstimator, SilentWindowsBoundTheRateWithoutEnteringTheEwma) {
    fault::UpsetRateEstimator est;
    est.observe(1, 100); // gap_hat = 100
    est.observe(0, 40);  // silence 40 < gap_hat: the bound is inactive
    EXPECT_DOUBLE_EQ(est.lambda_hat(), 1.0 / 100.0);
    est.observe(0, 360); // silence 400 > gap_hat: the rate decays as 1/t
    EXPECT_DOUBLE_EQ(est.lambda_hat(), 1.0 / 400.0);
    EXPECT_DOUBLE_EQ(est.gap_hat(), 100.0) << "the EWMA itself must not move";
    EXPECT_EQ(est.updates(), 1u);
    // When the event finally lands, the accumulated silence is that gap's
    // lead-in — counted exactly once.
    est.observe(1, 100); // gap = (400 + 100) / 1
    EXPECT_DOUBLE_EQ(est.gap_hat(),
                     fault::kUpsetRateWeight * 500.0 + (1.0 - fault::kUpsetRateWeight) * 100.0);
    EXPECT_DOUBLE_EQ(est.lambda_hat(), 1.0 / est.gap_hat());
}

TEST(UpsetRateEstimator, SilenceSplitDoesNotChangeTheEstimate) {
    // Three silent windows followed by an event-bearing one must produce
    // the same estimate as one long window: the no-double-count property
    // that keeps lambda_hat unbiased across window-boundary placement.
    fault::UpsetRateEstimator split, whole;
    split.observe(1, 50);
    whole.observe(1, 50);
    split.observe(0, 100);
    split.observe(0, 100);
    split.observe(0, 100);
    split.observe(1, 100);
    whole.observe(1, 400);
    EXPECT_DOUBLE_EQ(split.gap_hat(), whole.gap_hat());
    EXPECT_DOUBLE_EQ(split.lambda_hat(), whole.lambda_hat());
    EXPECT_EQ(split.updates(), whole.updates());
}

TEST(UpsetRateEstimator, ResetRestoresTheUnprimedState) {
    fault::UpsetRateEstimator est;
    est.observe(3, 900);
    est.observe(0, 50);
    est.reset();
    EXPECT_FALSE(est.primed());
    EXPECT_DOUBLE_EQ(est.lambda_hat(), 0.0);
    EXPECT_DOUBLE_EQ(est.gap_hat(), 0.0);
    EXPECT_EQ(est.updates(), 0u);
    est.observe(1, 200); // silence from before the reset must be gone
    EXPECT_DOUBLE_EQ(est.gap_hat(), 200.0);
}

// Long countdown (~9k cycles): spans many adaptive observation windows.
const char* kLongLoop = R"(
    movi r1, 70
    movi r2, 3000
loop:
    mov  r3, @r1
    sub  r2, r2, #1
    bra  ne, loop
    hlt
)";

TEST(Checkpoint, AdaptiveQuietRunParksAtMaxIntervalUntouched) {
    const auto prog = isa::assemble(kLongLoop);
    const auto cfg = single_core();

    Cluster plain(cfg, prog);
    const Cycle plain_cycles = plain.run(200'000);

    Cluster cl(cfg, prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 0, .max_retries = 2, .parity_guard = true,
                  .adaptive = true, .max_interval = 2'000});
    const Cycle cycles = runner.run(200'000);

    EXPECT_EQ(cycles, plain_cycles) << "the adaptive controller must not perturb a clean run";
    EXPECT_EQ(cl.core_state(0).regs[3], plain.core_state(0).regs[3]);
    EXPECT_EQ(runner.effective_interval(), 2'000u) << "interval 0 parks at max_interval";
    EXPECT_EQ(runner.stats().interval_updates, 0u) << "no events, no re-solves";
    EXPECT_DOUBLE_EQ(runner.stats().lambda_hat, 0.0);
    EXPECT_GE(runner.stats().checkpoints, plain_cycles / 2'000);
    EXPECT_EQ(runner.stats().rollbacks, 0u);
}

TEST(Checkpoint, AdaptiveControllerShortensTheIntervalUnderFire) {
    // A TMR-repairable upset lands in every slice; each checkpoint scrub
    // turns it into a counted vote event, so the estimator sees a dense
    // event stream and the controller re-solves the interval downward
    // from its oversized start.
    const auto prog = isa::assemble(kLongLoop);
    auto cfg = single_core();
    cfg.reg_protection = core::RegProtection::Tmr;
    Cluster cl(cfg, prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 2'000, .max_retries = 2, .parity_guard = true,
                  .adaptive = true, .max_interval = 4'000});
    while (!cl.core_halted(0) && cl.stats().cycles < 10'000) {
        cl.inject_reg_fault(0, 9, 0x4); // dead register: repaired by the scrub
        runner.run(cl.stats().cycles + 120);
    }
    EXPECT_GT(cl.stats().reg_tmr_votes, 0u) << "the scrub must emit countable events";
    EXPECT_GT(runner.stats().interval_updates, 0u);
    EXPECT_GT(runner.stats().lambda_hat, 0.0);
    EXPECT_LT(runner.stats().current_interval, 2'000u);
    EXPECT_GE(runner.stats().current_interval, kMinCheckpointInterval);
}

TEST(Checkpoint, DetectBeforeSaveReportsTheUpsetToTheEstimator) {
    // A latched parity upset found at save time costs a rollback that no
    // protection counter ever records (the trap would only fire on a
    // read); the adaptive controller must still hear about it, or
    // detect-before-save-heavy environments are systematically
    // underestimated.
    const auto prog = isa::assemble(kLongLoop);
    auto cfg = single_core();
    cfg.reg_protection = core::RegProtection::Parity;
    Cluster cl(cfg, prog);
    CheckpointRunner runner(cl);
    runner.reset({.interval = 500, .max_retries = 4, .parity_guard = true,
                  .adaptive = true, .max_interval = 600});
    runner.run(1'200); // a few clean windows: the estimator is still unprimed
    EXPECT_DOUBLE_EQ(runner.stats().lambda_hat, 0.0);

    cl.inject_reg_fault(0, 9, 0x4); // never read: latched until save time
    runner.run(4'000);
    EXPECT_GE(runner.stats().rollbacks, 1u) << "detect-before-save refused the state";
    EXPECT_EQ(cl.stats().reg_parity_traps, 0u) << "no counter saw the upset...";
    EXPECT_GT(runner.stats().lambda_hat, 0.0) << "...yet the estimator was primed by it";
}

} // namespace
} // namespace ulpmc::cluster
