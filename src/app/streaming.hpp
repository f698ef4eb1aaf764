// Streaming workload (extension): the realistic continuous-monitoring
// mode, where the node processes block after block indefinitely. The key
// architectural question it answers: does the broadcast advantage of the
// shared instruction memory survive once the data-dependent Huffman
// section has desynchronized the cores — and how much does the barrier
// (our hardware extension) help re-establish lockstep at every block
// boundary?
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "app/benchmark.hpp"
#include "cluster/ckpt_store.hpp"
#include "cluster/clean_run.hpp"

namespace ulpmc::app {

/// Multi-block streaming run built on top of the single-block benchmark's
/// deterministic inputs and golden pipeline.
class StreamingBenchmark {
public:
    StreamingBenchmark(const BenchmarkOptions& opt, unsigned n_blocks);

    unsigned n_blocks() const { return n_blocks_; }
    const EcgBenchmark& base() const { return base_; }
    const isa::Program& program() const { return program_; }
    /// Shared decoded image of the multi-block program() (DESIGN.md §11).
    const std::shared_ptr<const isa::ProgramImage>& image() const { return image_; }

    struct Outcome {
        cluster::ClusterStats stats;
        bool verified = false;    ///< last block's outputs bit-exact
        double cycles_per_block = 0;
        /// Fraction of instruction fetches served without their own bank
        /// access (broadcast efficiency; 7/8 = perfect lockstep).
        double fetch_merge_ratio = 0;
    };

    Outcome run(cluster::ArchKind arch) const;
    Outcome run(const cluster::ClusterConfig& cfg) const;

    // ---- resilient mode (DESIGN.md §9) -------------------------------------
    // Block-boundary checkpoint/rollback: each ECG block is one recovery
    // unit. The monitor runs a block, verifies every live lead's output
    // against the golden pipeline (the role a firmware CRC over the block
    // result plays on silicon), and on corruption re-executes the block
    // from the checkpoint — the inputs are still in the sensor FIFO, so
    // "rollback" is simply re-running the block on a re-initialized
    // cluster. A lead that fails its retry too is treated as persistently
    // broken and dropped: the monitor degrades to the surviving leads
    // instead of dying (drop-one-lead graceful degradation).

    /// Injects faults into one block attempt. Called after the block's
    /// inputs are loaded and before it executes; it may advance the
    /// cluster partially (cl.run(cycle)) and deposit upsets through the
    /// cluster's injection hooks. `attempt` is 0 for the first execution,
    /// 1 for the rollback retry.
    using BlockFaultHook = std::function<void(cluster::Cluster& cl, unsigned block, unsigned attempt)>;

    struct ResilientOutcome {
        unsigned blocks = 0;          ///< blocks committed (all of n_blocks)
        unsigned rollbacks = 0;       ///< block re-executions from checkpoint
        unsigned leads_dropped = 0;
        std::vector<std::uint8_t> lead_alive; ///< per lead, 1 = still monitored
        bool all_surviving_verified = true;   ///< every committed block bit-exact
        Cycle total_cycles = 0;       ///< including rolled-back attempts
        Cycle clean_block_cycles = 0; ///< fault-free reference block
        std::uint64_t ecc_corrected = 0;
        std::uint64_t watchdog_trips = 0;
        /// Arbiter self-check events (grant flips suppressed + stuck RR
        /// pointers resynced) across both crossbars.
        std::uint64_t xbar_selfchecks = 0;
        std::uint64_t im_scrub_corrected = 0; ///< latent IM upsets drained by the walker

        // Filled by run_checkpointed() only (generalized checkpoint
        // service; zero in run_resilient()).
        std::uint64_t checkpoints = 0;     ///< snapshots taken by the service
        Cycle reexec_cycles = 0;           ///< cycles discarded by rollbacks
        std::uint64_t reg_parity_traps = 0;
        std::uint64_t reg_tmr_votes = 0;
        unsigned latent_reg_faults = 0;    ///< struck registers never observed

        /// Cycles credited from the memoized clean stream instead of being
        /// simulated (batched-engine campaigns; zero otherwise). Included
        /// in total_cycles — the outcome is exactly that of a full run.
        Cycle memoized_cycles = 0;

        // Filled when a durable record store backs the checkpoints
        // (run_checkpointed with DurableOptions; zero otherwise).
        std::uint64_t ckpt_stored_bytes = 0; ///< bytes the store actually wrote
        std::uint64_t ckpt_full_bytes = 0;   ///< full-snapshot-equivalent bytes
        std::uint64_t ckpt_crc_failures = 0; ///< stored records rejected on load
        std::uint64_t ckpt_fallbacks = 0;    ///< restores served by an older record
        bool storage_exhausted = false;      ///< every record failed: run fail-stopped
    };

    /// Tells the monitor which block attempts the fault hook perturbs.
    /// Contract: when it returns false for (block, attempt), `hook` is a
    /// no-op for that attempt — the attempt is then bit-identical to the
    /// fault-free reference (determinism) and may be credited instead of
    /// simulated. Strikes under the batched engine are sparse, so this is
    /// where campaign throughput comes from.
    using BlockPerturbed = std::function<bool(unsigned block, unsigned attempt)>;

    /// Runs all blocks in resilient mode under `cfg`, invoking `hook` (if
    /// set) on every block attempt. With `perturbed` set (batched engine),
    /// blocks whose first attempt is unperturbed are credited from the
    /// fault-free reference instead of simulated (the cluster is reset per
    /// block, so every unperturbed attempt IS the reference block).
    /// `known_clean_block`, when nonzero, replaces the calibration run of
    /// the reference block (the caller has already validated it).
    ResilientOutcome run_resilient(const cluster::ClusterConfig& cfg,
                                   const BlockFaultHook& hook = {},
                                   const BlockPerturbed& perturbed = {},
                                   Cycle known_clean_block = 0) const;

    // ---- generalized checkpoint mode (DESIGN.md §9) ------------------------
    // Unlike run_resilient() — which re-initializes the cluster per block
    // and therefore only works because that firmware is block-stateless —
    // this mode runs ONE continuous cluster over the whole multi-block
    // program and recovers through the CheckpointRunner service: a
    // Cluster::save at every block boundary, Cluster::restore on a failed
    // verification. Cross-block architectural state (the firmware's block
    // counter, register files, arbitration state) survives every rollback.
    //
    // The hook contract differs in one way from run_resilient: cycles are
    // continuous, so a hook that wants to strike N cycles into the attempt
    // must advance relative to the current cycle
    // (cl.run(cl.stats().cycles + N)).

    /// Runs all blocks under the checkpoint service. Verification,
    /// rollback, drop-one-lead policy and `known_clean_block` are as in
    /// run_resilient.
    ResilientOutcome run_checkpointed(const cluster::ClusterConfig& cfg,
                                      const BlockFaultHook& hook = {},
                                      Cycle known_clean_block = 0) const;

    /// Durable checkpoint storage (DESIGN.md §9.6): route every boundary
    /// snapshot through a cluster::CheckpointStorage (CRC-verified
    /// keyframe+delta records) so rollbacks restore DECODED payload bytes
    /// and storage corruption becomes a real fault channel.
    struct DurableOptions {
        cluster::CkptStorageConfig storage{};
        /// Called after every committed checkpoint with the record store —
        /// the storage-fault campaign's strike surface.
        std::function<void(cluster::CheckpointStorage&, unsigned block)> strike;
    };

    /// run_checkpointed with a durable record store behind the service.
    /// A CRC-rejected newest record makes the rollback restore an OLDER
    /// block boundary (keyframe fallback); the monitor then rewinds its
    /// block loop and re-executes the discarded blocks — so storage loss
    /// costs re-execution, never correctness. When every stored record is
    /// corrupt, the run fail-stops (storage_exhausted).
    ResilientOutcome run_checkpointed(const cluster::ClusterConfig& cfg,
                                      const BlockFaultHook& hook,
                                      const DurableOptions& durable,
                                      Cycle known_clean_block = 0) const;

    /// Runs the fault-free stream once, exactly as run_checkpointed(cfg)
    /// does, and captures it into `clean`: rung b is block b's top, before
    /// its checkpoint, and the final rung the state after the stream-commit
    /// checkpoint. Returns the clean outcome.
    ResilientOutcome capture_stream(const cluster::ClusterConfig& cfg,
                                    std::optional<cluster::CleanRun>& clean) const;

    /// Memoizing variant (batched engine): restores the rung of the first
    /// perturbed block and only simulates from there, crediting the
    /// skipped prefix to memoized_cycles and its blocks/checkpoints to
    /// their counters. Once the last perturbed block commits and
    /// CleanRun::matches() proves the state is back on the fault-free
    /// stream at a block top, the tail is credited from the rungs' saved
    /// statistics instead of simulated. Exact by determinism. `clean` must
    /// come from capture_stream() under the same `cfg`;
    /// `known_clean_block` is as in run_resilient.
    ResilientOutcome run_checkpointed(const cluster::ClusterConfig& cfg,
                                      const BlockFaultHook& hook, const BlockPerturbed& perturbed,
                                      const cluster::CleanRun& clean,
                                      Cycle known_clean_block = 0) const;

private:
    /// The one checkpointed monitor. `memo` replays a captured clean
    /// stream (with `perturbed`); `capture` records one. At most one of
    /// `memo`, `capture` and `durable` is set.
    ResilientOutcome run_checkpointed_impl(const cluster::ClusterConfig& cfg,
                                           const BlockFaultHook& hook,
                                           const BlockPerturbed* perturbed,
                                           const cluster::CleanRun* memo,
                                           Cycle known_clean_block,
                                           std::optional<cluster::CleanRun>* capture,
                                           const DurableOptions* durable = nullptr) const;

    EcgBenchmark base_;
    unsigned n_blocks_;
    isa::Program program_;
    std::shared_ptr<const isa::ProgramImage> image_;
};

} // namespace ulpmc::app
