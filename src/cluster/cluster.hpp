// The cycle-accurate multi-core cluster model (paper Fig. 1): eight
// TamaRISC cores, a 16-bank data memory behind the D-Xbar, an 8-bank
// instruction memory behind the I-Xbar (or dedicated IM banks for mc-ref),
// per-core MMUs, round-robin arbitration with clock-gated stalls, read
// broadcast, and IM power gating.
//
// Timing model. The 3-stage core sustains one instruction per cycle with
// full bypassing (paper §III-A); we model the pipeline at cycle accuracy
// with two overlapped activities per core and cycle:
//
//   phase 1 (execute): the instruction in EX raises its data-memory
//     requests; the D-Xbar arbitrates; if every needed port is granted the
//     instruction commits (architectural state updates), otherwise the
//     core stalls clock-gated and retries next cycle.
//   phase 2 (fetch): cores whose EX slot is empty or just committed raise
//     an instruction fetch for the next PC; the I-Xbar arbitrates; a
//     granted fetch fills EX for the next cycle, a denied one leaves a
//     bubble.
//
// Branches resolve with the target fetched in the commit cycle (zero
// penalty), consistent with the paper's CPI ~= 1 cycle counts (90.1k
// instructions in 90.2k cycles). Stage-level effects below cycle
// granularity are not modeled.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/stats.hpp"
#include "cluster/trace.hpp"
#include "common/types.hpp"
#include "core/exec.hpp"
#include "core/state.hpp"
#include "isa/blockmap.hpp"
#include "isa/predecode.hpp"
#include "isa/program.hpp"
#include "isa/program_image.hpp"
#include "mem/memory_bank.hpp"
#include "mmu/mmu.hpp"
#include "xbar/crossbar.hpp"

namespace ulpmc::cluster {

class CheckpointStorage;
class CleanRun;

/// The cluster simulator.
class Cluster {
public:
    /// Builds the memories and loads `image`, the one load path (DESIGN.md
    /// §11): text into the IM banks according to the IM policy
    /// (replicated per core for mc-ref), the data image's shared section
    /// once and its private-template section into every core's private
    /// banks. Campaigns, sweeps and fleets build one image up front and
    /// hand the same shared_ptr to every instance, so the program is
    /// decoded once, not once per reset.
    Cluster(const ClusterConfig& cfg, std::shared_ptr<const isa::ProgramImage> image);

    /// Decodes `prog` into an image of its own and loads that.
    Cluster(const ClusterConfig& cfg, const isa::Program& prog);

    /// Re-initializes this instance to the state a freshly constructed
    /// Cluster(cfg, image) would have — memories reloaded, statistics and
    /// cycle counter cleared, any trace sink detached. All internal
    /// buffers are reused: resetting to the same geometry performs zero
    /// heap allocations, which is what lets sweep and fault-campaign inner
    /// loops run allocation-free on pooled instances (DESIGN.md §10).
    void reset(const ClusterConfig& cfg, std::shared_ptr<const isa::ProgramImage> image);

    /// The program image this instance was loaded from.
    const isa::ProgramImage& image() const { return *image_; }

    /// Advances one clock cycle. Returns false once every core has halted
    /// or trapped (the cluster is then quiescent).
    bool step();

    /// Runs until quiescent or `max_cycles`. Returns the cycle count.
    Cycle run(Cycle max_cycles = 50'000'000);

    const ClusterConfig& config() const { return cfg_; }

    /// Run statistics. The crossbar and bank aggregates are synced on
    /// access rather than every cycle (they accumulate inside the
    /// crossbars / banks).
    const ClusterStats& stats() const {
        stats_.ixbar = ixbar_.stats();
        stats_.dxbar = dxbar_.stats();
        sync_resilience_stats();
        return stats_;
    }

    const core::CoreState& core_state(CoreId pid) const;
    bool core_halted(CoreId pid) const;
    core::Trap core_trap(CoreId pid) const;

    /// Host-side work counters of the trace tier's SPMD lockstep cycle
    /// (DESIGN.md §10): cycles whose execute half / fetch half ran without
    /// arbitration. Not simulated state — kept out of ClusterStats and
    /// snapshots, so every tier reports identical statistics; they exist to
    /// show the path engages. Cleared by reset().
    struct LockstepCounts {
        std::uint64_t execute = 0;
        std::uint64_t fetch = 0;
    };
    const LockstepCounts& lockstep_counts() const { return lockstep_; }

    /// Attaches an event-trace sink (nullptr detaches). Not owned.
    void set_trace(TraceSink* sink) { trace_ = sink; }

    /// Reads/writes core `pid`'s view of data memory (virtual address),
    /// without touching statistics. Models the sensor front-end injecting
    /// per-lead samples and the radio draining results.
    Word dm_peek(CoreId pid, Addr vaddr) const;
    void dm_poke(CoreId pid, Addr vaddr, Word value);

    /// Reads/patches the instruction at program address `pc` without
    /// touching statistics (debuggers, self-test tools). A poke updates
    /// every replica under the Dedicated policy and keeps the pre-decoded
    /// side array coherent (per-word invalidation).
    InstrWord im_peek(PAddr pc, CoreId pid = 0) const;
    void im_poke(PAddr pc, InstrWord word);

    // ---- fault-injection hooks (src/fault, DESIGN.md §9) -------------------
    // All hooks model single-event upsets: they flip stored/architectural
    // bits without re-encoding ECC check bits, so the protection layer sees
    // exactly what a particle strike would leave behind.

    /// Flips `flip_mask` bits of the DM word at core `pid`'s virtual
    /// address `vaddr` (the fault lands in the physical bank cell).
    void inject_dm_fault(CoreId pid, Addr vaddr, Word flip_mask);

    /// Flips bits of the instruction word at `pc` — every replica under
    /// the Dedicated policy, mirroring a strike on each copy's bank cell —
    /// and keeps the pre-decoded side array / fetch table coherent with
    /// what a fetch would now return (the ECC-corrected view when ECC is
    /// on).
    void inject_im_fault(PAddr pc, InstrWord flip_mask);

    /// Flips bits of architectural register `reg` of core `pid`.
    void inject_reg_fault(CoreId pid, unsigned reg, Word flip_mask);

    /// Arms a one-shot arbitration glitch on the I-Xbar (instruction_side)
    /// or D-Xbar for the next arbitration cycle.
    void inject_xbar_glitch(bool instruction_side, const xbar::Glitch& g);

    /// Upsets the arbiter's sequential state (stuck round-robin pointer /
    /// flipped grant register) in the I-Xbar or D-Xbar. Unlike a glitch
    /// these are NOT absorbed by stall/retry: a stuck pointer can starve
    /// masters, a flipped grant register silently corrupts data
    /// (DESIGN.md §9). ClusterConfig::xbar_self_check hardens against both.
    void inject_xbar_state(bool instruction_side, const xbar::ArbiterUpset& u);

    /// Latent-upset population across the ungated IM banks: cells whose
    /// stored bits currently disagree with their ECC check bits. The drain
    /// metric for idle-cycle IM scrubbing (ClusterConfig::im_scrub) — a
    /// population held near zero cannot accumulate into double-bit
    /// uncorrectables. Non-counting; 0 without ECC.
    std::size_t im_latent_upsets() const;

    /// Same population across the DM banks: the drain metric for the DM
    /// scrub walker (ClusterConfig::dm_scrub). Non-counting; 0 without ECC.
    std::size_t dm_latent_upsets() const;

    // ---- register-file protection (DESIGN.md §9) ---------------------------

    /// Registers struck by inject_reg_fault that no instruction has read
    /// or overwritten yet, summed over all cores. A nonzero count after a
    /// run means the upsets are still *latent* — classifying them as
    /// "masked" would overstate the architecture's inherent masking.
    unsigned pending_reg_faults() const;

    /// Per-core variant: bitmask of core `pid`'s registers with a pending
    /// (unobserved) upset.
    Word pending_reg_faults(CoreId pid) const;

    /// Per-core variant of reg_parity_pending().
    bool reg_parity_pending(CoreId pid) const;

    /// True when the parity checker would flag a register on its next
    /// read: an odd-parity upset is latched in some core's register file
    /// and has not been consumed. Only meaningful under
    /// RegProtection::Parity (always false otherwise). The checkpoint
    /// service uses this as its pre-save scrub: saving now would
    /// checkpoint corrupted state.
    bool reg_parity_pending() const;

    /// Checkpoint-time sweep of every register file through the
    /// protection layer. Under TMR this majority-votes (and repairs) every
    /// struck copy so the checkpoint is clean; a no-op in other modes
    /// (parity detection is reported by reg_parity_pending() instead —
    /// parity can detect but not heal).
    void scrub_registers();

private:
    // The checkpoint-storage codec (cluster/ckpt_store) serializes
    // snapshot internals into durable delta records; the clean-run ladder
    // (cluster/clean_run) diffs the DM banks against its previous rung.
    friend class CheckpointStorage;
    friend class CleanRun;

    // CoreCtx precedes the public Snapshot class so snapshots can store
    // core contexts by value.
    struct CoreCtx {
        core::CoreState state;
        mmu::DataMmu mmu;
        Cycle start_cycle = 0;

        // EX slot: decoded instruction awaiting/performing data access.
        // On the fast path `ex` points into the pre-decode array (stable
        // storage; im_poke re-latches an aliased EX into ex_buf so the
        // instruction latched at fetch is what executes, exactly as on the
        // slow path). The slow path decodes into ex_buf.
        const isa::Instruction* ex = nullptr;
        isa::Instruction ex_buf{};
        core::MemPlan plan = {};          // virtual addresses
        bool has_load = false;            // translated load/store, valid
        bool has_store = false;           // when the flag is set
        mmu::BankedAddr load_pa{};
        mmu::BankedAddr store_pa{};
        bool load_done = false;
        std::optional<Word> loaded = std::nullopt;

        bool halted = false;
        bool in_barrier = false;
        core::Trap trap = core::Trap::None;
        Cycle last_commit = 0; ///< watchdog progress marker

        // Register-protection tracking (DESIGN.md §9): bit r set in
        // reg_bad = register r holds an unobserved upset; reg_parity_bad
        // additionally marks the upsets the parity checker can see (odd
        // number of flipped bits). Cleared by the first read (vote/trap/
        // silent consumption) or overwrite of the register.
        Word reg_bad = 0;
        Word reg_parity_bad = 0;
    };

public:
    /// A saved execution state (fault campaigns replay the clean-run
    /// prefix from a snapshot ladder instead of re-simulating it per
    /// injection). Opaque; buffers keep their capacity across save()
    /// calls, so re-saving into the same snapshot allocates nothing.
    ///
    /// The IM is captured deduplicated (DESIGN.md §11): the text is
    /// immutable per campaign and IM cells can differ from the pristine
    /// program image only at the PCs on the cluster's dirty list (pokes
    /// and injected faults record themselves there; ECC scrubbing only
    /// repairs already-dirty cells back toward pristine), so a snapshot
    /// stores per-bank statistics/flags plus the raw cell state of the
    /// dirty PCs — not kImWordsTotal cells per ladder rung. DM banks,
    /// whose contents are genuinely per-instance, are captured in full.
    ///
    /// Contract: a snapshot is portable across instances sharing the same
    /// configuration and program image (every campaign thread restores
    /// rungs of one shared clean-run ladder into its own cluster). Restore
    /// into a different geometry or program is undefined. Restoring undoes
    /// everything after the save point, including injected faults and IM
    /// patches.
    class Snapshot {
        friend class Cluster;
        friend class CheckpointStorage;
        friend class CleanRun;

        /// Raw stored state of one dirty IM cell (one bank replica).
        struct ImCell {
            PAddr pc = 0;
            BankId bank = 0;
            std::uint32_t offset = 0;
            mem::MemoryBank::CellState cell;
        };

        Cycle cycle = 0;
        ClusterStats stats;
        std::uint64_t direct_faults = 0;
        std::vector<CoreCtx> cores;
        std::vector<std::uint8_t> ex_in_buf; ///< per core: EX aliased its own ex_buf
        std::vector<PAddr> im_dirty;         ///< dirty-PC list at save time
        std::vector<ImCell> im_cells;        ///< raw cells of every dirty PC
        std::vector<mem::BankStats> im_stats;
        std::vector<std::uint8_t> im_uncorrectable; ///< per-bank sticky flag
        std::vector<mem::BankSnapshot> dm_banks;
        xbar::XbarSnapshot ixbar;
        xbar::XbarSnapshot dxbar;
        std::vector<std::uint32_t> im_scrub_ptr;
        std::vector<std::uint32_t> dm_scrub_ptr;

    public:
        /// Read-only views for the clean-run ladder's rung bookkeeping.
        Cycle saved_cycle() const { return cycle; }
        const ClusterStats& saved_stats() const { return stats; }
        /// Raw IM cells captured — one per dirty-PC bank replica, NOT
        /// kImWordsTotal (the dedup contract above, pinned by reuse_test).
        std::size_t saved_im_cells() const { return im_cells.size(); }
    };

    /// Copies the full mutable execution state into `out` / back. restore()
    /// leaves the cluster exactly as it was at save() — cycle counter,
    /// statistics, memories, decode caches and arbitration state included —
    /// so continuing the run reproduces the original execution bit-exactly.
    void save(Snapshot& out) const;
    void restore(const Snapshot& s);

    /// True when this cluster's future-determining state — architectural
    /// and microarchitectural state, memories, arbitration and pending
    /// fault machinery, but NOT statistics or event counters — is
    /// bit-identical to the state captured in `s` (same config + image).
    /// The clean-run ladder's rejoin test: the simulator is deterministic,
    /// so two executions in this relation produce identical futures, and a
    /// struck run whose divergence has washed out can take its tail from
    /// the clean run (DESIGN.md §11).
    bool state_equals(const Snapshot& s) const;

private:
    void execute_phase();
    /// Returns the bitmask of IM banks that served a demand fetch (a
    /// physical port activation, not a broadcast ride) this cycle — the
    /// input to the IM scrub walker's idle-bank selection.
    std::uint32_t fetch_phase();
    void watchdog_phase();
    /// Trace-engine burst (DESIGN.md §10): with a single active core the
    /// cluster's timing is conflict-free by construction, so run() advances
    /// through whole superblocks here — committing and fetching in a fused
    /// per-cycle loop and replaying memoized block stats — instead of
    /// paying the generic two-phase machinery every cycle. Returns true
    /// when it advanced at least one cycle (it then left the cluster
    /// exactly where the generic engine would have); false when the
    /// current state is not burst-eligible.
    bool trace_burst(Cycle max_cycles);
    /// SPMD lockstep execute half (trace tier, DESIGN.md §10): when two or
    /// more active cores hold the same pre-decoded instruction in EX and one
    /// bitmask pass proves their D-side requests conflict-free, they commit
    /// in core order without D-Xbar arbitration. Returns false — having
    /// changed nothing — when the proof fails; execute_phase() runs instead.
    bool lockstep_execute();
    /// SPMD lockstep fetch half: when two or more live cores fetch the same
    /// PC under IM broadcast, one bank read serves them all (the rotated-
    /// priority winner's, the rest credited as riders). On success stores
    /// the fetched-bank mask for the IM scrub walker in `fetched_banks`; returns
    /// false, having changed nothing, when fetch_phase() must run instead.
    bool lockstep_fetch(std::uint32_t& fetched_banks);
    /// The tail of every fetch path: resets the EX slot's access state for
    /// the instruction just latched in c.ex and, when `needs_plan`,
    /// computes its data-access plan and translates the load/store
    /// addresses (a store to the barrier register touches no memory).
    /// Returns false when a translation raised MemoryFault.
    bool plan_access(CoreCtx& c, bool needs_plan);
    /// Re-derives the trace engine's text image word + block map after an
    /// IM mutation (im_poke / inject_im_fault): `readback` is what a fetch
    /// at `pc` now returns. No-op unless the trace engine is active.
    void refresh_blockmap(PAddr pc, InstrWord readback);
    void commit(CoreCtx& c, CoreId pid);
    /// Register-protection check on the instruction about to enter EX /
    /// commit: applies the configured scheme to the registers it reads
    /// (TMR vote, parity trap, or silent consumption) and clears the
    /// tracking bits its writes overwrite. Returns false when a parity
    /// mismatch fail-stopped the core (the instruction must not execute).
    /// Call only while c.reg_bad != 0 — the common case costs one test.
    bool reg_fault_guard(CoreCtx& c, const isa::Instruction& in);
    void raise_trap(CoreCtx& c, core::Trap t);
    void sync_resilience_stats() const;
    bool core_done(const CoreCtx& c) const { return c.halted || c.trap != core::Trap::None; }
    void release_barrier_if_complete();
    /// Takes a finished core off the active list (lazily, at the next
    /// step()) and clears its request slots so the crossbars never see a
    /// stale claim from it.
    void retire_core(CoreId pid);

    /// One PC's fetch fully resolved: physical IM location plus the
    /// pre-decoded entry stored there (nullptr = illegal word). Built once
    /// at load for PID-independent IM policies; the fetch path then costs
    /// one indexed read instead of an MMU translate plus a decode lookup.
    struct FetchSlot {
        const isa::DecodedInstr* pre = nullptr;
        BankId bank = 0;
        std::uint32_t offset = 0;
    };

    ClusterConfig cfg_;
    /// The immutable program half (DESIGN.md §11), shared by every
    /// instance loaded from it.
    std::shared_ptr<const isa::ProgramImage> image_;
    mmu::ImMap im_map_;
    std::vector<CoreCtx> cores_;
    std::vector<mem::MemoryBank> im_banks_;
    std::vector<mem::MemoryBank> dm_banks_;
    xbar::Crossbar ixbar_;
    xbar::Crossbar dxbar_;
    isa::PredecodedIm predecoded_; ///< side array mirroring im_banks_
    /// PC-indexed fetch table (fast path, Interleaved/Banked policies —
    /// their PC->bank mapping is the same for every core). Empty when the
    /// slow path or the Dedicated policy is in use; im_poke keeps it
    /// coherent. Indexing it beyond size() is exactly the set of PCs the
    /// ImMap refuses, so a miss raises the same FetchFault.
    std::vector<FetchSlot> fetch_table_;
    /// Trace engine only: the program text as a fetch would read it back,
    /// plus its basic-block partition with memoized per-block timing.
    /// Rebuilt wholesale on every IM mutation (DESIGN.md §10 invalidation
    /// rule: boundaries are a global property of the text, and pokes are
    /// orders of magnitude rarer than fetches).
    std::vector<InstrWord> text_image_;
    isa::BlockMap blockmap_;
    /// Every PC whose IM word was mutated (im_poke / inject_im_fault) since
    /// the last reset(). restore() re-derives the decode caches for exactly
    /// these words from the restored bank cells — the only words whose
    /// cache entries can disagree after rolling the cells back. Also the
    /// basis of the deduplicated IM snapshot: cells off this list are
    /// provably pristine.
    std::vector<PAddr> im_dirty_;
    std::vector<PAddr> im_dirty_union_; ///< restore()/state_equals() scratch
    /// Per-IM-bank scrub-walker position (next word to check); advances on
    /// every idle cycle of its bank when cfg_.im_scrub is on.
    std::vector<std::uint32_t> im_scrub_ptr_;
    /// Per-DM-bank scrub-walker position; advances on every idle cycle of
    /// its bank when cfg_.dm_scrub is on.
    std::vector<std::uint32_t> dm_scrub_ptr_;
    /// DM banks that served a granted request this cycle (set during
    /// execute_phase, consumed by the DM scrub walker).
    std::uint32_t dm_busy_banks_ = 0;
    mutable ClusterStats stats_;   ///< mutable: stats() syncs xbar aggregates
    /// Loaded program length: fetching at or beyond it is a FetchFault
    /// (same boundary as the functional ISS), not a walk through the
    /// zero-filled remainder of the bank.
    std::uint32_t text_size_ = 0;
    Cycle cycle_ = 0;
    TraceSink* trace_ = nullptr;
    LockstepCounts lockstep_;
    std::uint64_t direct_faults_ = 0; ///< reg/xbar injections (banks count their own)

    /// Cores that are neither halted nor trapped: the per-cycle phases
    /// iterate only these, so finished cores cost zero work per cycle.
    std::vector<CoreId> active_cores_;
    bool active_dirty_ = false; ///< a core finished since the last compaction

    void emit(CoreId core, EventKind kind, std::uint32_t a = 0, std::uint32_t b = 0) {
        if (trace_) trace_->on_event(TraceEvent{cycle_, core, kind, a, b});
    }

    // scratch buffers reused every cycle
    std::vector<xbar::Request> dm_req_;
    std::vector<xbar::Grant> dm_grant_;
    std::vector<xbar::Request> im_req_;
    std::vector<xbar::Grant> im_grant_;
    std::vector<PAddr> fetch_pc_;
};

} // namespace ulpmc::cluster
