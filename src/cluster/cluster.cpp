#include "cluster/cluster.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/assert.hpp"
#include "isa/encoding.hpp"

namespace ulpmc::cluster {

// The data crossbar sees two master ports per core — the core's data-read
// and data-write ports (paper §III-A: three memory ports usable in the
// same cycle; the third is the instruction port on the I-Xbar).
static unsigned read_port(unsigned pid) { return 2 * pid; }
static unsigned write_port(unsigned pid) { return 2 * pid + 1; }

// Idle-cycle scrubbing (DESIGN.md §9), one walker for IM and DM: every
// ungated bank that served no request this cycle (its `busy` bit clear;
// the SRAM is single-ported) advances its walker by one word, repairing a
// latent single-bit upset in place. Gated banks hold no live content.
// Each step is priced by the power model.
static inline void scrub_idle_banks(std::vector<mem::MemoryBank>& banks,
                                    std::vector<std::uint32_t>& ptrs, std::uint32_t busy,
                                    std::uint64_t& reads, std::uint64_t& corrected,
                                    std::uint64_t& uncorrectable) {
    for (std::size_t b = 0; b < banks.size(); ++b) {
        mem::MemoryBank& bank = banks[b];
        if (bank.power_gated()) continue;
        if (b < 32 && (busy & (std::uint32_t{1} << b))) continue;
        std::uint32_t& ptr = ptrs[b];
        const mem::MemoryBank::ScrubResult r = bank.scrub_step(ptr);
        ptr = ptr + 1 == bank.size() ? 0 : ptr + 1;
        ++reads;
        corrected += r.corrected;
        uncorrectable += r.uncorrectable;
    }
}

Cluster::Cluster(const ClusterConfig& cfg, const isa::Program& prog)
    : Cluster(cfg, isa::ProgramImage::build(prog)) {}

Cluster::Cluster(const ClusterConfig& cfg, std::shared_ptr<const isa::ProgramImage> image)
    : cfg_(cfg), im_map_(cfg.im_policy, cfg.im_banks, cfg.im_bank_words),
      ixbar_(cfg.cores, cfg.im_banks, cfg.im_broadcast),
      dxbar_(2 * cfg.cores, cfg.dm_banks, cfg.dm_broadcast) {
    reset(cfg, std::move(image));
}

void Cluster::reset(const ClusterConfig& cfg_in, std::shared_ptr<const isa::ProgramImage> image) {
    ULPMC_EXPECTS(image != nullptr);
    ULPMC_EXPECTS(!image->text().empty());
    image_ = std::move(image);
    cfg_ = cfg_in;
    const ClusterConfig& cfg = cfg_;
    const isa::ProgramImage& img = *image_;
    ULPMC_EXPECTS(cfg.cores > 0 && cfg.cores <= kNumCores);
    im_map_ = mmu::ImMap(cfg.im_policy, cfg.im_banks, cfg.im_bank_words);
    text_size_ = img.text_size();
    cycle_ = 0;
    trace_ = nullptr;
    lockstep_ = {};
    direct_faults_ = 0;
    im_dirty_.clear();
    ixbar_.reset(cfg.cores, cfg.im_banks, cfg.im_broadcast);
    dxbar_.reset(2 * cfg.cores, cfg.dm_banks, cfg.dm_broadcast);
    ixbar_.set_fast_path(cfg.fast_path());
    dxbar_.set_fast_path(cfg.fast_path());
    ixbar_.set_self_check(cfg.xbar_self_check);
    dxbar_.set_self_check(cfg.xbar_self_check);
    im_scrub_ptr_.assign(cfg.im_banks, 0);
    dm_scrub_ptr_.assign(cfg.dm_banks, 0);
    dm_busy_banks_ = 0;
    predecoded_.reset(cfg.im_banks, cfg.im_bank_words);

    // --- (re)construct memories ---------------------------------------------
    im_banks_.resize(cfg.im_banks);
    for (auto& b : im_banks_) b.reset(cfg.im_bank_words, 24, cfg.ecc_enabled);
    dm_banks_.resize(cfg.dm_banks);
    for (auto& b : dm_banks_) b.reset(cfg.dm_bank_words, 16, cfg.ecc_enabled);

    // --- statistics (scalar fields reset, per-core vector storage reused) ---
    {
        std::vector<CoreRunStats> keep = std::move(stats_.core);
        stats_ = {};
        stats_.core = std::move(keep);
        stats_.core.assign(cfg.cores, {});
        stats_.ecc_enabled = cfg.ecc_enabled;
        stats_.reg_protection = cfg.reg_protection;
        stats_.im_scrub_enabled = cfg.im_scrub;
        stats_.dm_scrub_enabled = cfg.dm_scrub;
        stats_.xbar_self_check = cfg.xbar_self_check;
    }

    // --- (re)construct cores ------------------------------------------------
    cores_.clear();
    cores_.reserve(cfg.cores);
    for (unsigned p = 0; p < cfg.cores; ++p) {
        CoreCtx c{.mmu = mmu::DataMmu(cfg.dm_layout, static_cast<CoreId>(p), cfg.dm_banks,
                                      cfg.dm_bank_words)};
        c.start_cycle = cfg.stagger_start ? static_cast<Cycle>(p) : 0;
        c.state.pc = img.entry();
        cores_.push_back(std::move(c));
    }
    active_cores_.clear();
    active_cores_.reserve(cfg.cores);
    for (unsigned p = 0; p < cfg.cores; ++p) active_cores_.push_back(static_cast<CoreId>(p));
    active_dirty_ = false;

    // --- per-cycle scratch --------------------------------------------------
    dm_req_.assign(2 * cfg.cores, {});
    dm_grant_.assign(2 * cfg.cores, {});
    im_req_.assign(cfg.cores, {});
    im_grant_.assign(cfg.cores, {});
    fetch_pc_.assign(cfg.cores, 0);

    // --- load text ----------------------------------------------------------
    // The decode was done once when the ProgramImage was built; each
    // instance only pokes the words into its banks and copies the
    // pre-derived entries into its side array (DESIGN.md §11). Under the
    // Dedicated policy that turns N-replica re-decoding into N copies.
    const auto& text = img.text();
    if (cfg.im_policy == mmu::ImPolicy::Dedicated) {
        ULPMC_EXPECTS(text.size() <= cfg.im_bank_words);
        for (unsigned b = 0; b < cfg.im_banks; ++b) {
            for (std::size_t i = 0; i < text.size(); ++i) {
                im_banks_[b].poke(i, text[i]);
                predecoded_.set_entry(static_cast<BankId>(b), static_cast<std::uint32_t>(i),
                                      img.decoded(static_cast<PAddr>(i)));
            }
        }
    } else {
        for (std::size_t i = 0; i < text.size(); ++i) {
            const auto pa = im_map_.translate(static_cast<PAddr>(i), 0);
            ULPMC_EXPECTS(pa.has_value());
            im_banks_[pa->bank].poke(pa->offset, text[i]);
            predecoded_.set_entry(pa->bank, pa->offset, img.decoded(static_cast<PAddr>(i)));
        }
    }

    // --- PC-indexed fetch table ---------------------------------------------
    // For PID-independent policies, resolve every reachable PC once:
    // translate + predecode-lookup collapse into a single indexed read on
    // the per-cycle fetch path. Built via the ImMap itself, so the mapping
    // (and the set of faulting PCs) is identical by construction.
    if (cfg_.fast_path() && cfg_.im_policy != mmu::ImPolicy::Dedicated) {
        // Sized to the loaded text, not the full IM capacity: every fetch
        // beyond text_size_ traps before the table is consulted, so the
        // out-of-text entries were dead weight (32k slots per reset).
        const std::size_t words = std::min<std::size_t>(
            text_size_, static_cast<std::size_t>(cfg_.im_banks) * cfg_.im_bank_words);
        fetch_table_.resize(words);
        for (std::size_t pc = 0; pc < words; ++pc) {
            const auto pa = im_map_.translate(static_cast<PAddr>(pc), 0);
            ULPMC_ASSERT(pa.has_value());
            fetch_table_[pc] = {.pre = predecoded_.lookup(pa->bank, pa->offset),
                                .bank = pa->bank,
                                .offset = pa->offset};
        }
    } else {
        fetch_table_.clear();
    }

    // --- superblock map (trace/batched engines) ------------------------------
    if (cfg_.trace_path()) {
        // Copy the image's pre-built map instead of re-deriving it; the
        // copy-assignments reuse this instance's buffer capacity.
        text_image_.assign(text.begin(), text.end());
        blockmap_ = img.blockmap();
    } else {
        text_image_.clear();
        blockmap_.rebuild(text_image_);
    }

    stats_.im_banks_used = im_map_.banks_used(text.size());
    if (cfg.gate_unused_im_banks) {
        for (unsigned b = stats_.im_banks_used; b < cfg.im_banks; ++b)
            im_banks_[b].set_power_gated(true);
        stats_.im_banks_gated = cfg.im_banks - stats_.im_banks_used;
    }
    stats_.im_banks_total = cfg.im_banks;

    // --- load data image ----------------------------------------------------
    const auto& data = img.data();
    ULPMC_EXPECTS(data.size() <= cfg.dm_layout.limit());
    const std::size_t shared_end = std::min<std::size_t>(data.size(), cfg.dm_layout.shared_words);
    for (std::size_t v = 0; v < shared_end; ++v) {
        const auto pa = cores_[0].mmu.translate(static_cast<Addr>(v));
        ULPMC_ASSERT(pa.has_value());
        dm_banks_[pa->bank].poke(pa->offset, data[v]);
    }
    for (std::size_t v = cfg.dm_layout.shared_words; v < data.size(); ++v) {
        for (auto& c : cores_) {
            const auto pa = c.mmu.translate(static_cast<Addr>(v));
            ULPMC_ASSERT(pa.has_value());
            dm_banks_[pa->bank].poke(pa->offset, data[v]);
        }
    }
}

const core::CoreState& Cluster::core_state(CoreId pid) const {
    ULPMC_EXPECTS(pid < cores_.size());
    return cores_[pid].state;
}

bool Cluster::core_halted(CoreId pid) const {
    ULPMC_EXPECTS(pid < cores_.size());
    return cores_[pid].halted;
}

core::Trap Cluster::core_trap(CoreId pid) const {
    ULPMC_EXPECTS(pid < cores_.size());
    return cores_[pid].trap;
}

Word Cluster::dm_peek(CoreId pid, Addr vaddr) const {
    ULPMC_EXPECTS(pid < cores_.size());
    const auto pa = cores_[pid].mmu.translate(vaddr);
    ULPMC_EXPECTS(pa.has_value());
    return static_cast<Word>(dm_banks_[pa->bank].peek(pa->offset));
}

void Cluster::dm_poke(CoreId pid, Addr vaddr, Word value) {
    ULPMC_EXPECTS(pid < cores_.size());
    const auto pa = cores_[pid].mmu.translate(vaddr);
    ULPMC_EXPECTS(pa.has_value());
    dm_banks_[pa->bank].poke(pa->offset, value);
}

InstrWord Cluster::im_peek(PAddr pc, CoreId pid) const {
    ULPMC_EXPECTS(pid < cores_.size());
    const auto pa = im_map_.translate(pc, pid);
    ULPMC_EXPECTS(pa.has_value());
    return static_cast<InstrWord>(im_banks_[pa->bank].peek(pa->offset));
}

template <class Edit>
void Cluster::refresh_im_word(PAddr pc, Edit&& edit) {
    // Mirrors the loader: the Dedicated policy replicates text per core,
    // so an edit must reach every replica.
    const unsigned replicas = cfg_.im_policy == mmu::ImPolicy::Dedicated ? cfg_.cores : 1;
    InstrWord readback = 0;
    for (unsigned p = 0; p < replicas; ++p) {
        const auto pa = im_map_.translate(pc, static_cast<CoreId>(p));
        ULPMC_EXPECTS(pa.has_value());
        // A core whose EX slot aliases the refreshed entry keeps the
        // instruction it latched at fetch (what the hardware — and the
        // slow path, which copies at decode — would execute).
        const isa::DecodedInstr& old = predecoded_.entry(pa->bank, pa->offset);
        for (auto& c : cores_) {
            if (c.ex == &old.instr) {
                c.ex_buf = old.instr;
                c.ex = &c.ex_buf;
            }
        }
        mem::MemoryBank& bank = im_banks_[pa->bank];
        edit(bank, pa->offset);
        // The readback view: the corrected word when ECC heals an upset,
        // the stored word when it doesn't.
        readback = static_cast<InstrWord>(bank.peek(pa->offset));
        predecoded_.refresh(pa->bank, pa->offset, readback);
        if (pc < fetch_table_.size())
            fetch_table_[pc].pre = predecoded_.lookup(pa->bank, pa->offset);
    }
    if (cfg_.trace_path() && pc < text_image_.size()) text_image_[pc] = readback & kInstrWordMask;
}

void Cluster::note_im_mutation(PAddr pc) {
    if (std::find(im_dirty_.begin(), im_dirty_.end(), pc) == im_dirty_.end())
        im_dirty_.push_back(pc);
    if (cfg_.trace_path() && pc < text_image_.size()) blockmap_.rebuild(text_image_);
}

void Cluster::im_poke(PAddr pc, InstrWord word) {
    refresh_im_word(pc, [word](mem::MemoryBank& bank, std::uint32_t offset) {
        bank.poke(offset, word);
    });
    note_im_mutation(pc);
}

void Cluster::save(Snapshot& out) const {
    Snapshot::Control& c = out.ctl;
    c.cycle = cycle_;
    // Through the accessor: the crossbar / resilience aggregates sync
    // lazily, and saved_stats() consumers (rejoin-tail materialization)
    // need the fully materialized view.
    c.stats = stats();
    c.direct_faults = direct_faults_;
    c.cores = cores_;
    // Materialize every live EX slot into its ex_buf so the snapshot is
    // self-contained: a slot aliasing this instance's predecoded_ array
    // would otherwise pin the snapshot to this instance (campaign threads
    // restore one shared ladder's rungs into their own clusters). Content is
    // identical either way — the re-latch in refresh_im_word just becomes a
    // no-op for restored cores.
    c.ex_in_buf.assign(cores_.size(), 0);
    for (std::size_t p = 0; p < cores_.size(); ++p) {
        const CoreCtx& core = cores_[p];
        c.ex_in_buf[p] = core.ex != nullptr ? 1 : 0;
        if (core.ex != nullptr && core.ex != &core.ex_buf) c.cores[p].ex_buf = *core.ex;
    }
    // Deduplicated IM capture: the raw state of exactly the dirty cells
    // (see the Snapshot class comment).
    c.im_dirty = im_dirty_;
    c.im_cells.clear();
    const unsigned replicas = cfg_.im_policy == mmu::ImPolicy::Dedicated ? cfg_.cores : 1;
    for (const PAddr pc : im_dirty_) {
        for (unsigned p = 0; p < replicas; ++p) {
            const auto pa = im_map_.translate(pc, static_cast<CoreId>(p));
            ULPMC_EXPECTS(pa.has_value());
            c.im_cells.push_back(
                {pc, pa->bank, pa->offset, im_banks_[pa->bank].cell_state(pa->offset)});
        }
    }
    c.im_stats.resize(im_banks_.size());
    c.im_uncorrectable.resize(im_banks_.size());
    for (std::size_t b = 0; b < im_banks_.size(); ++b) {
        c.im_stats[b] = im_banks_[b].stats();
        c.im_uncorrectable[b] = im_banks_[b].uncorrectable_pending() ? 1 : 0;
    }
    c.dm_meta.resize(dm_banks_.size());
    out.dm.resize(dm_banks_.size());
    for (std::size_t b = 0; b < dm_banks_.size(); ++b) {
        c.dm_meta[b] = dm_banks_[b].meta();
        dm_banks_[b].save(out.dm[b]);
    }
    ixbar_.save(c.ixbar);
    dxbar_.save(c.dxbar);
    c.im_scrub_ptr = im_scrub_ptr_;
    c.dm_scrub_ptr = dm_scrub_ptr_;
}

void Cluster::restore(const Snapshot& snap) {
    const Snapshot::Control& s = snap.ctl;
    ULPMC_EXPECTS(s.cores.size() == cores_.size());
    ULPMC_EXPECTS(s.im_stats.size() == im_banks_.size());
    ULPMC_EXPECTS(s.dm_meta.size() == dm_banks_.size() && snap.dm.size() == dm_banks_.size());
    cycle_ = s.cycle;
    stats_ = s.stats;
    direct_faults_ = s.direct_faults;
    cores_ = s.cores;
    // save() materialized every live EX slot into its ex_buf; re-aim the
    // pointers at THIS instance's copies (the copied pointer values may
    // reference the source instance).
    for (std::size_t p = 0; p < cores_.size(); ++p)
        cores_[p].ex = s.ex_in_buf[p] ? &cores_[p].ex_buf : nullptr;

    // IM roll-back from the deduplicated capture: cells can disagree with
    // the snapshot only at PCs dirty now or dirty at save time. Return the
    // union to pristine (poke re-encodes check bits exactly as the loader
    // did), then lay the saved raw cells back down.
    im_dirty_union_.assign(im_dirty_.begin(), im_dirty_.end());
    for (const PAddr pc : s.im_dirty)
        if (std::find(im_dirty_union_.begin(), im_dirty_union_.end(), pc) ==
            im_dirty_union_.end())
            im_dirty_union_.push_back(pc);
    const auto& text = image_->text();
    const unsigned replicas = cfg_.im_policy == mmu::ImPolicy::Dedicated ? cfg_.cores : 1;
    for (const PAddr pc : im_dirty_union_) {
        const InstrWord pristine = pc < text.size() ? text[pc] : 0;
        for (unsigned p = 0; p < replicas; ++p) {
            const auto pa = im_map_.translate(pc, static_cast<CoreId>(p));
            ULPMC_EXPECTS(pa.has_value());
            im_banks_[pa->bank].poke(pa->offset, pristine);
        }
    }
    for (const Snapshot::ImCell& c : s.im_cells) im_banks_[c.bank].set_cell_state(c.offset, c.cell);
    for (std::size_t b = 0; b < im_banks_.size(); ++b)
        im_banks_[b].set_meta(
            {s.im_stats[b], im_banks_[b].power_gated(), s.im_uncorrectable[b] != 0});
    im_dirty_ = s.im_dirty;
    for (std::size_t b = 0; b < dm_banks_.size(); ++b) {
        dm_banks_[b].restore(snap.dm[b]);
        dm_banks_[b].set_meta(s.dm_meta[b]);
    }
    ixbar_.restore(s.ixbar);
    dxbar_.restore(s.dxbar);
    im_scrub_ptr_ = s.im_scrub_ptr;
    dm_scrub_ptr_ = s.dm_scrub_ptr;

    // Decode caches: rolling the cells back can strand the cache entries of
    // any word that was dirty on either side; re-derive exactly those from
    // the restored cells, then the block map once.
    if (!im_dirty_union_.empty()) {
        for (const PAddr pc : im_dirty_union_)
            refresh_im_word(pc, [](mem::MemoryBank&, std::uint32_t) {});
        if (cfg_.trace_path()) blockmap_.rebuild(text_image_);
    }

    // Arbitration scratch and the active-core list are derived state.
    for (auto& r : im_req_) r = {};
    for (auto& r : dm_req_) r = {};
    active_cores_.clear();
    for (unsigned p = 0; p < cores_.size(); ++p)
        if (!core_done(cores_[p])) active_cores_.push_back(static_cast<CoreId>(p));
    active_dirty_ = false;
}

std::size_t Cluster::Snapshot::Control::heap_bytes() const {
    return stats.core.capacity() * sizeof(CoreRunStats) + cores.capacity() * sizeof(CoreCtx) +
           ex_in_buf.capacity() + im_dirty.capacity() * sizeof(PAddr) +
           im_cells.capacity() * sizeof(ImCell) + im_stats.capacity() * sizeof(mem::BankStats) +
           im_uncorrectable.capacity() + dm_meta.capacity() * sizeof(mem::BankMeta) +
           (im_scrub_ptr.capacity() + dm_scrub_ptr.capacity()) * sizeof(std::uint32_t);
}

bool Cluster::state_equals(const Snapshot& snap) const {
    const Snapshot::Control& s = snap.ctl;
    if (cycle_ != s.cycle || cores_.size() != s.cores.size()) return false;
    for (std::size_t p = 0; p < cores_.size(); ++p) {
        const CoreCtx& a = cores_[p];
        const CoreCtx& b = s.cores[p];
        if (!(a.state == b.state)) return false;
        if (a.halted != b.halted || a.in_barrier != b.in_barrier || a.trap != b.trap ||
            a.last_commit != b.last_commit || a.reg_bad != b.reg_bad ||
            a.reg_parity_bad != b.reg_parity_bad)
            return false;
        // EX slot by content (the snapshot materialized it into ex_buf).
        if ((a.ex != nullptr) != (s.ex_in_buf[p] != 0)) return false;
        if (a.ex != nullptr && !(*a.ex == b.ex_buf)) return false;
        if (a.plan.load != b.plan.load || a.plan.store != b.plan.store) return false;
        if (a.has_load != b.has_load || a.has_store != b.has_store ||
            a.load_done != b.load_done || a.loaded != b.loaded)
            return false;
        if (a.has_load && !(a.load_pa == b.load_pa)) return false;
        if (a.has_store && !(a.store_pa == b.store_pa)) return false;
    }
    // IM cells: both sides are pristine off their dirty lists, so only the
    // union needs comparing. Expected state of a PC on the snapshot's
    // dirty list is its saved raw cell; off it, the pristine image word.
    const auto& text = image_->text();
    const unsigned replicas = cfg_.im_policy == mmu::ImPolicy::Dedicated ? cfg_.cores : 1;
    const auto pc_matches = [&](PAddr pc) {
        for (unsigned p = 0; p < replicas; ++p) {
            const auto pa = im_map_.translate(pc, static_cast<CoreId>(p));
            ULPMC_EXPECTS(pa.has_value());
            const auto actual = im_banks_[pa->bank].cell_state(pa->offset);
            mem::MemoryBank::CellState expected;
            bool saved = false;
            for (const Snapshot::ImCell& c : s.im_cells) {
                if (c.pc == pc && c.bank == pa->bank && c.offset == pa->offset) {
                    expected = c.cell;
                    saved = true;
                    break;
                }
            }
            if (!saved) {
                const InstrWord pristine = pc < text.size() ? text[pc] : 0;
                expected.cell = pristine;
                expected.check =
                    cfg_.ecc_enabled ? mem::ecc::encode(pristine, 24) : std::uint8_t{0};
            }
            if (!(actual == expected)) return false;
        }
        return true;
    };
    for (const PAddr pc : im_dirty_)
        if (!pc_matches(pc)) return false;
    for (const PAddr pc : s.im_dirty) {
        if (std::find(im_dirty_.begin(), im_dirty_.end(), pc) != im_dirty_.end()) continue;
        if (!pc_matches(pc)) return false;
    }
    for (std::size_t b = 0; b < im_banks_.size(); ++b)
        if (im_banks_[b].uncorrectable_pending() != (s.im_uncorrectable[b] != 0)) return false;
    for (std::size_t b = 0; b < dm_banks_.size(); ++b)
        if (!dm_banks_[b].state_equals(snap.dm[b], s.dm_meta[b])) return false;
    if (!ixbar_.state_equals(s.ixbar) || !dxbar_.state_equals(s.dxbar)) return false;
    return im_scrub_ptr_ == s.im_scrub_ptr && dm_scrub_ptr_ == s.dm_scrub_ptr;
}

void Cluster::inject_dm_fault(CoreId pid, Addr vaddr, Word flip_mask) {
    ULPMC_EXPECTS(pid < cores_.size());
    const auto pa = cores_[pid].mmu.translate(vaddr);
    ULPMC_EXPECTS(pa.has_value());
    dm_banks_[pa->bank].corrupt(pa->offset, flip_mask);
}

void Cluster::inject_im_fault(PAddr pc, InstrWord flip_mask) {
    // Same path as im_poke, but the bank cell is corrupted in place (check
    // bits untouched), so the decode caches follow the bank's readback.
    refresh_im_word(pc, [flip_mask](mem::MemoryBank& bank, std::uint32_t offset) {
        bank.corrupt(offset, flip_mask & kInstrWordMask);
    });
    note_im_mutation(pc);
}

void Cluster::inject_reg_fault(CoreId pid, unsigned reg, Word flip_mask) {
    ULPMC_EXPECTS(pid < cores_.size());
    ULPMC_EXPECTS(reg < kNumRegisters);
    CoreCtx& c = cores_[pid];
    const Word bit = static_cast<Word>(Word{1} << reg);
    if (cfg_.reg_protection == core::RegProtection::Tmr) {
        // The strike lands in one of the three TMR copies: the voted
        // (architectural) value stays correct, and the next read's
        // majority vote repairs the struck copy (counted in the guard).
        c.reg_bad |= bit;
    } else {
        c.state.regs[reg] ^= flip_mask;
        c.reg_bad |= bit;
        // The parity checker only sees an odd number of flipped bits;
        // repeated strikes on the same register toggle the mismatch.
        if (std::popcount(static_cast<unsigned>(flip_mask)) % 2 != 0) c.reg_parity_bad ^= bit;
    }
    ++direct_faults_;
}

bool Cluster::reg_fault_guard(CoreCtx& c, const isa::Instruction& in) {
    const core::RegAccess a = core::reg_access(in);
    const Word touched = static_cast<Word>(a.read & c.reg_bad);
    if (touched != 0) {
        switch (cfg_.reg_protection) {
        case core::RegProtection::Tmr:
            // Every read port votes 2-of-3 and writes the repaired value
            // back into the struck copy: the upset is masked in place.
            stats_.reg_tmr_votes += static_cast<unsigned>(std::popcount(touched));
            break;
        case core::RegProtection::Parity:
            if ((touched & c.reg_parity_bad) != 0) {
                ++stats_.reg_parity_traps;
                c.reg_bad &= static_cast<Word>(~touched);
                c.reg_parity_bad &= static_cast<Word>(~touched);
                raise_trap(c, core::Trap::RegParityFault);
                return false;
            }
            break; // even-parity corruption slips past the checker
        case core::RegProtection::None:
            break; // the corrupted value flows into the datapath
        }
        c.reg_bad &= static_cast<Word>(~touched);
        c.reg_parity_bad &= static_cast<Word>(~touched);
    }
    // A write overwrites the upset before anything could observe it.
    c.reg_bad &= static_cast<Word>(~a.write);
    c.reg_parity_bad &= static_cast<Word>(~a.write);
    return true;
}

unsigned Cluster::pending_reg_faults() const {
    unsigned n = 0;
    for (const auto& c : cores_) n += static_cast<unsigned>(std::popcount(c.reg_bad));
    return n;
}

Word Cluster::pending_reg_faults(CoreId pid) const {
    ULPMC_EXPECTS(pid < cores_.size());
    return cores_[pid].reg_bad;
}

bool Cluster::reg_parity_pending() const {
    if (cfg_.reg_protection != core::RegProtection::Parity) return false;
    for (const auto& c : cores_)
        if (c.reg_parity_bad != 0) return true;
    return false;
}

bool Cluster::reg_parity_pending(CoreId pid) const {
    ULPMC_EXPECTS(pid < cores_.size());
    return cfg_.reg_protection == core::RegProtection::Parity &&
           cores_[pid].reg_parity_bad != 0;
}

void Cluster::scrub_registers() {
    if (cfg_.reg_protection != core::RegProtection::Tmr) return;
    for (auto& c : cores_) {
        if (c.reg_bad == 0) continue;
        stats_.reg_tmr_votes += static_cast<unsigned>(std::popcount(c.reg_bad));
        c.reg_bad = 0;
        c.reg_parity_bad = 0;
    }
}

void Cluster::inject_xbar_glitch(bool instruction_side, const xbar::Glitch& g) {
    (instruction_side ? ixbar_ : dxbar_).inject_glitch(g);
    ++direct_faults_;
}

void Cluster::inject_xbar_state(bool instruction_side, const xbar::ArbiterUpset& u) {
    (instruction_side ? ixbar_ : dxbar_).inject_arbiter_upset(u);
    ++direct_faults_;
}

std::size_t Cluster::dm_latent_upsets() const {
    std::size_t n = 0;
    for (const auto& b : dm_banks_) n += b.latent_upsets();
    return n;
}

std::size_t Cluster::im_latent_upsets() const {
    std::size_t n = 0;
    for (const auto& b : im_banks_)
        if (!b.power_gated()) n += b.latent_upsets();
    return n;
}

void Cluster::sync_resilience_stats() const {
    std::uint64_t im_corr = 0, dm_corr = 0, uncorr = 0, injected = direct_faults_;
    for (const auto& b : im_banks_) {
        im_corr += b.stats().ecc_corrected;
        uncorr += b.stats().ecc_uncorrectable;
        injected += b.stats().faults_injected;
    }
    for (const auto& b : dm_banks_) {
        dm_corr += b.stats().ecc_corrected;
        uncorr += b.stats().ecc_uncorrectable;
        injected += b.stats().faults_injected;
    }
    stats_.ecc_im_corrected = im_corr;
    stats_.ecc_dm_corrected = dm_corr;
    stats_.ecc_uncorrectable = uncorr;
    stats_.faults_injected = injected;
}

void Cluster::raise_trap(CoreCtx& c, core::Trap t) {
    c.trap = t;
    c.ex = nullptr;
    const auto pid = static_cast<std::size_t>(&c - cores_.data());
    emit(static_cast<CoreId>(pid), EventKind::Trap, static_cast<std::uint32_t>(t));
    stats_.core[pid].trap = t;
    stats_.core[pid].halted_at = cycle_;
    stats_.cycles = std::max(stats_.cycles, cycle_);
    retire_core(static_cast<CoreId>(pid));
}

void Cluster::retire_core(CoreId pid) {
    im_req_[pid] = {};
    dm_req_[read_port(pid)] = {};
    dm_req_[write_port(pid)] = {};
    active_dirty_ = true;
}

bool Cluster::step() {
    if (active_dirty_) {
        std::erase_if(active_cores_, [this](CoreId p) { return core_done(cores_[p]); });
        active_dirty_ = false;
    }
    if (active_cores_.empty()) return false;

    ++cycle_;
    // The trace tier tries each half as an SPMD lockstep half first; a
    // failed proof leaves the state untouched for the generic phase.
    const bool trace = cfg_.trace_path();
    if (!trace || !lockstep_execute()) execute_phase();
    if (cfg_.dm_scrub)
        scrub_idle_banks(dm_banks_, dm_scrub_ptr_, dm_busy_banks_, stats_.dm_scrub_reads,
                         stats_.dm_scrub_corrected, stats_.dm_scrub_uncorrectable);
    std::uint32_t fetched_banks = 0;
    if (!trace || !lockstep_fetch(fetched_banks)) fetched_banks = fetch_phase();
    if (cfg_.im_scrub)
        scrub_idle_banks(im_banks_, im_scrub_ptr_, fetched_banks, stats_.im_scrub_reads,
                         stats_.im_scrub_corrected, stats_.im_scrub_uncorrectable);
    if (cfg_.watchdog_cycles > 0) watchdog_phase();

    // Keep the cycle counter live every cycle, so a run that hits its
    // max_cycles bound while cores still execute reports the cycles it
    // actually simulated (not the last halt/trap bookkeeping point). The
    // crossbar aggregates are synced lazily in stats() instead of copied
    // here every cycle.
    stats_.cycles = cycle_;
    return true;
}

Cycle Cluster::run(Cycle max_cycles) {
    if (cfg_.trace_path()) {
        // Alternate between superblock bursts (whenever the state is
        // burst-eligible) and generic cycles (multi-core phases, dual-port
        // instructions, armed glitches, staggered warm-up).
        while (cycle_ < max_cycles) {
            if (trace_burst(max_cycles)) continue;
            if (!step()) break;
        }
        return stats_.cycles;
    }
    while (cycle_ < max_cycles && step()) {
    }
    return stats_.cycles;
}

bool Cluster::trace_burst(Cycle max_cycles) {
    // ---- burst eligibility (DESIGN.md §10: engine-tier legality) -----------
    // The conflict-free proof needs a sole active core: every crossbar
    // request is then the only one raised, so each cycle grants fully and
    // commits in one cycle — no stall, bubble, denial, or broadcast ride
    // can occur, and the block memo's cycle count is exact.
    if (trace_ != nullptr) return false; // event sinks need per-cycle phases
    if (active_dirty_) {
        std::erase_if(active_cores_, [this](CoreId p) { return core_done(cores_[p]); });
        active_dirty_ = false;
    }
    if (active_cores_.size() != 1) return false;
    const CoreId p = active_cores_[0];
    CoreCtx& c = cores_[p];
    if (c.in_barrier) return false;
    // A pending register upset needs the per-cycle protection guard
    // (vote/trap on the first consuming read); the generic engine takes
    // over until the tracking mask clears.
    if (c.reg_bad != 0) return false;
    if (cycle_ < c.start_cycle) return false; // staggered warm-up: generic
    // A dual-port instruction (load + store in one cycle) can conflict
    // with itself on the D-Xbar; its timing belongs to the full arbiter.
    // (load_done can only be pending for such an instruction.)
    if (c.ex && ((c.has_load && c.has_store) || c.load_done)) return false;
    // An armed one-shot glitch must be consumed by a real arbitration.
    if (ixbar_.glitch_pending() || dxbar_.glitch_pending()) return false;
    // A pending arbiter-state upset (stuck RR pointer / flipped grant
    // register) changes per-cycle arbitration outcomes: the generic
    // engine's full arbiter must run until it is consumed or repaired.
    if (ixbar_.arbiter_upset_pending() || dxbar_.arbiter_upset_pending()) return false;
    // The scrub walkers advance one word per idle bank per cycle — state
    // the burst cannot replay in batch.
    if (cfg_.im_scrub || cfg_.dm_scrub) return false;

    // ---- batched statistics ------------------------------------------------
    // Bank reads/writes and per-commit counters go through the same calls
    // as the generic engine (exact per-bank parity); the per-cycle crossbar
    // and fetch aggregates are accumulated locally and flushed once.
    std::uint64_t fetches = 0;   // stats_.core[p].im_fetches
    std::uint64_t xbar_im = 0;   // uncontended I-Xbar grant cycles
    std::uint64_t xbar_dm = 0;   // uncontended D-Xbar grant cycles
    std::uint64_t lane_instret = 0; // commits made by the memo lane
    std::uint32_t lane = 0;      // mem-free straight-line instructions ahead
    const bool use_table = !fetch_table_.empty();

    // Fetches the instruction at c.state.pc into EX — the same cycle as
    // the commit that preceded it, exactly like fetch_phase. Returns false
    // when the burst must end: a trap was raised here, or the fetched
    // instruction needs the generic engine (dual-port). Arms the memo lane
    // when the pc opens a mem-free straight-line run.
    const auto fetch_step = [&]() -> bool {
        const PAddr pc = c.state.pc;
        if (pc >= text_size_) {
            raise_trap(c, core::Trap::FetchFault);
            return false;
        }
        const isa::DecodedInstr* pre;
        BankId bank_id;
        std::uint32_t offset;
        if (use_table) {
            const FetchSlot& fs = fetch_table_[pc];
            pre = fs.pre;
            bank_id = fs.bank;
            offset = fs.offset;
        } else {
            const auto pa = im_map_.translate(pc, p);
            if (!pa) {
                raise_trap(c, core::Trap::FetchFault);
                return false;
            }
            pre = predecoded_.lookup(pa->bank, pa->offset);
            bank_id = pa->bank;
            offset = pa->offset;
        }
        auto& ibank = im_banks_[bank_id];
        if (ibank.power_gated()) {
            raise_trap(c, core::Trap::FetchFault);
            return false;
        }
        (void)ibank.read(offset); // keeps per-bank access stats identical
        ++stats_.im_bank_accesses;
        ++xbar_im;
        if (cfg_.ecc_enabled && ibank.take_uncorrectable()) {
            raise_trap(c, core::Trap::EccFault);
            return false;
        }
        ++fetches;
        if (!pre) {
            raise_trap(c, core::Trap::IllegalInstruction);
            return false;
        }
        c.ex = &pre->instr;
        if (!plan_access(c, pre->has_mem)) return false;
        if (!pre->has_mem) {
            // Memo lane: the block map proved a straight-line memory-free
            // run ahead of pc (with a fetch-safe word after it) — replay
            // its timing without per-cycle checks. (Needs the PC-indexed
            // fetch table, so not under Dedicated.)
            if (use_table) lane = blockmap_.memo_lane(pc);
            return true;
        }
        return !(c.has_load && c.has_store);
    };

    // ---- prime: cold EX slot — a fetch-only cycle, like the reference ------
    if (!c.ex) {
        ++cycle_;
        const bool ok = fetch_step();
        // No commit happened this cycle, so the watchdog check is live
        // (reference: watchdog_phase runs every cycle).
        if (ok && cfg_.watchdog_cycles > 0) {
            const Cycle anchor = std::max(c.last_commit, c.start_cycle);
            if (cycle_ >= anchor && cycle_ - anchor >= cfg_.watchdog_cycles) {
                ++stats_.watchdog_trips;
                raise_trap(c, core::Trap::Watchdog);
            }
        }
    }

    // ---- fused commit+fetch cycles -----------------------------------------
    while (c.ex && cycle_ < max_cycles) {
        if (lane > 0) {
            // Memo lane: every instruction ahead is decoded, legal, memory-
            // free and non-branching (the block terminator is left to the
            // generic path below), so each cycle is execute + sequential
            // fetch with nothing to check. `plan` stays empty, set by the
            // fetch that armed the lane.
            const Cycle budget = max_cycles - cycle_;
            std::uint32_t n = lane;
            if (budget < n) n = static_cast<std::uint32_t>(budget);
            lane -= n;
            bool ecc_trap = false;
            for (std::uint32_t i = 0; i < n; ++i) {
                ++cycle_;
                (void)core::execute_inplace(*c.ex, c.state, c.loaded);
                const FetchSlot& fs = fetch_table_[c.state.pc];
                (void)im_banks_[fs.bank].read(fs.offset);
                if (cfg_.ecc_enabled && im_banks_[fs.bank].take_uncorrectable()) {
                    // i + 1 commits happened; i fetches completed and the
                    // faulting one still occupied its bank port (the
                    // reference counts the access before the ECC check).
                    c.last_commit = cycle_;
                    lane_instret += i + 1;
                    stats_.im_bank_accesses += i + 1;
                    xbar_im += i + 1;
                    fetches += i;
                    raise_trap(c, core::Trap::EccFault);
                    ecc_trap = true;
                    break;
                }
                c.ex = &fs.pre->instr;
            }
            if (ecc_trap) break;
            c.last_commit = cycle_;
            lane_instret += n;
            stats_.im_bank_accesses += n;
            xbar_im += n;
            fetches += n;
            continue;
        }

        ++cycle_;
        // Execute: the sole master's requests are granted by construction.
        if (c.has_load) {
            auto& bank = dm_banks_[c.load_pa.bank];
            c.loaded = static_cast<Word>(bank.read(c.load_pa.offset));
            ++stats_.dm_bank_reads;
            ++xbar_dm;
            if (cfg_.ecc_enabled && bank.take_uncorrectable()) {
                raise_trap(c, core::Trap::EccFault);
                break;
            }
            c.load_done = true;
        }
        if (c.has_store) ++xbar_dm; // the write grant (commit clears the flag)
        commit(c, p);
        if (core_done(c)) break; // halted: bookkeeping done by commit()
        if (c.in_barrier) {
            release_barrier_if_complete();
            if (c.in_barrier) break; // parked: generic phases take over
        }
        // Fetch the next instruction in the same cycle as the commit.
        if (!fetch_step()) break;
    }

    // ---- flush batched aggregates ------------------------------------------
    stats_.core[p].im_fetches += fetches;
    stats_.core[p].instret += lane_instret;
    ixbar_.account_uncontended(xbar_im, xbar_im);
    dxbar_.account_uncontended(xbar_dm, xbar_dm);
    stats_.cycles = cycle_;
    return true;
}

bool Cluster::lockstep_execute() {
    // ---- legality (DESIGN.md §10: SPMD lockstep) ---------------------------
    // Event sinks need the per-cycle phases; an armed glitch or arbiter
    // upset must be consumed by a real D-Xbar round. step() compacted the
    // active list, so no core in it is done yet.
    if (trace_ != nullptr || active_cores_.size() < 2 || dm_banks_.size() > 32) return false;
    if (dxbar_.glitch_pending() || dxbar_.arbiter_upset_pending()) return false;
    const isa::Instruction* const ex = cores_[active_cores_[0]].ex;
    if (ex == nullptr) return false;

    // ---- conflict-freedom proof: one pass over the <=16 D-side requests ----
    // Exactly the rounds the arbiter grants in full: every bank claimed by
    // one request, or only by reads of one word under read broadcast. A
    // bank's counted read belongs to the rotated-priority winner — the
    // first reader at or after the head `cycle % masters`, else the first
    // reader — and the other readers ride along.
    const unsigned head = static_cast<unsigned>(cycle_ % dxbar_.masters());
    std::array<std::uint32_t, 32> read_offset{};
    std::array<CoreId, 32> winner{};
    std::uint32_t claimed = 0;   // banks with a request
    std::uint32_t written = 0;   // banks claimed by a write
    std::uint32_t past_head = 0; // read banks whose winner sits at/after the head
    unsigned requests = 0;
    for (const CoreId p : active_cores_) {
        const CoreCtx& c = cores_[p];
        // Same instruction everywhere; no pending register upset (its guard
        // runs per core), no barrier parking, no half-done dual-port access.
        if (c.ex != ex || c.in_barrier || c.reg_bad != 0 || c.load_done) return false;
        if (c.has_load) {
            const BankId b = c.load_pa.bank;
            const std::uint32_t bit = std::uint32_t{1} << b;
            const bool at_head = read_port(p) >= head;
            if (!(claimed & bit)) {
                claimed |= bit;
                read_offset[b] = c.load_pa.offset;
                winner[b] = p;
                if (at_head) past_head |= bit;
            } else if (!cfg_.dm_broadcast || (written & bit) ||
                       read_offset[b] != c.load_pa.offset) {
                return false;
            } else if (at_head && !(past_head & bit)) {
                winner[b] = p;
                past_head |= bit;
            }
            ++requests;
        }
        if (c.has_store) {
            const std::uint32_t bit = std::uint32_t{1} << c.store_pa.bank;
            if (claimed & bit) return false;
            claimed |= bit;
            written |= bit;
            ++requests;
        }
    }

    // ---- commit in core order, as execute_phase's grant loop does ----------
    // Disjoint banks make the order of the reads and writes immaterial
    // except for a shared word's winner: its read() scrubs a correctable
    // upset and alone traps on an uncorrectable one; riders peek().
    dm_busy_banks_ = 0;
    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        if (c.has_load) {
            const BankId b = c.load_pa.bank;
            auto& bank = dm_banks_[b];
            dm_busy_banks_ |= std::uint32_t{1} << b;
            if (winner[b] == p) {
                c.loaded = static_cast<Word>(bank.read(c.load_pa.offset));
                ++stats_.dm_bank_reads;
                if (cfg_.ecc_enabled && bank.take_uncorrectable()) {
                    raise_trap(c, core::Trap::EccFault);
                    continue; // its write port, if any, never counts as busy
                }
            } else {
                c.loaded = static_cast<Word>(bank.peek(c.load_pa.offset));
            }
        }
        if (c.has_store) dm_busy_banks_ |= std::uint32_t{1} << c.store_pa.bank;
        commit(c, p);
    }
    release_barrier_if_complete();
    dxbar_.account_uncontended(requests, static_cast<unsigned>(std::popcount(claimed)));
    ++lockstep_.execute;
    return true;
}

bool Cluster::lockstep_fetch(std::uint32_t& fetched_banks) {
    // ---- legality: every live core fetches, all at one PC, under a
    // PID-independent broadcast IM policy with no pending I-Xbar strike ----
    if (trace_ != nullptr || fetch_table_.empty() || !cfg_.im_broadcast) return false;
    if (ixbar_.glitch_pending() || ixbar_.arbiter_upset_pending()) return false;
    const unsigned head = static_cast<unsigned>(cycle_ % ixbar_.masters());
    PAddr pc = 0;
    unsigned fetchers = 0;
    CoreId winner = 0; // rotated-priority winner: first core at/after the head
    bool winner_at_head = false;
    for (const CoreId p : active_cores_) {
        const CoreCtx& c = cores_[p];
        if (core_done(c)) continue; // halted or trapped earlier this cycle
        if (c.ex || c.in_barrier || c.reg_bad != 0 || cycle_ < c.start_cycle + 1) return false;
        if (fetchers == 0) {
            pc = c.state.pc;
            winner = p;
            winner_at_head = p >= head;
        } else if (c.state.pc != pc) {
            return false;
        } else if (!winner_at_head && p >= head) {
            winner = p;
            winner_at_head = true;
        }
        ++fetchers;
    }
    // Text-boundary and gated-bank faults are left to fetch_phase (the
    // fetch table ends at the text boundary).
    if (fetchers < 2 || pc >= fetch_table_.size()) return false;
    const FetchSlot& fs = fetch_table_[pc];
    auto& bank = im_banks_[fs.bank];
    if (bank.power_gated()) return false;

    // ---- one bank read serves every fetcher --------------------------------
    (void)bank.read(fs.offset);
    ++stats_.im_bank_accesses;
    const bool ecc_trap = cfg_.ecc_enabled && bank.take_uncorrectable();
    ixbar_.account_uncontended(fetchers, 1);
    fetched_banks = fs.bank < 32 ? std::uint32_t{1} << fs.bank : 0;
    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        if (core_done(c)) continue;
        if (ecc_trap && p == winner) {
            raise_trap(c, core::Trap::EccFault);
            continue;
        }
        ++stats_.core[p].im_fetches;
        if (!fs.pre) {
            raise_trap(c, core::Trap::IllegalInstruction);
            continue;
        }
        c.ex = &fs.pre->instr;
        (void)plan_access(c, fs.pre->has_mem);
    }
    ++lockstep_.fetch;
    return true;
}

void Cluster::watchdog_phase() {
    // Progress means a committed instruction. A core parked at the barrier
    // is deliberately NOT exempt: legitimate barrier waits are bounded by
    // one block's desynchronization (hundreds of cycles), so a watchdog
    // window orders of magnitude above that only fires when a peer is
    // wedged — stopping the parked core is what lets the rest of the
    // cluster degrade gracefully instead of hanging with it.
    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        if (core_done(c)) continue;
        // A staggered core that has not started yet cannot make progress
        // by definition; its window opens at start_cycle.
        const Cycle anchor = std::max(c.last_commit, c.start_cycle);
        if (cycle_ >= anchor && cycle_ - anchor >= cfg_.watchdog_cycles) {
            ++stats_.watchdog_trips;
            raise_trap(c, core::Trap::Watchdog);
        }
    }
}

void Cluster::execute_phase() {
    // Raise data-memory requests for every core with an instruction in EX.
    // The read port goes first logically (within the cycle, the loaded
    // value feeds the ALU and the write happens with the result), but both
    // ports arbitrate in the same cycle, as in the hardware.
    std::uint32_t req_mask = 0; ///< bit per D-Xbar master port with a request
    dm_busy_banks_ = 0;
    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        // Deactivating the slots is enough: arbitration and the grant
        // checks below read bank/offset only behind the `active` flag.
        dm_req_[read_port(p)].active = false;
        dm_req_[write_port(p)].active = false;
        if (core_done(c) || c.in_barrier || !c.ex) continue;

        if (c.has_load && !c.load_done) {
            dm_req_[read_port(p)] = {.active = true,
                                     .is_write = false,
                                     .bank = c.load_pa.bank,
                                     .offset = c.load_pa.offset};
            req_mask |= std::uint32_t{1} << read_port(p);
        }
        if (c.has_store) {
            dm_req_[write_port(p)] = {.active = true,
                                      .is_write = true,
                                      .bank = c.store_pa.bank,
                                      .offset = c.store_pa.offset};
            req_mask |= std::uint32_t{1} << write_port(p);
        }
    }

    // With no request raised, arbitration is a no-op on stats and every
    // grant slot is guarded by its request's `active` flag, so the fast
    // path skips the crossbar entirely. The mask of raised ports lets the
    // arbiter visit only them. A pending one-shot glitch or arbiter-state
    // upset must still reach the arbiter on request-free cycles (the
    // reference engine arbitrates every cycle, so a strike it would
    // consume harmlessly must be consumed here too).
    if (req_mask || !cfg_.fast_path() || dxbar_.glitch_pending() ||
        dxbar_.arbiter_upset_pending())
        dxbar_.arbitrate_into(dm_req_, cycle_, dm_grant_, req_mask);

    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        if (core_done(c) || c.in_barrier || !c.ex) continue;

        if (dm_req_[read_port(p)].active && dm_grant_[read_port(p)].granted) {
            const auto& rq = dm_req_[read_port(p)];
            const auto& gr = dm_grant_[read_port(p)];
            auto& bank = dm_banks_[rq.bank];
            if (rq.bank < 32) dm_busy_banks_ |= std::uint32_t{1} << rq.bank;
            // A hijacked grant (flipped grant register, DESIGN.md §9)
            // latches whatever is on the bank port — the winner's word at
            // the wrong offset. No port activation of its own, no ECC
            // consultation: the corruption is silent by construction.
            c.loaded = gr.hijacked ? static_cast<Word>(bank.peek(gr.hijack_offset))
                       : gr.broadcast ? static_cast<Word>(bank.peek(rq.offset))
                                      : static_cast<Word>(bank.read(rq.offset));
            if (!gr.broadcast && !gr.hijacked) {
                ++stats_.dm_bank_reads;
                // A double-bit upset is detected by the bank's SEC-DED
                // check but cannot be healed: escalate to a trap instead
                // of letting the corrupted word flow into the datapath.
                if (cfg_.ecc_enabled && bank.take_uncorrectable()) {
                    raise_trap(c, core::Trap::EccFault);
                    continue;
                }
            }
            c.load_done = true;
        }

        // A hijacked WRITE grant: the grant register reads as granted but
        // the winner holds the port, so the store never reaches the bank —
        // the instruction commits believing it stored (a lost update).
        if (c.has_store && dm_req_[write_port(p)].active &&
            dm_grant_[write_port(p)].granted && dm_grant_[write_port(p)].hijacked) {
            c.has_store = false;
        }

        // A granted write port holds its bank this cycle whether or not the
        // store lands (a wasted grant still drives the port).
        if (dm_req_[write_port(p)].active && dm_grant_[write_port(p)].granted) {
            const BankId wb = dm_req_[write_port(p)].bank;
            if (wb < 32) dm_busy_banks_ |= std::uint32_t{1} << wb;
        }

        const bool load_ok = !c.has_load || c.load_done;
        // A granted write is only usable once the loaded value is in hand
        // (this cycle's read grant counts); otherwise the grant is wasted
        // and the store retries.
        const bool store_ok =
            !c.has_store ||
            (dm_req_[write_port(p)].active && dm_grant_[write_port(p)].granted && load_ok);

        if (load_ok && store_ok) {
            commit(c, static_cast<CoreId>(p));
        } else {
            ++stats_.core[p].stall_cycles;
            emit(static_cast<CoreId>(p), EventKind::DataStall, c.state.pc);
        }
    }

    release_barrier_if_complete();
}

void Cluster::commit(CoreCtx& c, CoreId pid) {
    // A register struck while this instruction sat in EX is consumed by
    // its operand reads right here (fetched-then-struck ordering; the
    // fetch-time guard covers struck-then-fetched).
    if (c.reg_bad != 0 && !reg_fault_guard(c, *c.ex)) return;
    const PAddr pc_before = c.state.pc;
    std::optional<Word> store_value;
    bool halt = false;
    if (cfg_.fast_path()) {
        // In-place semantics: identical architectural effect, without the
        // two CoreState copies the functional execute() implies (measurably
        // the hottest part of commit).
        const core::InplaceEffects fx = core::execute_inplace(*c.ex, c.state, c.loaded);
        store_value = fx.store_value;
        halt = fx.halt;
    } else {
        const core::StepEffects fx = core::execute(*c.ex, c.state, c.loaded);
        store_value = fx.store_value;
        halt = fx.halt;
        c.state = fx.next;
    }

    if (c.has_store) {
        ULPMC_ASSERT(store_value.has_value());
        dm_banks_[c.store_pa.bank].write(c.store_pa.offset, *store_value);
        ++stats_.dm_bank_writes;
        ++stats_.core[pid].dm_stores;
    }
    if (c.has_load) ++stats_.core[pid].dm_loads;

    const bool is_barrier =
        cfg_.barrier_enabled && c.plan.store && *c.plan.store == kBarrierAddr;

    emit(pid, EventKind::Commit, pc_before);
    c.last_commit = cycle_;
    c.ex = nullptr;
    c.has_load = false;
    c.has_store = false;
    c.load_done = false;
    c.loaded.reset();
    ++stats_.core[pid].instret;

    if (halt) {
        c.halted = true;
        stats_.core[pid].halted_at = cycle_;
        stats_.cycles = std::max(stats_.cycles, cycle_);
        emit(pid, EventKind::Halt);
        retire_core(pid);
    } else if (is_barrier) {
        c.in_barrier = true;
        emit(pid, EventKind::BarrierArrive);
    }
}

void Cluster::release_barrier_if_complete() {
    if (!cfg_.barrier_enabled) return;
    bool any_waiting = false;
    for (const auto& c : cores_) {
        if (core_done(c)) continue;
        if (!c.in_barrier) return; // someone still running: keep waiting
        any_waiting = true;
    }
    if (!any_waiting) return;
    // All arrived: release everyone in the same cycle, so the subsequent
    // fetches happen in lockstep again (this is what re-synchronizes the
    // cores after a data-dependent section).
    for (auto& c : cores_)
        if (!core_done(c)) c.in_barrier = false;
    emit(0xFF, EventKind::BarrierRelease);
}

std::uint32_t Cluster::fetch_phase() {
    const bool use_table = !fetch_table_.empty();
    std::uint32_t fetched_banks = 0; ///< banks with a demand port activation
    std::uint32_t req_mask = 0; ///< bit per core with a fetch request
    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        im_req_[p].active = false;
        if (core_done(c) || c.in_barrier || c.ex) continue;
        if (cycle_ < c.start_cycle + 1) continue; // staggered start

        if (c.state.pc >= text_size_) {
            // Off the end of the loaded program (or a wild branch): fault
            // at the text boundary like the functional ISS, instead of
            // executing the zero-filled remainder of the bank.
            raise_trap(c, core::Trap::FetchFault);
            continue;
        }
        if (use_table) {
            const FetchSlot& fs = fetch_table_[c.state.pc];
            fetch_pc_[p] = c.state.pc;
            im_req_[p] = {.active = true, .is_write = false, .bank = fs.bank, .offset = fs.offset};
        } else {
            const auto pa = im_map_.translate(c.state.pc, static_cast<CoreId>(p));
            if (!pa) {
                raise_trap(c, core::Trap::FetchFault);
                continue;
            }
            fetch_pc_[p] = c.state.pc;
            im_req_[p] = {
                .active = true, .is_write = false, .bank = pa->bank, .offset = pa->offset};
        }
        req_mask |= std::uint32_t{1} << p;
    }

    if (req_mask || !cfg_.fast_path() || ixbar_.glitch_pending() ||
        ixbar_.arbiter_upset_pending())
        ixbar_.arbitrate_into(im_req_, cycle_, im_grant_, req_mask);

    for (const CoreId p : active_cores_) {
        CoreCtx& c = cores_[p];
        if (!im_req_[p].active) continue;
        if (!im_grant_[p].granted) {
            ++stats_.core[p].stall_cycles;
            emit(static_cast<CoreId>(p), EventKind::FetchStall, fetch_pc_[p], im_req_[p].bank);
            continue;
        }

        auto& bank = im_banks_[im_req_[p].bank];
        if (bank.power_gated()) {
            raise_trap(c, core::Trap::FetchFault);
            continue;
        }
        // A hijacked fetch grant latches the winner's word off the bank
        // port — the broken-read-broadcast corruption channel: the core
        // decodes and executes an instruction from the WRONG address.
        const InstrWord w =
            im_grant_[p].hijacked
                ? static_cast<InstrWord>(bank.peek(im_grant_[p].hijack_offset))
            : im_grant_[p].broadcast ? static_cast<InstrWord>(bank.peek(im_req_[p].offset))
                                     : static_cast<InstrWord>(bank.read(im_req_[p].offset));
        if (!im_grant_[p].broadcast && !im_grant_[p].hijacked) {
            ++stats_.im_bank_accesses;
            if (im_req_[p].bank < 32) fetched_banks |= std::uint32_t{1} << im_req_[p].bank;
            if (cfg_.ecc_enabled && bank.take_uncorrectable()) {
                raise_trap(c, core::Trap::EccFault);
                continue;
            }
        }
        ++stats_.core[p].im_fetches;
        emit(static_cast<CoreId>(p),
             im_grant_[p].broadcast ? EventKind::FetchBroadcast : EventKind::Fetch, fetch_pc_[p],
             im_req_[p].bank);

        // `needs_plan` is a fast-path-only shortcut: for an instruction
        // with no memory operand the plan below is the empty plan, so the
        // address computation and MMU translations can be skipped outright.
        bool needs_plan = true;
        if (cfg_.fast_path() && !im_grant_[p].hijacked) {
            // Fast path: the decode happened once at load; `w` was still
            // read above so the bank/crossbar statistics stay identical.
            // (A hijacked grant latched a different word than the request
            // addressed, so it must take the decode-what-you-latched slow
            // branch below — same as the reference engine.)
            const isa::DecodedInstr* pre =
                use_table ? fetch_table_[fetch_pc_[p]].pre
                          : predecoded_.lookup(im_req_[p].bank, im_req_[p].offset);
            if (!pre) {
                raise_trap(c, core::Trap::IllegalInstruction);
                continue;
            }
            c.ex = &pre->instr;
            needs_plan = pre->has_mem;
        } else {
            const auto decoded = isa::decode(w);
            if (!decoded) {
                raise_trap(c, core::Trap::IllegalInstruction);
                continue;
            }
            c.ex_buf = *decoded;
            c.ex = &c.ex_buf;
        }

        // Protection guard before the plan: a corrupted address register
        // must be voted/trapped here, not used to compute data addresses
        // (a parity trap takes precedence over the MemoryFault the bad
        // address might raise below).
        if (c.reg_bad != 0 && !reg_fault_guard(c, *c.ex)) continue;

        (void)plan_access(c, needs_plan);
    }
    return fetched_banks;
}

bool Cluster::plan_access(CoreCtx& c, bool needs_plan) {
    // Pre-compute the data-access plan; architectural state cannot change
    // between this fetch and the execute phase (in-order, single issue),
    // so the plan stays valid across stall cycles.
    c.has_load = false;
    c.has_store = false;
    c.load_done = false;
    c.loaded.reset();
    if (!needs_plan) {
        c.plan = {};
        return true;
    }
    c.plan = core::plan_memory(*c.ex, c.state);
    if (c.plan.load) {
        const auto lpa = c.mmu.translate(*c.plan.load);
        if (!lpa) {
            raise_trap(c, core::Trap::MemoryFault);
            return false;
        }
        c.load_pa = *lpa;
        c.has_load = true;
    }
    if (c.plan.store) {
        if (cfg_.barrier_enabled && *c.plan.store == kBarrierAddr) {
            // Barrier register (extension): the store completes without
            // touching the data memory; commit() parks the core.
        } else {
            const auto spa = c.mmu.translate(*c.plan.store);
            if (!spa) {
                raise_trap(c, core::Trap::MemoryFault);
                return false;
            }
            c.store_pa = *spa;
            c.has_store = true;
        }
    }
    return true;
}

} // namespace ulpmc::cluster
