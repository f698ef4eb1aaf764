#include "cluster/ckpt_store.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "common/serial.hpp"
#include "power/calibration.hpp"

namespace ulpmc::cluster {

namespace {

/// Architectural words per core in payload order: 16 GPRs, PC, packed
/// flags.
constexpr unsigned kArchWords = kNumRegisters + 2;
static_assert(kArchWords == power::cal::kCheckpointWordsPerCore);

/// Stored framing per record besides the payload (kind + cycle + length
/// + CRC) — bookkeeping for the byte accounting, not a wire format.
constexpr std::uint64_t kRecordOverhead = 16;

Word pack_flags(const core::Flags& f) {
    return static_cast<Word>((f.c ? 1 : 0) | (f.z ? 2 : 0) | (f.n ? 4 : 0) | (f.v ? 8 : 0));
}

core::Flags unpack_flags(Word w) {
    core::Flags f;
    f.c = (w & 1) != 0;
    f.z = (w & 2) != 0;
    f.n = (w & 4) != 0;
    f.v = (w & 8) != 0;
    return f;
}

Word arch_word(const core::CoreState& st, unsigned i) {
    if (i < kNumRegisters) return st.regs[i];
    if (i == kNumRegisters) return static_cast<Word>(st.pc);
    return pack_flags(st.flags);
}

void set_arch_word(core::CoreState& st, unsigned i, Word v) {
    if (i < kNumRegisters)
        st.regs[i] = v;
    else if (i == kNumRegisters)
        st.pc = static_cast<PAddr>(v);
    else
        st.flags = unpack_flags(v);
}

} // namespace

void CheckpointStorage::reset(const CkptStorageConfig& cfg) {
    cfg_ = cfg;
    if (cfg_.keyframe_interval < 1) cfg_.keyframe_interval = 1;
    stats_ = {};
    delta_.valid = false;
    cur_key_.valid = false;
    prev_key_.valid = false;
    saves_since_key_ = 0;
}

std::uint64_t CheckpointStorage::keyframe_payload_size(const Cluster::Snapshot& snap) const {
    std::uint64_t bytes = snap.cores.size() * kArchWords * sizeof(Word);
    for (const mem::BankSnapshot& b : snap.dm_banks)
        bytes += b.cells.size() * sizeof(std::uint32_t) + b.check.size();
    bytes += snap.im_cells.size() * (sizeof(std::uint32_t) + 1);
    return bytes;
}

void CheckpointStorage::copy_meta(const Cluster::Snapshot& snap, Record& rec) const {
    Cluster::Snapshot& m = rec.meta;
    m.cycle = snap.cycle;
    m.stats = snap.stats;
    m.direct_faults = snap.direct_faults;
    m.cores = snap.cores;
    for (auto& c : m.cores) c.state = {}; // arch state lives in the payload
    m.ex_in_buf = snap.ex_in_buf;
    m.im_dirty = snap.im_dirty;
    m.im_cells = snap.im_cells;
    for (auto& ic : m.im_cells) ic.cell = {}; // cell data lives in the payload
    m.im_stats = snap.im_stats;
    m.im_uncorrectable = snap.im_uncorrectable;
    m.dm_banks.resize(snap.dm_banks.size());
    rec.dm_cells.resize(snap.dm_banks.size());
    rec.dm_has_check.resize(snap.dm_banks.size());
    for (std::size_t b = 0; b < snap.dm_banks.size(); ++b) {
        mem::BankSnapshot& dst = m.dm_banks[b];
        const mem::BankSnapshot& src = snap.dm_banks[b];
        dst.cells.clear(); // cell data lives in the payload
        dst.check.clear();
        dst.stats = src.stats;
        dst.gated = src.gated;
        dst.uncorrectable_pending = src.uncorrectable_pending;
        rec.dm_cells[b] = static_cast<std::uint32_t>(src.cells.size());
        rec.dm_has_check[b] = src.check.empty() ? 0 : 1;
    }
    m.ixbar = snap.ixbar;
    m.dxbar = snap.dxbar;
    m.im_scrub_ptr = snap.im_scrub_ptr;
    m.dm_scrub_ptr = snap.dm_scrub_ptr;
}

void CheckpointStorage::encode_keyframe(const Cluster::Snapshot& snap, Record& rec) {
    copy_meta(snap, rec);
    rec.reg_masks.clear();
    rec.dm_addrs.clear();
    rec.payload.clear();
    for (const auto& c : snap.cores)
        for (unsigned i = 0; i < kArchWords; ++i) put_raw(rec.payload, arch_word(c.state, i));
    for (const mem::BankSnapshot& b : snap.dm_banks) {
        for (std::uint32_t cell : b.cells) put_raw(rec.payload, cell);
        for (std::uint8_t chk : b.check) put_raw(rec.payload, chk);
    }
    for (const auto& ic : snap.im_cells) {
        put_raw(rec.payload, ic.cell.cell);
        put_raw(rec.payload, ic.cell.check);
    }
    rec.crc = crc32(rec.payload.data(), rec.payload.size());
    rec.keyframe = true;
    rec.valid = true;
}

bool CheckpointStorage::encode_delta(const Cluster::Snapshot& snap, Record& rec) {
    // Same-geometry base required; a config change means a fresh store.
    if (snap.cores.size() != base_full_.cores.size() ||
        snap.dm_banks.size() != base_full_.dm_banks.size())
        return false;

    copy_meta(snap, rec);
    rec.reg_masks.clear();
    rec.dm_addrs.clear();
    rec.payload.clear();
    std::uint64_t words = 0;
    for (std::size_t c = 0; c < snap.cores.size(); ++c) {
        std::uint32_t mask = 0;
        for (unsigned i = 0; i < kArchWords; ++i)
            if (arch_word(snap.cores[c].state, i) != arch_word(base_full_.cores[c].state, i))
                mask |= 1u << i;
        rec.reg_masks.push_back(mask);
        for (unsigned i = 0; i < kArchWords; ++i)
            if (mask & (1u << i)) {
                put_raw(rec.payload, arch_word(snap.cores[c].state, i));
                ++words;
            }
    }
    for (std::size_t b = 0; b < snap.dm_banks.size(); ++b) {
        const mem::BankSnapshot& now = snap.dm_banks[b];
        const mem::BankSnapshot& base = base_full_.dm_banks[b];
        if (now.cells.size() != base.cells.size() || now.check.size() != base.check.size())
            return false;
        for (std::size_t i = 0; i < now.cells.size(); ++i) {
            const bool chk_diff = !now.check.empty() && now.check[i] != base.check[i];
            if (now.cells[i] == base.cells[i] && !chk_diff) continue;
            rec.dm_addrs.push_back({static_cast<std::uint8_t>(b),
                                    static_cast<std::uint32_t>(i)});
            put_raw(rec.payload, now.cells[i]);
            put_raw(rec.payload, now.check.empty() ? std::uint8_t{0} : now.check[i]);
            words += 2;
        }
    }
    for (const auto& ic : snap.im_cells) {
        put_raw(rec.payload, ic.cell.cell);
        put_raw(rec.payload, ic.cell.check);
        words += 2;
    }
    // Every-word-dirty degenerates to a keyframe: the delta must never
    // store more than a full snapshot would.
    if (rec.payload.size() >= keyframe_payload_size(snap)) return false;
    stats_.dirty_words += words;
    rec.crc = crc32(rec.payload.data(), rec.payload.size());
    rec.keyframe = false;
    rec.valid = true;
    return true;
}

void CheckpointStorage::store(const Cluster::Snapshot& snap) {
    if (cfg_.delta && cur_key_.valid && saves_since_key_ < cfg_.keyframe_interval &&
        encode_delta(snap, delta_)) {
        ++stats_.delta_saves;
        ++saves_since_key_;
        stats_.stored_bytes += delta_.payload.size() + kRecordOverhead;
    } else {
        // Rotate: the current keyframe becomes the last-resort fallback
        // (swap, not move — the retired record's buffers are reused by
        // the next rotation).
        std::swap(prev_key_, cur_key_);
        encode_keyframe(snap, cur_key_);
        base_full_ = snap;
        delta_.valid = false;
        saves_since_key_ = 1;
        ++stats_.keyframes;
        stats_.stored_bytes += cur_key_.payload.size() + kRecordOverhead;
    }
    stats_.full_equiv_bytes += keyframe_payload_size(snap) + kRecordOverhead;
}

bool CheckpointStorage::crc_ok(const Record& rec) const {
    return crc32(rec.payload.data(), rec.payload.size()) == rec.crc;
}

bool CheckpointStorage::decode(const Record& rec, Cluster::Snapshot& out) const {
    ByteReader r(rec.payload);
    if (rec.keyframe) {
        out = rec.meta;
        for (auto& c : out.cores)
            for (unsigned i = 0; i < kArchWords; ++i) set_arch_word(c.state, i, r.get<Word>());
        for (std::size_t b = 0; b < out.dm_banks.size(); ++b) {
            mem::BankSnapshot& bank = out.dm_banks[b];
            bank.cells.resize(rec.dm_cells[b]);
            for (auto& cell : bank.cells) cell = r.get<std::uint32_t>();
            bank.check.resize(rec.dm_has_check[b] ? rec.dm_cells[b] : 0);
            for (auto& chk : bank.check) chk = r.get<std::uint8_t>();
        }
        for (auto& ic : out.im_cells) {
            ic.cell.cell = r.get<std::uint32_t>();
            ic.cell.check = r.get<std::uint8_t>();
        }
        return !r.fail() && r.remaining() == 0;
    }

    // Delta: `out` holds the reconstructed base keyframe. Overlay the
    // record's control state first (keeping the base's payload-backed
    // state), then apply the dirty words.
    if (out.cores.size() != rec.meta.cores.size() ||
        out.dm_banks.size() != rec.meta.dm_banks.size())
        return false;
    out.cycle = rec.meta.cycle;
    out.stats = rec.meta.stats;
    out.direct_faults = rec.meta.direct_faults;
    for (std::size_t c = 0; c < out.cores.size(); ++c) {
        const core::CoreState base_state = out.cores[c].state;
        out.cores[c] = rec.meta.cores[c];
        out.cores[c].state = base_state;
    }
    out.ex_in_buf = rec.meta.ex_in_buf;
    out.im_dirty = rec.meta.im_dirty;
    out.im_cells = rec.meta.im_cells;
    out.im_stats = rec.meta.im_stats;
    out.im_uncorrectable = rec.meta.im_uncorrectable;
    for (std::size_t b = 0; b < out.dm_banks.size(); ++b) {
        out.dm_banks[b].stats = rec.meta.dm_banks[b].stats;
        out.dm_banks[b].gated = rec.meta.dm_banks[b].gated;
        out.dm_banks[b].uncorrectable_pending = rec.meta.dm_banks[b].uncorrectable_pending;
    }
    out.ixbar = rec.meta.ixbar;
    out.dxbar = rec.meta.dxbar;
    out.im_scrub_ptr = rec.meta.im_scrub_ptr;
    out.dm_scrub_ptr = rec.meta.dm_scrub_ptr;

    if (rec.reg_masks.size() != out.cores.size()) return false;
    for (std::size_t c = 0; c < out.cores.size(); ++c)
        for (unsigned i = 0; i < kArchWords; ++i)
            if (rec.reg_masks[c] & (1u << i)) set_arch_word(out.cores[c].state, i, r.get<Word>());
    for (const Record::DmAddr& a : rec.dm_addrs) {
        if (a.bank >= out.dm_banks.size()) return false;
        mem::BankSnapshot& bank = out.dm_banks[a.bank];
        if (a.offset >= bank.cells.size()) return false;
        bank.cells[a.offset] = r.get<std::uint32_t>();
        const std::uint8_t chk = r.get<std::uint8_t>();
        if (!bank.check.empty()) bank.check[a.offset] = chk;
    }
    for (auto& ic : out.im_cells) {
        ic.cell.cell = r.get<std::uint32_t>();
        ic.cell.check = r.get<std::uint8_t>();
    }
    return !r.fail() && r.remaining() == 0;
}

bool CheckpointStorage::load(Cluster::Snapshot& out) {
    const bool ok_delta = delta_.valid && (!cfg_.crc_verify || crc_ok(delta_));
    if (delta_.valid && !ok_delta) ++stats_.crc_failures;
    bool ok_cur = cur_key_.valid && (!cfg_.crc_verify || crc_ok(cur_key_));
    if (cur_key_.valid && !ok_cur) ++stats_.crc_failures;

    if (ok_cur && decode(cur_key_, out)) {
        if (ok_delta) {
            if (decode(delta_, out)) return true;
            ++stats_.crc_failures; // structurally corrupt delta
            if (decode(cur_key_, out)) {
                ++stats_.keyframe_fallbacks;
                return true;
            }
        } else if (delta_.valid) {
            ++stats_.keyframe_fallbacks; // newest record rejected, serving its base
            return true;
        } else {
            return true; // the keyframe is the newest record
        }
    } else if (ok_cur) {
        ++stats_.crc_failures; // structurally corrupt keyframe
        ok_cur = false;
    }

    const bool ok_prev = prev_key_.valid && (!cfg_.crc_verify || crc_ok(prev_key_));
    if (prev_key_.valid && !ok_prev) ++stats_.crc_failures;
    if (ok_prev && decode(prev_key_, out)) {
        ++stats_.keyframe_fallbacks;
        return true;
    }
    if (ok_prev) ++stats_.crc_failures;
    return false;
}

CheckpointStorage::Record* CheckpointStorage::slot_ptr(unsigned slot) {
    Record* order[3] = {&delta_, &cur_key_, &prev_key_};
    unsigned n = 0;
    for (Record* r : order)
        if (r->valid && n++ == slot) return r;
    return nullptr;
}

unsigned CheckpointStorage::record_count() const {
    return (delta_.valid ? 1 : 0) + (cur_key_.valid ? 1 : 0) + (prev_key_.valid ? 1 : 0);
}

std::uint64_t CheckpointStorage::payload_words(unsigned slot) {
    const Record* r = slot_ptr(slot);
    return r ? (r->payload.size() + 3) / 4 : 0;
}

void CheckpointStorage::corrupt(unsigned slot, std::uint64_t word, std::uint32_t flip_mask) {
    Record* r = slot_ptr(slot);
    if (!r || r->payload.empty()) return;
    const std::uint64_t words = (r->payload.size() + 3) / 4;
    const std::size_t base = static_cast<std::size_t>((word % words) * 4);
    for (unsigned byte = 0; byte < 4 && base + byte < r->payload.size(); ++byte)
        r->payload[base + byte] ^= static_cast<std::uint8_t>(flip_mask >> (8 * byte));
}

} // namespace ulpmc::cluster
