#include "cluster/ckpt_store.hpp"

#include <array>
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
    std::uint64_t bytes = snap.ctl.cores.size() * kArchWords * sizeof(Word);
    for (const mem::BankSnapshot& b : snap.dm)
        bytes += b.cells.size() * sizeof(std::uint32_t) + b.check.size();
    bytes += snap.ctl.im_cells.size() * (sizeof(std::uint32_t) + 1);
    return bytes;
}

void CheckpointStorage::copy_meta(const Cluster::Snapshot& snap, Record& rec) const {
    rec.meta = snap.ctl;
    for (auto& c : rec.meta.cores) c.state = {};     // arch state lives in the payload
    for (auto& ic : rec.meta.im_cells) ic.cell = {}; // cell data lives in the payload
    rec.dm_cells.resize(snap.dm.size());
    rec.dm_has_check.resize(snap.dm.size());
    for (std::size_t b = 0; b < snap.dm.size(); ++b) {
        rec.dm_cells[b] = static_cast<std::uint32_t>(snap.dm[b].cells.size());
        rec.dm_has_check[b] = snap.dm[b].check.empty() ? 0 : 1;
    }
}

void CheckpointStorage::encode_keyframe(const Cluster::Snapshot& snap, Record& rec) {
    copy_meta(snap, rec);
    rec.reg_masks.clear();
    rec.dm_addrs.clear();
    rec.payload.clear();
    for (const auto& c : snap.ctl.cores)
        for (unsigned i = 0; i < kArchWords; ++i) put_raw(rec.payload, arch_word(c.state, i));
    for (const mem::BankSnapshot& b : snap.dm) {
        for (std::uint32_t cell : b.cells) put_raw(rec.payload, cell);
        for (std::uint8_t chk : b.check) put_raw(rec.payload, chk);
    }
    for (const auto& ic : snap.ctl.im_cells) {
        put_raw(rec.payload, ic.cell.cell);
        put_raw(rec.payload, ic.cell.check);
    }
    rec.crc = crc32(rec.payload.data(), rec.payload.size());
    rec.keyframe = true;
    rec.valid = true;
}

bool CheckpointStorage::encode_delta(const Cluster::Snapshot& snap, Record& rec) {
    // Same-geometry base required; a config change means a fresh store.
    const auto& cores = snap.ctl.cores;
    const auto& base_cores = base_full_.ctl.cores;
    if (cores.size() != base_cores.size() || snap.dm.size() != base_full_.dm.size()) return false;

    copy_meta(snap, rec);
    rec.reg_masks.clear();
    rec.dm_addrs.clear();
    rec.payload.clear();
    std::uint64_t words = 0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        std::uint32_t mask = 0;
        for (unsigned i = 0; i < kArchWords; ++i)
            if (arch_word(cores[c].state, i) != arch_word(base_cores[c].state, i))
                mask |= 1u << i;
        rec.reg_masks.push_back(mask);
        for (unsigned i = 0; i < kArchWords; ++i)
            if (mask & (1u << i)) {
                put_raw(rec.payload, arch_word(cores[c].state, i));
                ++words;
            }
    }
    for (std::size_t b = 0; b < snap.dm.size(); ++b) {
        const mem::BankSnapshot& now = snap.dm[b];
        const mem::BankSnapshot& base = base_full_.dm[b];
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
    for (const auto& ic : snap.ctl.im_cells) {
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
    auto& cores = out.ctl.cores;
    if (rec.keyframe) {
        out.ctl = rec.meta;
        for (auto& c : cores)
            for (unsigned i = 0; i < kArchWords; ++i) set_arch_word(c.state, i, r.get<Word>());
        out.dm.resize(rec.dm_cells.size());
        for (std::size_t b = 0; b < out.dm.size(); ++b) {
            mem::BankSnapshot& bank = out.dm[b];
            bank.cells.resize(rec.dm_cells[b]);
            for (auto& cell : bank.cells) cell = r.get<std::uint32_t>();
            bank.check.resize(rec.dm_has_check[b] ? rec.dm_cells[b] : 0);
            for (auto& chk : bank.check) chk = r.get<std::uint8_t>();
        }
    } else {
        // Delta: `out` holds the reconstructed base keyframe. Take the
        // record's control state, keep the base's architectural words,
        // then apply the dirty words.
        if (cores.size() != rec.meta.cores.size() || cores.size() > kNumCores ||
            out.dm.size() != rec.dm_cells.size() || rec.reg_masks.size() != cores.size())
            return false;
        std::array<core::CoreState, kNumCores> base;
        for (std::size_t c = 0; c < cores.size(); ++c) base[c] = cores[c].state;
        out.ctl = rec.meta;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            cores[c].state = base[c];
            for (unsigned i = 0; i < kArchWords; ++i)
                if (rec.reg_masks[c] & (1u << i)) set_arch_word(cores[c].state, i, r.get<Word>());
        }
        for (const Record::DmAddr& a : rec.dm_addrs) {
            if (a.bank >= out.dm.size()) return false;
            mem::BankSnapshot& bank = out.dm[a.bank];
            if (a.offset >= bank.cells.size()) return false;
            bank.cells[a.offset] = r.get<std::uint32_t>();
            const std::uint8_t chk = r.get<std::uint8_t>();
            if (!bank.check.empty()) bank.check[a.offset] = chk;
        }
    }
    for (auto& ic : out.ctl.im_cells) {
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
