// Durable checkpoint storage with delta encoding (DESIGN.md §9.6).
//
// A record splits a Cluster::Snapshot into two parts with different
// trust:
//
//   * the PAYLOAD — the bytes real checkpoint hardware would stream into
//     a retention SRAM / NVM region: the DM bank cells + ECC check bytes,
//     and from the snapshot's Control half only every core's
//     architectural words (16 GPRs + PC + packed flags) and every dirty
//     IM cell's data. This is the corruptible surface: fault::CkptBitFlip
//     strikes land here, a CRC32 over it is verified before any restore
//     applies it, and silent corruption of it (CRC verification off)
//     flows through restore into real SDC.
//   * the METADATA — the rest of the Control half: statistics, the
//     banks' mem::BankMeta, microarch latches, scrub pointers, the dirty
//     IM cells' addresses. It has no silicon counterpart and is modeled
//     as protected control state, never a fault target: a record keeps
//     the Control half whole, with the payload's words zeroed, plus the
//     payload's geometry. Only the payload's fields are named here; every
//     other snapshot field is Cluster's alone.
//
// Delta encoding (the same spirit as the dirty-PC IM dedup, DESIGN.md
// §11): most saves change a handful of registers and DM words, so a
// record normally stores only the words that differ from the current
// base KEYFRAME — a dirty-word bitmap per register file plus a dirty
// (bank, offset) cell list for DM. Every keyframe_interval saves (or
// whenever the delta would not actually be smaller) a full keyframe is
// stored instead and becomes the new base. The store keeps at most
// three records — newest delta, current keyframe, previous keyframe —
// and load() falls back along that chain when CRC verification rejects
// a record, so one storage strike costs re-execution, never silent
// corruption.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"

namespace ulpmc::cluster {

struct CkptStorageConfig {
    /// Delta-encode against the base keyframe (false: every record is a
    /// full keyframe).
    bool delta = true;
    /// Saves between full keyframes (1 = keyframes only).
    unsigned keyframe_interval = 8;
    /// Verify each record's CRC32 before a restore applies it; a failing
    /// record falls back to the next older one. Off, corruption flows
    /// through restore undetected (the campaign contrast arm).
    bool crc_verify = true;
};

struct CkptStorageStats {
    std::uint64_t keyframes = 0;
    std::uint64_t delta_saves = 0;
    std::uint64_t stored_bytes = 0;     ///< payload + record framing actually stored
    std::uint64_t full_equiv_bytes = 0; ///< what full keyframes would have stored
    std::uint64_t dirty_words = 0;      ///< payload words written by delta saves
    std::uint64_t crc_failures = 0;     ///< records rejected by verification
    std::uint64_t keyframe_fallbacks = 0; ///< restores served by an older record
};

/// The record store. Owns the encoded records; snapshots pass through by
/// value on store() and are reconstructed on load(). Buffers are reused
/// across saves, so steady state allocates nothing new.
class CheckpointStorage {
public:
    void reset(const CkptStorageConfig& cfg);

    /// Encodes `snap` as the newest record (delta against the current
    /// keyframe, or a new keyframe per the keyframe policy).
    void store(const Cluster::Snapshot& snap);

    /// Reconstructs the newest intact record into `out`, walking the
    /// fallback chain (delta -> current keyframe -> previous keyframe)
    /// past CRC-failing or structurally-corrupt records. Returns false
    /// when no intact record remains (detected, unrecoverable).
    bool load(Cluster::Snapshot& out);

    /// Number of stored records (newest first: 0 = newest). Fault
    /// targets address (record, payload word).
    unsigned record_count() const;
    /// 32-bit payload words in record `slot` (slot < record_count()).
    std::uint64_t payload_words(unsigned slot);
    /// Flips `flip_mask` bits of payload word `word` of record `slot`
    /// WITHOUT updating the CRC — a storage strike, not a write.
    void corrupt(unsigned slot, std::uint64_t word, std::uint32_t flip_mask);

    const CkptStorageStats& stats() const { return stats_; }

private:
    struct Record {
        bool valid = false;
        bool keyframe = false;
        std::vector<std::uint8_t> payload;
        std::uint32_t crc = 0;
        /// The snapshot's Control half with the payload's words zeroed:
        /// protected control state (see header comment).
        Cluster::Snapshot::Control meta;
        /// Trusted payload geometry — structure is control state, only
        /// the data words in `payload` are the fault surface: per-DM-bank
        /// (cells, has_check), per-core dirty-word bitmaps and the dirty
        /// DM addresses (deltas), and the dirty-IM addresses (kept in
        /// `meta` with their cell data zeroed).
        std::vector<std::uint32_t> dm_cells;
        std::vector<std::uint8_t> dm_has_check;
        std::vector<std::uint32_t> reg_masks; ///< bit i: arch word i differs from base
        struct DmAddr {
            std::uint8_t bank = 0;
            std::uint32_t offset = 0;
        };
        std::vector<DmAddr> dm_addrs;
    };

    void encode_keyframe(const Cluster::Snapshot& snap, Record& rec);
    /// Encodes `snap` as a delta against base_full_. Returns false when
    /// the delta payload would be no smaller than a keyframe's.
    bool encode_delta(const Cluster::Snapshot& snap, Record& rec);
    void copy_meta(const Cluster::Snapshot& snap, Record& rec) const;
    /// Decodes `rec` into `out`; for deltas, `out` must already hold the
    /// reconstructed base keyframe. Returns false on structural
    /// corruption (payload too short / geometry mismatch).
    bool decode(const Record& rec, Cluster::Snapshot& out) const;
    bool crc_ok(const Record& rec) const;
    std::uint64_t keyframe_payload_size(const Cluster::Snapshot& snap) const;

    Record* slot_ptr(unsigned slot);

    CkptStorageConfig cfg_;
    CkptStorageStats stats_;
    Record delta_;    ///< newest delta since the current keyframe
    Record cur_key_;  ///< the delta's base
    Record prev_key_; ///< last-resort fallback
    /// Pristine copy of the snapshot behind cur_key_, kept only to diff
    /// delta saves against (restores always re-decode from payload bytes
    /// so stored corruption genuinely propagates).
    Cluster::Snapshot base_full_;
    unsigned saves_since_key_ = 0;
};

} // namespace ulpmc::cluster
