// Compact append-only binary result store (DESIGN.md §13).
//
// One fixed-size DeviceRecord per device, preceded by a small header
// binding the records to their fleet (seed, global size, shard split).
// The format exists for offline analysis and shard hand-off: the JSON
// artifact carries only the streaming aggregate, so the store is the one
// place per-device results survive. Append-only by construction — the
// writer emits the header then streams records in ascending gdi order,
// and the reader validates structure hard: bad magic, version skew,
// record-size skew, a truncated tail or a record count that contradicts
// the header's shard arithmetic all throw FleetStoreError. A corrupt
// store must never silently feed an aggregation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace ulpmc::fleet {

class FleetStoreError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// On-disk header (little-endian, packed; 40 bytes).
struct StoreHeader {
    char magic[4] = {'U', 'L', 'P', 'F'};
    std::uint32_t version = 1;
    std::uint32_t record_size = sizeof(DeviceRecord);
    std::uint32_t cohorts = 0;
    std::uint64_t seed = 0;
    std::uint64_t devices = 0; ///< GLOBAL fleet size (all shards)
    std::uint32_t shard_k = 0;
    std::uint32_t shard_n = 1;
};
static_assert(sizeof(StoreHeader) == 40, "store format: keep the header packed");

/// The header binding a store to `opt`'s fleet and shard split.
StoreHeader store_header(const FleetOptions& opt);

/// Writes header + records to `path` (overwrites). Throws FleetStoreError
/// on any I/O failure.
void write_store(const std::string& path, const StoreHeader& hdr,
                 const std::vector<DeviceRecord>& records);

struct LoadedStore {
    StoreHeader header;
    std::vector<DeviceRecord> records; ///< ascending gdi, one per shard device
};

/// Reads and validates `path`. Throws FleetStoreError on unreadable
/// files, bad magic/version/record size, truncation, or a record count
/// that does not match the header's (devices, shard) arithmetic.
LoadedStore read_store(const std::string& path);

} // namespace ulpmc::fleet
