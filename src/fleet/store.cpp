#include "fleet/store.hpp"

#include <cstring>
#include <fstream>

#include "common/atomic_file.hpp"

namespace ulpmc::fleet {

StoreHeader store_header(const FleetOptions& opt) {
    StoreHeader hdr;
    hdr.cohorts = opt.cohorts;
    hdr.seed = opt.seed;
    hdr.devices = opt.devices;
    hdr.shard_k = opt.shard_k;
    hdr.shard_n = opt.shard_n;
    return hdr;
}

void write_store(const std::string& path, const StoreHeader& hdr,
                 const std::vector<DeviceRecord>& records) {
    // Composed in memory and published with a fsync+rename so a killed
    // writer leaves the old store (or none), never a truncated one — the
    // same durability contract as the JSON artifacts (DESIGN.md §9.6).
    std::string content;
    content.reserve(sizeof(hdr) + records.size() * sizeof(DeviceRecord));
    content.append(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
    content.append(reinterpret_cast<const char*>(records.data()),
                   records.size() * sizeof(DeviceRecord));
    try {
        write_file_atomic(path, content);
    } catch (const AtomicFileError& e) {
        throw FleetStoreError(std::string("fleet store: ") + e.what());
    }
}

LoadedStore read_store(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw FleetStoreError("fleet store: cannot open: " + path);
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0, std::ios::beg);
    if (size < sizeof(StoreHeader))
        throw FleetStoreError("fleet store: file shorter than the header: " + path);

    LoadedStore ls;
    in.read(reinterpret_cast<char*>(&ls.header), sizeof(StoreHeader));
    if (!in) throw FleetStoreError("fleet store: header read failed: " + path);
    if (std::memcmp(ls.header.magic, "ULPF", 4) != 0)
        throw FleetStoreError("fleet store: bad magic (not a fleet store): " + path);
    if (ls.header.version != 1)
        throw FleetStoreError("fleet store: unsupported version " +
                              std::to_string(ls.header.version) + ": " + path);
    if (ls.header.record_size != sizeof(DeviceRecord))
        throw FleetStoreError("fleet store: record size mismatch (file " +
                              std::to_string(ls.header.record_size) + ", expected " +
                              std::to_string(sizeof(DeviceRecord)) + "): " + path);
    if (ls.header.shard_n < 1 || ls.header.shard_k >= ls.header.shard_n)
        throw FleetStoreError("fleet store: invalid shard header: " + path);

    const std::uint64_t payload = size - sizeof(StoreHeader);
    if (payload % sizeof(DeviceRecord) != 0)
        throw FleetStoreError("fleet store: truncated record tail: " + path);
    const std::uint64_t n = payload / sizeof(DeviceRecord);
    const std::uint64_t expected =
        shard_device_count(ls.header.devices, ls.header.shard_k, ls.header.shard_n);
    if (n != expected)
        throw FleetStoreError("fleet store: " + std::to_string(n) + " records but header "
                              "implies " + std::to_string(expected) + ": " + path);

    ls.records.resize(n);
    in.read(reinterpret_cast<char*>(ls.records.data()),
            static_cast<std::streamsize>(n * sizeof(DeviceRecord)));
    if (!in) throw FleetStoreError("fleet store: record read failed: " + path);

    // Records must be this shard's devices in ascending gdi order.
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t want = ls.header.shard_k + i * ls.header.shard_n;
        if (ls.records[i].gdi != want)
            throw FleetStoreError("fleet store: record " + std::to_string(i) +
                                  " has gdi " + std::to_string(ls.records[i].gdi) +
                                  ", expected " + std::to_string(want) + ": " + path);
    }
    return ls;
}

} // namespace ulpmc::fleet
