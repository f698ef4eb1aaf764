#include "cluster/pool.hpp"

#include <array>
#include <utility>

namespace ulpmc::cluster {

namespace {

/// The fields whose change forces Cluster::reset() to re-allocate (memory
/// geometry, core count, decode-cache layout). Two configs with equal
/// shape can share one bucket: reset() handles every remaining field
/// (protection flags, watchdog, broadcast, ...) allocation-free.
struct Shape {
    ArchKind arch;
    SimEngine engine;
    unsigned cores;
    mmu::ImPolicy im_policy;
    unsigned im_banks, dm_banks;
    std::size_t im_bank_words, dm_bank_words;
    Addr dm_shared, dm_private;

    static Shape of(const ClusterConfig& cfg) {
        return {cfg.arch,          cfg.engine,        cfg.cores,
                cfg.im_policy,     cfg.im_banks,      cfg.dm_banks,
                cfg.im_bank_words, cfg.dm_bank_words, cfg.dm_layout.shared_words,
                cfg.dm_layout.private_words_per_core};
    }

    bool operator==(const Shape& o) const {
        return arch == o.arch && engine == o.engine && cores == o.cores &&
               im_policy == o.im_policy && im_banks == o.im_banks && dm_banks == o.dm_banks &&
               im_bank_words == o.im_bank_words && dm_bank_words == o.dm_bank_words &&
               dm_shared == o.dm_shared && dm_private == o.dm_private;
    }
};

struct Bucket {
    Shape shape;
    std::unique_ptr<Cluster> cluster;
    std::uint64_t last_use = 0;
};

struct Pool {
    std::array<Bucket, kPoolMaxBuckets> buckets;
    std::size_t live = 0;
    std::uint64_t tick = 0;
    PoolStats stats;

    /// Finds the bucket for `shape`, constructing (or evicting the
    /// least-recently-used bucket) as needed. Returns the slot; the
    /// caller resets/constructs the cluster.
    Bucket& acquire(const Shape& shape) {
        ++tick;
        for (std::size_t i = 0; i < live; ++i) {
            if (buckets[i].shape == shape) {
                ++stats.hits;
                buckets[i].last_use = tick;
                return buckets[i];
            }
        }
        ++stats.misses;
        std::size_t slot = live;
        if (live == kPoolMaxBuckets) {
            slot = 0;
            for (std::size_t i = 1; i < live; ++i)
                if (buckets[i].last_use < buckets[slot].last_use) slot = i;
            buckets[slot].cluster.reset();
            ++stats.evictions;
        } else {
            ++live;
        }
        buckets[slot].shape = shape;
        buckets[slot].last_use = tick;
        return buckets[slot];
    }
};

thread_local Pool t_pool;

} // namespace

Cluster& pooled_cluster(const ClusterConfig& cfg,
                        std::shared_ptr<const isa::ProgramImage> image) {
    Bucket& b = t_pool.acquire(Shape::of(cfg));
    if (!b.cluster) {
        b.cluster = std::make_unique<Cluster>(cfg, std::move(image));
    } else {
        b.cluster->reset(cfg, std::move(image));
    }
    return *b.cluster;
}

PoolStats pooled_cluster_stats() {
    PoolStats s = t_pool.stats;
    s.buckets = t_pool.live;
    return s;
}

void pooled_cluster_clear() {
    for (std::size_t i = 0; i < t_pool.live; ++i) t_pool.buckets[i].cluster.reset();
    t_pool.live = 0;
    t_pool.stats.buckets = 0;
}

} // namespace ulpmc::cluster
