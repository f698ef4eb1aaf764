// Thread-local cluster reuse (DESIGN.md §10, §13).
//
// Design-space sweeps and fault campaigns simulate thousands of
// independent points, each of which used to construct (and tear down) a
// full Cluster — banks, decode caches, fetch table — per point. A
// persistent worker thread only ever runs one simulation at a time, so a
// per-thread Cluster instance, re-initialized in place with
// Cluster::reset(), serves every point that thread executes with zero
// steady-state heap allocation.
//
// Fleet runs (DESIGN.md §13) interleave HETEROGENEOUS device shapes on
// one worker: a ulpmc-bank 8-core device followed by an mc-ref 4-core
// one. A single pooled instance would re-allocate on every shape switch,
// so the pool keeps one bucket per configuration shape (the geometry- and
// engine-defining fields below), bounded at kPoolMaxBuckets per thread
// with least-recently-used eviction when a cold shape must make room.
// Same-shape reuse therefore stays heap-free after warm-up no matter how
// many shapes a worker cycles through, as long as the working set fits
// the bucket bound (pinned by tests/cluster/alloc_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "isa/program_image.hpp"

namespace ulpmc::cluster {

/// Per-thread bucket bound: one bucket per live config shape. Sized for
/// the fleet's heterogeneity axes (3 arches x ladder core counts) with
/// headroom; a worker cycling through more shapes than this thrashes
/// (visible in PoolStats::evictions) but stays correct.
inline constexpr std::size_t kPoolMaxBuckets = 8;

/// Instrumentation for this thread's pool (cumulative since thread start).
struct PoolStats {
    std::uint64_t hits = 0;      ///< same-shape reuse (reset in place)
    std::uint64_t misses = 0;    ///< new shape: full construction
    std::uint64_t evictions = 0; ///< cold bucket destroyed to make room
    std::size_t buckets = 0;     ///< live buckets right now
};

/// Returns this thread's pooled Cluster for the configuration's shape,
/// re-initialized to the state a freshly constructed Cluster(cfg, image)
/// would have. The first call with a new shape constructs the instance;
/// later same-shape calls reuse its buffers (no heap allocation).
///
/// Contract: the returned reference stays valid until a LATER
/// pooled_cluster() call on the same thread (which may evict it) — finish
/// with one simulation before requesting the next, and never interleave
/// two pooled uses on one thread. Callers needing two live clusters at
/// once (differential tests) must construct their own.
Cluster& pooled_cluster(const ClusterConfig& cfg,
                        std::shared_ptr<const isa::ProgramImage> image);

/// This thread's pool counters (hits/misses/evictions/live buckets).
PoolStats pooled_cluster_stats();

/// Drops every bucket this thread holds (tests; frees the memory).
void pooled_cluster_clear();

} // namespace ulpmc::cluster
