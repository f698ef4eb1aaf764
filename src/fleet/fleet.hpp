// Fleet simulation layer (DESIGN.md §13).
//
// Scales the single-device lifetime engine (scenario/engine) to
// thousands of heterogeneous device instances: per-device architecture,
// resilience policy, workload cohort (patient), initial state of charge
// and strike seed are all pure functions of the GLOBAL device index, so a
// fleet is fully specified by (timeline, FleetOptions) — independent of
// thread count, shard split and execution order.
//
// What makes a fleet affordable is what it shares. Devices in one
// workload cohort share a single EcgBenchmark (the patient's CS matrix,
// Huffman table and decode-once ProgramImage); every (cohort, arch,
// policy, level) calibration is computed once per process through the
// shared scenario::CalibrationCache; and each worker re-uses per-shape
// pooled clusters (cluster/pool) across the devices it runs. A naive
// loop of ulpmc-life processes pays benchmark construction + five
// calibrations per device; the fleet pays them once per cohort.
//
// Aggregation is streaming: per-device results collapse into integer
// totals plus quantile sketches (fleet/sketch), so memory is O(devices)
// records + O(1) aggregate, never O(devices x blocks). Energy is
// quantized to integer nanojoules at the device boundary, so totals are
// integer sums. Shards merge at the record level (fleet/farm
// merge_stores): the full record set is re-aggregated in ascending gdi
// order, the exact path an unsharded run takes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/config.hpp"
#include "common/journal.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/sketch.hpp"
#include "scenario/engine.hpp"
#include "scenario/timeline.hpp"

namespace ulpmc::fleet {

/// Fleet run-journal frame kinds ("META"/"RECD"/"HRTB" in ASCII, read as
/// little-endian u32). Shared by the ulpmc-fleet worker that writes them
/// and the farm supervisor that scans them: META binds the journal to the
/// run's options + timeline bytes, RECD carries one finished DeviceRecord,
/// HRTB is a liveness heartbeat carrying [u64 seq][u64 devices-complete].
/// Consumers skip kinds they do not recognize (forward compatibility), so
/// a heartbeat-bearing journal still resumes under an older binary.
inline constexpr std::uint32_t kFleetMetaFrame = kJournalMetaFrame;
inline constexpr std::uint32_t kFleetRecordFrame = 0x44434552u;
inline constexpr std::uint32_t kFleetHeartbeatFrame = 0x42545248u;

struct FleetOptions {
    std::uint64_t seed = 1;      ///< fleet master seed (everything derives)
    std::uint64_t devices = 1000; ///< GLOBAL fleet size (all shards)
    unsigned cohorts = 8;        ///< workload cohorts (patients)
    unsigned shard_k = 0;        ///< this shard's index in [0, shard_n)
    unsigned shard_n = 1;        ///< total shards
    unsigned threads = 0;        ///< 0: hardware concurrency
    double days = 0;             ///< per-device lifetime; 0 = one timeline pass
    /// Fraction of devices running the no-resilience Baseline policy (the
    /// control arm); the rest run the degradation Ladder.
    double baseline_fraction = 0.25;
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    scenario::LadderThresholds thresholds{};
};

/// Everything about one device that is decided before it runs — derived
/// from the global device index alone (see device_spec).
struct DeviceSpec {
    std::uint64_t gdi = 0;  ///< global device index in [0, devices)
    std::uint64_t seed = 0; ///< strike/link seed (decoupled from workload)
    std::uint32_t cohort = 0;
    cluster::ArchKind arch = cluster::ArchKind::UlpmcBank;
    scenario::Policy policy = scenario::Policy::Ladder;
    double initial_charge = 1.0; ///< state of charge at deployment
};

/// Derives device `gdi`'s spec. Pure function of (opt.seed, opt.devices,
/// opt.cohorts, opt.baseline_fraction, gdi): the same device in a shard
/// run and the unsharded run is byte-identical by construction.
DeviceSpec device_spec(const FleetOptions& opt, std::uint64_t gdi);

/// The lifetime engine's configuration of device `spec` under `opt`.
scenario::DeviceConfig device_config(const FleetOptions& opt, const DeviceSpec& spec);

/// Number of devices in shard k of n: gdi belongs to shard gdi % n.
std::uint64_t shard_device_count(std::uint64_t devices, unsigned k, unsigned n);

/// Compact per-device result (the append-only store's record, fixed
/// 56 bytes). Quantities that feed fleet sums are integers (energy in
/// nanojoules, backoff in microseconds): integer sums are order-free
/// where float sums are not.
struct DeviceRecord {
    std::uint64_t gdi = 0;
    std::uint64_t energy_nj = 0;         ///< total drain: compute+ckpt+reexec+radio
    std::uint64_t samples_total = 0;
    std::uint64_t samples_delivered = 0; ///< full + degraded fidelity at the peer
    std::uint64_t sdc_blocks = 0;
    std::uint32_t total_blocks = 0;
    std::uint32_t max_backoff_us = 0;
    std::uint32_t cohort = 0;
    std::uint8_t arch = 0;     ///< cluster::ArchKind
    std::uint8_t policy = 0;   ///< scenario::Policy
    std::uint8_t browned_out = 0;
    std::uint8_t pad = 0;
};
static_assert(sizeof(DeviceRecord) == 56, "store format: keep the record packed");

/// Integer sub-totals for one slice of the fleet (a policy or an arch).
struct SliceTotals {
    std::uint64_t devices = 0;
    std::uint64_t energy_nj = 0;
    std::uint64_t samples_total = 0;
    std::uint64_t samples_delivered = 0;
    std::uint64_t sdc_blocks = 0;
    std::uint64_t brownouts = 0;
    std::uint64_t total_blocks = 0;

    void add(const DeviceRecord& r);
};

/// Streaming fleet aggregate: integer totals + quantile sketches, fed one
/// record at a time in ascending gdi order.
struct FleetAggregate {
    SliceTotals total;
    SliceTotals by_policy[2]; ///< indexed by scenario::Policy
    SliceTotals by_arch[3];   ///< indexed by cluster::ArchKind
    QuantileSketch energy_j;
    QuantileSketch delivered_fraction;
    QuantileSketch sdc_blocks;
    QuantileSketch max_backoff_s;

    void add(const DeviceRecord& r);
};

/// Collapses one lifetime report into the store record for device `spec`.
DeviceRecord make_record(const DeviceSpec& spec, const scenario::LifetimeReport& rep);

/// Durable-execution hooks for a fleet shard (DESIGN.md §9.6). Devices
/// are independent, so the unit of progress is one finished DeviceRecord:
/// `lookup` short-circuits a device whose record a journal already holds
/// (its simulation is skipped entirely), and `on_complete` hands over each
/// freshly computed record for persistence — invoked in COMPLETION order,
/// serialized under an internal mutex. Artifacts stay deterministic
/// because they are built from the gdi-ordered result vector, never from
/// the journal's arrival order.
struct FleetResume {
    std::function<bool(std::uint64_t gdi, DeviceRecord& out)> lookup;
    std::function<void(const DeviceRecord&)> on_complete;
};

struct FleetResult {
    /// This shard's records, ascending gdi (the store payload).
    std::vector<DeviceRecord> records;
    FleetAggregate aggregate;
    WorkStealingPool::Stats sched;
    std::size_t calibrations = 0; ///< distinct cache entries computed
    double wall_s = 0;            ///< host wall time (never in JSON artifacts)
    double device_hours = 0;      ///< simulated device-hours executed
};

/// Runs this shard of the fleet. Construction builds the cohort
/// benchmarks (sequential, deterministic); run() executes the shard's
/// devices over the work-stealing pool and aggregates in gdi order.
class FleetEngine {
public:
    FleetEngine(const scenario::Timeline& tl, const FleetOptions& opt);
    ~FleetEngine();

    const FleetOptions& options() const { return opt_; }

    FleetResult run();
    /// Durable flavor: replays journaled devices through resume.lookup and
    /// reports fresh completions through resume.on_complete (FleetResume
    /// above). A shard whose devices all replay re-simulates nothing and
    /// still returns the complete, byte-identical result.
    FleetResult run(const FleetResume& resume);

private:
    scenario::Timeline tl_;
    FleetOptions opt_;
    std::vector<std::shared_ptr<const app::EcgBenchmark>> benches_; ///< per cohort
    scenario::CalibrationCache cache_;
};

} // namespace ulpmc::fleet
