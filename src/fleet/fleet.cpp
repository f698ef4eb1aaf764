#include "fleet/fleet.hpp"

#include <chrono>
#include <cmath>
#include <mutex>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::fleet {

namespace {

/// Seed-stream prefixes inside the FLEET seed domain (the per-device
/// engine owns its own domain under the device seed). High-byte prefixes
/// keep the gdi-indexed streams disjoint for any fleet below 2^40.
constexpr std::uint64_t kSpecStream = 0xF1EE7A00'00000000ull;   ///< spec draws
constexpr std::uint64_t kDeviceStream = 0xF1EE7B00'00000000ull; ///< strike/link seed
constexpr std::uint64_t kCohortStream = 0xF1EE7C00'00000000ull; ///< workload seed

} // namespace

DeviceSpec device_spec(const FleetOptions& opt, std::uint64_t gdi) {
    ULPMC_EXPECTS(gdi < opt.devices);
    ULPMC_EXPECTS(opt.cohorts >= 1);
    DeviceSpec s;
    s.gdi = gdi;
    s.seed = fault::mix_seed(opt.seed, kDeviceStream + gdi);
    s.cohort = static_cast<std::uint32_t>(gdi % opt.cohorts);

    // Every draw comes from a generator keyed by the global index, never
    // by execution order — the same discipline as the campaign layer.
    Rng r(fault::mix_seed(opt.seed, kSpecStream + gdi));
    const double ua = r.uniform();
    s.arch = ua < 0.5   ? cluster::ArchKind::UlpmcBank
             : ua < 0.8 ? cluster::ArchKind::UlpmcInt
                        : cluster::ArchKind::McRef;
    s.policy = r.uniform() < opt.baseline_fraction ? scenario::Policy::Baseline
                                                   : scenario::Policy::Ladder;
    // Deployed anywhere from freshly charged to 60%: staggers where each
    // device enters the degradation ladder.
    s.initial_charge = 0.6 + 0.4 * r.uniform();
    return s;
}

scenario::DeviceConfig device_config(const FleetOptions& opt, const DeviceSpec& spec) {
    return {.arch = spec.arch, .engine = opt.engine, .seed = spec.seed, .policy = spec.policy,
            .max_days = opt.days, .initial_charge = spec.initial_charge,
            .thresholds = opt.thresholds};
}

std::uint64_t shard_device_count(std::uint64_t devices, unsigned k, unsigned n) {
    ULPMC_EXPECTS(n >= 1 && k < n);
    // Devices with gdi % n == k: gdi = k, k + n, k + 2n, ...
    return devices > k ? (devices - k - 1) / n + 1 : 0;
}

void SliceTotals::add(const DeviceRecord& r) {
    ++devices;
    energy_nj += r.energy_nj;
    samples_total += r.samples_total;
    samples_delivered += r.samples_delivered;
    sdc_blocks += r.sdc_blocks;
    brownouts += r.browned_out;
    total_blocks += r.total_blocks;
}

void FleetAggregate::add(const DeviceRecord& r) {
    total.add(r);
    by_policy[r.policy].add(r);
    by_arch[r.arch].add(r);
    // Sketch inputs derive from the record's INTEGER fields: the record
    // alone (e.g. read back from a store) reproduces the exact doubles.
    energy_j.add(static_cast<double>(r.energy_nj) * 1e-9);
    delivered_fraction.add(r.samples_total > 0
                               ? static_cast<double>(r.samples_delivered) /
                                     static_cast<double>(r.samples_total)
                               : 0.0);
    sdc_blocks.add(static_cast<double>(r.sdc_blocks));
    max_backoff_s.add(static_cast<double>(r.max_backoff_us) * 1e-6);
}

DeviceRecord make_record(const DeviceSpec& spec, const scenario::LifetimeReport& rep) {
    DeviceRecord r;
    r.gdi = spec.gdi;
    r.cohort = spec.cohort;
    r.arch = static_cast<std::uint8_t>(spec.arch);
    r.policy = static_cast<std::uint8_t>(spec.policy);
    double energy = 0;
    for (const scenario::PhaseReport& p : rep.phases)
        energy += p.energy_compute_j + p.energy_checkpoint_j + p.energy_reexec_j +
                  p.energy_radio_j;
    // Quantize floats at the device boundary: every cross-device /
    // cross-shard reduction downstream is an integer sum.
    r.energy_nj = static_cast<std::uint64_t>(std::llround(energy * 1e9));
    r.samples_total = rep.samples_total;
    r.samples_delivered = rep.link.samples_delivered + rep.link.samples_delivered_degraded;
    r.sdc_blocks = rep.sdc_blocks;
    r.total_blocks = static_cast<std::uint32_t>(rep.total_blocks);
    r.max_backoff_us =
        static_cast<std::uint32_t>(std::llround(rep.link.max_backoff_s * 1e6));
    r.browned_out = rep.first_brownout_s >= 0 ? 1 : 0;
    return r;
}

FleetEngine::FleetEngine(const scenario::Timeline& tl, const FleetOptions& opt)
    : tl_(tl), opt_(opt) {
    ULPMC_EXPECTS(opt_.devices >= 1);
    ULPMC_EXPECTS(opt_.cohorts >= 1);
    ULPMC_EXPECTS(opt_.shard_n >= 1 && opt_.shard_k < opt_.shard_n);
    ULPMC_EXPECTS(opt_.baseline_fraction >= 0 && opt_.baseline_fraction <= 1);
    // One benchmark per workload cohort (the patient): built once here,
    // sequentially, and shared read-only by every device in the cohort.
    benches_.reserve(opt_.cohorts);
    for (unsigned c = 0; c < opt_.cohorts; ++c) {
        benches_.push_back(std::make_shared<const app::EcgBenchmark>(app::BenchmarkOptions{
            .seed = fault::mix_seed(opt_.seed, kCohortStream + c)}));
    }
}

FleetEngine::~FleetEngine() = default;

FleetResult FleetEngine::run() { return run(FleetResume{}); }

FleetResult FleetEngine::run(const FleetResume& resume) {
    const std::uint64_t count = shard_device_count(opt_.devices, opt_.shard_k, opt_.shard_n);
    FleetResult res;
    res.records.resize(count);

    sweep::SweepRunner pool(opt_.threads);
    res.sched.workers = pool.threads();

    const auto t0 = std::chrono::steady_clock::now();
    std::mutex complete_m;
    pool.for_each_index(count, [&](std::size_t i) {
        const std::uint64_t gdi = opt_.shard_k + i * opt_.shard_n;
        if (resume.lookup) {
            DeviceRecord replayed;
            if (resume.lookup(gdi, replayed)) {
                // Journal replay: the record was persisted by a previous
                // attempt of this exact run — adopt it, simulate nothing.
                ULPMC_EXPECTS(replayed.gdi == gdi);
                res.records[i] = replayed;
                return;
            }
        }
        const DeviceSpec spec = device_spec(opt_, gdi);
        scenario::LifetimeEngine eng(tl_, device_config(opt_, spec), benches_[spec.cohort],
                                     &cache_);
        // The lifetime's struck-block fan-out runs caller-only: the fleet
        // already saturates the machine at device granularity, and a
        // one-thread runner spawns no thread.
        sweep::SweepRunner inner(1);
        res.records[i] = make_record(spec, eng.run(inner));
        if (resume.on_complete) {
            std::lock_guard lock(complete_m);
            resume.on_complete(res.records[i]);
        }
    });
    res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    // Aggregate strictly in ascending gdi order — the pool's execution
    // order never reaches the artifact.
    for (const DeviceRecord& r : res.records) res.aggregate.add(r);
    res.calibrations = cache_.size();
    res.device_hours =
        static_cast<double>(res.aggregate.total.total_blocks) * tl_.block_period_s / 3600.0;
    return res;
}

} // namespace ulpmc::fleet
