// Fleet determinism contract (DESIGN.md §13): the JSON artifact is a pure
// function of (timeline, FleetOptions) — byte-identical across pool
// thread counts and simulator engine tiers; shard splits merge back to
// the same bytes (farm_test.cpp). tests/fleet/fleet_smoke.cmake re-checks
// both end-to-end through the ulpmc-fleet binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "scenario/timeline.hpp"

namespace ulpmc::fleet {
namespace {

constexpr char kTimeline[] = R"(
block_period_s 2.0
battery_j 0.006
phase clean     60 harvest_uw=50
phase radiation 60 lambda=2e-7 ble_loss=0.05 harvest_uw=50
phase drought   60 ble=down harvest_uw=150
phase recovery  60 ble_loss=0.01 harvest_uw=400
)";

scenario::Timeline timeline() {
    std::istringstream in(kTimeline);
    return scenario::parse_timeline(in);
}

FleetOptions base_options() {
    FleetOptions opt;
    opt.seed = 11;
    opt.devices = 16;
    opt.cohorts = 2;
    opt.threads = 2;
    return opt;
}

FleetResult run_fleet(const FleetOptions& opt) {
    const scenario::Timeline tl = timeline();
    FleetEngine eng(tl, opt);
    return eng.run();
}

std::string render(const FleetOptions& opt, const FleetAggregate& agg, std::uint64_t records) {
    std::ostringstream os;
    write_json(os, "test", opt, 2.0, agg, records);
    return os.str();
}

TEST(Fleet, DeviceSpecIsPureAndHeterogeneous) {
    FleetOptions opt = base_options();
    opt.devices = 200;
    std::set<std::uint8_t> arches, policies;
    std::set<std::uint64_t> seeds;
    for (std::uint64_t gdi = 0; gdi < opt.devices; ++gdi) {
        const DeviceSpec a = device_spec(opt, gdi);
        const DeviceSpec b = device_spec(opt, gdi);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.initial_charge, b.initial_charge);
        EXPECT_EQ(a.cohort, gdi % opt.cohorts);
        EXPECT_GE(a.initial_charge, 0.6);
        EXPECT_LE(a.initial_charge, 1.0);
        arches.insert(static_cast<std::uint8_t>(a.arch));
        policies.insert(static_cast<std::uint8_t>(a.policy));
        seeds.insert(a.seed);
    }
    EXPECT_EQ(arches.size(), 3u) << "all three architectures deployed";
    EXPECT_EQ(policies.size(), 2u) << "both policies deployed";
    EXPECT_EQ(seeds.size(), opt.devices) << "per-device seeds are distinct";
}

TEST(Fleet, ShardDeviceCountPartitions) {
    for (std::uint64_t devices : {1u, 7u, 16u, 1000u}) {
        for (unsigned n : {1u, 2u, 3u, 7u}) {
            std::uint64_t sum = 0;
            for (unsigned k = 0; k < n; ++k) sum += shard_device_count(devices, k, n);
            EXPECT_EQ(sum, devices) << devices << " over " << n;
        }
    }
}

TEST(Fleet, RecordsAscendGdiAndMatchSpecs) {
    const FleetOptions opt = base_options();
    const FleetResult res = run_fleet(opt);
    ASSERT_EQ(res.records.size(), opt.devices);
    for (std::size_t i = 0; i < res.records.size(); ++i) {
        const DeviceRecord& r = res.records[i];
        const DeviceSpec spec = device_spec(opt, i);
        EXPECT_EQ(r.gdi, i);
        EXPECT_EQ(r.cohort, spec.cohort);
        EXPECT_EQ(r.arch, static_cast<std::uint8_t>(spec.arch));
        EXPECT_EQ(r.policy, static_cast<std::uint8_t>(spec.policy));
        EXPECT_GT(r.energy_nj, 0u);
        EXPECT_GT(r.samples_total, 0u);
    }
    EXPECT_GT(res.calibrations, 0u);
}

TEST(Fleet, ThreadCountNeverReachesTheArtifact) {
    FleetOptions opt = base_options();
    opt.threads = 1;
    const std::string one = render(opt, run_fleet(opt).aggregate, opt.devices);
    opt.threads = 4;
    const std::string four = render(opt, run_fleet(opt).aggregate, opt.devices);
    opt.threads = 8;
    const std::string eight = render(opt, run_fleet(opt).aggregate, opt.devices);
    EXPECT_EQ(one, four);
    EXPECT_EQ(one, eight);
}

TEST(Fleet, EngineTierNeverReachesTheArtifact) {
    FleetOptions opt = base_options();
    opt.engine = cluster::SimEngine::Trace;
    const std::string trace = render(opt, run_fleet(opt).aggregate, opt.devices);
    opt.engine = cluster::SimEngine::Batched;
    const std::string batched = render(opt, run_fleet(opt).aggregate, opt.devices);
    EXPECT_EQ(trace, batched);
}

TEST(Fleet, ResumeReplaysJournaledDevicesByteIdentical) {
    // Simulated crash-and-resume (DESIGN.md §9.6): the first run's journal
    // holds a prefix of completions; the resumed run must adopt them
    // without re-simulating, report only the fresh devices through
    // on_complete, and produce byte-identical records and artifact.
    const FleetOptions opt = base_options();
    const scenario::Timeline tl = timeline();

    std::vector<DeviceRecord> completion_order;
    FleetResume capture;
    capture.on_complete = [&](const DeviceRecord& r) { completion_order.push_back(r); };
    FleetEngine ref_eng(tl, opt);
    const FleetResult ref = ref_eng.run(capture);
    ASSERT_EQ(completion_order.size(), opt.devices);
    const std::string reference = render(opt, ref.aggregate, ref.records.size());

    // A journal killed mid-run holds some completion-order prefix.
    std::unordered_map<std::uint64_t, DeviceRecord> journaled;
    for (std::size_t i = 0; i < 7; ++i)
        journaled[completion_order[i].gdi] = completion_order[i];

    FleetResume hooks;
    hooks.lookup = [&](std::uint64_t gdi, DeviceRecord& out) {
        const auto it = journaled.find(gdi);
        if (it == journaled.end()) return false;
        out = it->second;
        return true;
    };
    std::size_t fresh = 0;
    hooks.on_complete = [&](const DeviceRecord& r) {
        ++fresh;
        EXPECT_EQ(journaled.count(r.gdi), 0u) << "replayed device re-reported";
    };
    FleetEngine eng(tl, opt);
    const FleetResult res = eng.run(hooks);
    EXPECT_EQ(fresh, opt.devices - journaled.size());
    ASSERT_EQ(res.records.size(), ref.records.size());
    EXPECT_EQ(std::memcmp(res.records.data(), ref.records.data(),
                          res.records.size() * sizeof(DeviceRecord)),
              0);
    EXPECT_EQ(render(opt, res.aggregate, res.records.size()), reference);
}

TEST(Fleet, FullyJournaledShardSimulatesNothing) {
    const FleetOptions opt = base_options();
    const scenario::Timeline tl = timeline();
    const FleetResult ref = run_fleet(opt);

    FleetResume hooks;
    hooks.lookup = [&](std::uint64_t gdi, DeviceRecord& out) {
        out = ref.records[gdi / 1]; // unsharded: records[i].gdi == i
        return true;
    };
    hooks.on_complete = [](const DeviceRecord&) {
        FAIL() << "a fully journaled shard must not simulate any device";
    };
    FleetEngine eng(tl, opt);
    const FleetResult res = eng.run(hooks);
    EXPECT_EQ(render(opt, res.aggregate, res.records.size()),
              render(opt, ref.aggregate, ref.records.size()));
}

TEST(Fleet, FailingCompletionHookStopsTheRun) {
    // A failing journal append (or a preemption thrown from lookup) must
    // stop the run: the pool claims no further device after the first
    // exception, so a disk-full append does not simulate the rest.
    FleetOptions opt = base_options();
    opt.devices = 32;
    const scenario::Timeline tl = timeline();
    std::atomic<std::uint64_t> lookups{0};
    bool first = true;
    FleetResume hooks;
    hooks.lookup = [&](std::uint64_t, DeviceRecord&) {
        ++lookups;
        return false;
    };
    hooks.on_complete = [&](const DeviceRecord&) { // serialized by the engine
        if (first) {
            first = false;
            throw std::runtime_error("journal append failed");
        }
    };
    FleetEngine eng(tl, opt);
    EXPECT_THROW(eng.run(hooks), std::runtime_error);
    // Each worker may finish the device it holds; none starts the rest.
    EXPECT_LT(lookups.load(), opt.devices / 4);
}

TEST(Fleet, ShardArtifactCarriesShardKey) {
    FleetOptions opt = base_options();
    opt.shard_k = 1;
    opt.shard_n = 2;
    const FleetResult res = run_fleet(opt);
    const std::string json = render(opt, res.aggregate, res.records.size());
    EXPECT_NE(json.find("\"shard\": \"1/2\""), std::string::npos);
    // The unsharded artifact must NOT carry the key (merged output equals
    // unsharded bytes only because of this).
    FleetOptions whole = base_options();
    EXPECT_EQ(render(whole, res.aggregate, res.records.size()).find("\"shard\""),
              std::string::npos);
}

} // namespace
} // namespace ulpmc::fleet
