// Fault-tolerant farm (DESIGN.md §13 "Farming"): seeded chaos schedules
// are deterministic and land before shard completion, restart backoff
// mirrors the BleLink discipline, the incremental journal scan tolerates
// mid-append tails and counts re-simulated devices, merge_stores rebuilds
// the unsharded artifact byte-for-byte from shard stores in any order and
// rejects every inconsistent set with a one-line diagnostic, and a real
// supervised run — worker processes, chaos kill, resume — converges to
// the in-process reference with no journaled device re-simulated.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "common/rng.hpp"
#include "fleet/farm.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"
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

class FarmTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (std::filesystem::temp_directory_path() /
                ("ulpmc_farm_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                   .string();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        timeline_path_ = dir_ + "/timeline.txt";
        std::ofstream(timeline_path_) << kTimeline;
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    FarmOptions base_options() const {
        FarmOptions opt;
        opt.fleet.seed = 11;
        opt.fleet.devices = 12;
        opt.fleet.cohorts = 2;
        opt.workers = 2;
        opt.worker_threads = 2;
        opt.timeline_path = timeline_path_;
        opt.fleet_bin = ULPMC_FLEET_BIN;
        opt.dir = dir_ + "/farm";
        // Test-scale supervision constants: fast polls, quick recovery.
        opt.heartbeat_s = 0.05;
        opt.timeout_s = 5.0;
        opt.term_grace_s = 0.5;
        opt.backoff_base_s = 0.02;
        opt.backoff_max_s = 0.1;
        return opt;
    }

    std::string dir_;
    std::string timeline_path_;
};

TEST_F(FarmTest, ChaosScheduleIsDeterministicAndLandsBeforeCompletion) {
    FarmOptions opt = base_options();
    opt.fleet.devices = 100;
    opt.workers = 4;
    opt.chaos_kills = 6;
    opt.chaos_stalls = 3;
    opt.chaos_seed = 42;
    const std::vector<ChaosEvent> a = chaos_schedule(opt);
    const std::vector<ChaosEvent> b = chaos_schedule(opt);
    ASSERT_EQ(a.size(), 9u);
    ASSERT_EQ(b.size(), a.size());
    std::size_t stalls = 0;
    std::vector<std::uint64_t> last(opt.workers, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].at_records, b[i].at_records);
        EXPECT_EQ(a[i].stall, b[i].stall);
        EXPECT_LT(a[i].shard, opt.workers);
        EXPECT_GE(a[i].at_records, 1u);
        // Per-shard triggers strictly increase (the schedule is sorted by
        // shard, so consecutive same-shard entries are adjacent).
        EXPECT_GT(a[i].at_records, last[a[i].shard]) << "event " << i;
        last[a[i].shard] = a[i].at_records;
        if (a[i].stall) ++stalls;
    }
    EXPECT_EQ(stalls, opt.chaos_stalls);
    FarmOptions other = opt;
    other.chaos_seed = 43;
    const std::vector<ChaosEvent> c = chaos_schedule(other);
    bool same = c.size() == a.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = c[i].shard == a[i].shard && c[i].at_records == a[i].at_records;
    EXPECT_FALSE(same) << "a different seed must produce a different schedule";
}

TEST_F(FarmTest, ChaosAtArgumentRoundTripsAndRejectsMalformedLists) {
    const std::vector<ChaosEvent> shard = {{.shard = 0, .at_records = 3, .stall = false},
                                           {.shard = 0, .at_records = 7, .stall = true}};
    ASSERT_EQ(chaos_at_arg(shard), "kill@3,stop@7");
    std::vector<ChaosEvent> back;
    ASSERT_TRUE(parse_chaos_at("kill@3,stop@7", back));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].at_records, 3u);
    EXPECT_FALSE(back[0].stall);
    EXPECT_EQ(back[1].at_records, 7u);
    EXPECT_TRUE(back[1].stall);
    for (const char* bad : {"", "kill@", "kill@0", "stop@7,kill@7", "kill@3,", "hang@3",
                            "kill@-1", "kill@3x", ",kill@3"})
        EXPECT_FALSE(parse_chaos_at(bad, back)) << "'" << bad << "'";
}

TEST_F(FarmTest, BackoffMirrorsTheBleLinkDiscipline) {
    Rng rng(7);
    double prev_nominal = 0;
    for (unsigned restart = 1; restart <= 20; ++restart) {
        Rng probe = rng; // farm_backoff_s consumes one uniform draw
        const double jitter = 0.75 + 0.5 * probe.uniform();
        const unsigned exp = std::min(restart - 1, 16u);
        const double nominal = std::min(0.8, 0.05 * static_cast<double>(1u << exp));
        const double got = farm_backoff_s(0.05, 0.8, restart, rng);
        EXPECT_DOUBLE_EQ(got, std::min(nominal * jitter, 0.8)) << "restart " << restart;
        EXPECT_GE(nominal, prev_nominal) << "nominal backoff must be monotone";
        prev_nominal = nominal;
    }
}

TEST_F(FarmTest, JournalScanIsIncrementalAndTolerant) {
    const std::string path = dir_ + "/scan.jnl";
    DeviceRecord r{};
    auto record_payload = [&](std::uint64_t gdi) {
        r.gdi = gdi;
        std::vector<std::uint8_t> p(sizeof(r));
        std::memcpy(p.data(), &r, sizeof(r));
        return p;
    };
    JournalProgress prog;
    {
        JournalWriter w(path);
        w.append(kFleetMetaFrame, {1, 2, 3});
        w.append(kFleetRecordFrame, record_payload(4));
        std::vector<std::uint8_t> hb(16, 0);
        hb[8] = 1; // completed = 1
        w.append(kFleetHeartbeatFrame, hb);
        w.append(0x58585858u, {9, 9}); // unknown kind: counted by no counter
        scan_journal(path, prog);
        EXPECT_EQ(prog.record_frames, 1u);
        EXPECT_EQ(prog.heartbeats, 1u);
        EXPECT_EQ(prog.heartbeat_devices, 1u);
        EXPECT_EQ(prog.duplicate_records, 0u);
        const std::uint64_t offset_after_first = prog.offset;
        // Incremental: more frames later only advance the scan.
        w.append(kFleetRecordFrame, record_payload(6));
        w.append(kFleetRecordFrame, record_payload(4)); // duplicate gdi!
        scan_journal(path, prog);
        EXPECT_GT(prog.offset, offset_after_first);
        EXPECT_EQ(prog.record_frames, 3u);
        EXPECT_EQ(prog.gdis.size(), 2u);
        EXPECT_EQ(prog.duplicate_records, 1u);
    }
    // A mid-append tail (partial frame) must not advance the offset; once
    // the frame completes, the next scan picks it up.
    const std::uint64_t clean_offset = prog.offset;
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        const std::uint32_t head[2] = {kFleetRecordFrame, sizeof(DeviceRecord)};
        f.write(reinterpret_cast<const char*>(head), 4); // half a header
    }
    scan_journal(path, prog);
    EXPECT_EQ(prog.offset, clean_offset);
    EXPECT_EQ(prog.record_frames, 3u);
    {
        const JournalContents jc = read_journal(path);
        JournalWriter w(path, jc.clean_bytes); // drop the stump, as a resume would
        w.append(kFleetRecordFrame, record_payload(8));
    }
    scan_journal(path, prog);
    EXPECT_EQ(prog.record_frames, 4u);
    EXPECT_EQ(prog.gdis.count(8), 1u);
    // A missing file is "no progress yet", not an error.
    JournalProgress empty;
    scan_journal(dir_ + "/nonexistent.jnl", empty);
    EXPECT_EQ(empty.bytes, 0u);
    EXPECT_EQ(empty.record_frames, 0u);
}

TEST_F(FarmTest, MergeStoresRebuildsTheUnshardedArtifact) {
    FleetOptions fo;
    fo.seed = 11;
    fo.devices = 16;
    fo.cohorts = 2;
    fo.threads = 2;
    std::istringstream in(kTimeline);
    const scenario::Timeline tl = scenario::parse_timeline(in);

    // Reference: the unsharded engine run.
    FleetEngine ref_eng(tl, fo);
    const FleetResult ref = ref_eng.run();
    std::ostringstream ref_json;
    write_json(ref_json, "timeline.txt", fo, tl.block_period_s, ref.aggregate,
               ref.records.size());

    // Shard arm: run each shard separately, store to disk, merge back.
    const unsigned n = 3;
    std::vector<std::string> paths;
    for (unsigned k = 0; k < n; ++k) {
        FleetOptions so = fo;
        so.shard_k = k;
        so.shard_n = n;
        FleetEngine eng(tl, so);
        paths.push_back(dir_ + "/shard_" + std::to_string(k) + ".ulpf");
        write_store(paths.back(), store_header(so), eng.run().records);
    }
    // Any input order: each store is placed by its header's shard key.
    const std::vector<std::vector<std::string>> orders = {
        paths, {paths[1], paths[0], paths[2]}, {paths[2], paths[1], paths[0]}};
    for (const std::vector<std::string>& order : orders) {
        const MergedFleet merged = merge_stores(fo, tl, "timeline.txt", order);
        EXPECT_EQ(merged.json, ref_json.str()) << "merged JSON must be byte-identical";
        ASSERT_EQ(merged.records.size(), ref.records.size());
        EXPECT_EQ(0, std::memcmp(merged.records.data(), ref.records.data(),
                                 merged.records.size() * sizeof(DeviceRecord)));
    }

    // The rejection ladder: every bad set throws a one-line FarmError.
    auto expect_rejected = [&](const FleetOptions& spec, const std::vector<std::string>& set,
                               const std::string& why) {
        try {
            merge_stores(spec, tl, "timeline.txt", set);
            ADD_FAILURE() << why << ": merged without complaint";
        } catch (const FarmError& e) {
            const std::string msg = e.what();
            EXPECT_EQ(msg.find('\n'), std::string::npos) << why << ": " << msg;
            EXPECT_EQ(msg.rfind("merge: ", 0), 0u) << why << ": " << msg;
        }
    };
    // Stores that are real records under a different split.
    const std::string whole = dir_ + "/whole.ulpf";
    write_store(whole, store_header(fo), ref.records);
    FleetOptions half = fo;
    half.shard_n = 2;
    std::vector<DeviceRecord> evens;
    for (const DeviceRecord& r : ref.records)
        if (r.gdi % 2 == 0) evens.push_back(r);
    const std::string half0 = dir_ + "/half_0.ulpf";
    write_store(half0, store_header(half), evens);
    // Stores that are not stores.
    const std::string trunc = dir_ + "/trunc.ulpf";
    {
        std::ifstream src(paths[1], std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(src)), std::istreambuf_iterator<char>());
        std::ofstream(trunc, std::ios::binary) << bytes.substr(0, 100);
    }
    const std::string json = dir_ + "/whole.json";
    std::ofstream(json) << ref_json.str();

    expect_rejected(fo, {}, "empty set");
    expect_rejected(fo, {paths[0], paths[0], paths[1]}, "duplicate shard");
    expect_rejected(fo, {paths[0], paths[2]}, "missing shard");
    expect_rejected(fo, {paths[0], half0, paths[2]}, "mixed N");
    expect_rejected(fo, {paths[0], paths[1], whole}, "unsharded store fed as a shard");
    expect_rejected(fo, {paths[0], trunc, paths[2]}, "truncated store");
    expect_rejected(fo, {paths[0], json, paths[2]}, "JSON fed as a store");
    expect_rejected(fo, {paths[0], dir_ + "/nope.ulpf", paths[2]}, "missing file");
    FleetOptions wrong = fo;
    wrong.seed = 12;
    expect_rejected(wrong, paths, "seed mismatch");
    wrong = fo;
    wrong.cohorts = 3;
    expect_rejected(wrong, paths, "cohorts mismatch");
    wrong = fo;
    wrong.baseline_fraction = 0.9;
    expect_rejected(wrong, paths, "baseline mismatch");
    wrong = fo;
    wrong.days = 1;
    expect_rejected(wrong, paths, "days mismatch");
}

TEST_F(FarmTest, ConstructorRejectsUnusableOptions) {
    {
        FarmOptions opt = base_options();
        opt.workers = 0;
        EXPECT_THROW(Farm farm(opt), FarmError);
    }
    {
        FarmOptions opt = base_options();
        opt.workers = static_cast<unsigned>(opt.fleet.devices) + 1;
        EXPECT_THROW(Farm farm(opt), FarmError) << "empty shards";
    }
    {
        FarmOptions opt = base_options();
        opt.timeout_s = opt.heartbeat_s / 2;
        EXPECT_THROW(Farm farm(opt), FarmError) << "timeout below heartbeat";
    }
    {
        FarmOptions opt = base_options();
        opt.fleet_bin = dir_ + "/no-such-binary";
        EXPECT_THROW(Farm farm(opt), FarmError);
    }
    {
        FarmOptions opt = base_options();
        opt.timeline_path = dir_ + "/no-such-timeline.txt";
        EXPECT_THROW(Farm farm(opt), FarmError);
    }
    // A run must span at least one and fewer than 2^64 block periods.
    for (const double days : {0.00001, 1e300}) {
        FarmOptions opt = base_options();
        opt.fleet.days = days;
        EXPECT_THROW(Farm farm(opt), FarmError) << "--days " << days;
    }
    for (const char* script : {"phase a 1\n", "phase a 1e300\n"}) {
        FarmOptions opt = base_options();
        opt.timeline_path = dir_ + "/blocks.txt";
        std::ofstream(opt.timeline_path) << script;
        EXPECT_THROW(Farm farm(opt), FarmError) << script;
    }
}

TEST_F(FarmTest, SupervisedChaosRunMatchesTheInProcessReference) {
    FarmOptions opt = base_options();
    opt.chaos_kills = 2;
    opt.chaos_seed = 5;
    opt.json_path = dir_ + "/merged.json";
    opt.store_path = dir_ + "/merged.ulpf";

    FleetOptions ref_opt = opt.fleet;
    ref_opt.threads = 2;
    std::istringstream in(kTimeline);
    const scenario::Timeline tl = scenario::parse_timeline(in);
    FleetEngine ref_eng(tl, ref_opt);
    const FleetResult ref = ref_eng.run();
    std::ostringstream ref_json;
    write_json(ref_json, "timeline.txt", ref_opt, tl.block_period_s, ref.aggregate,
               ref.records.size());

    std::ostringstream log;
    Farm farm(opt, &log);
    const FarmReport rep = farm.run();
    EXPECT_TRUE(rep.complete) << log.str();
    EXPECT_TRUE(rep.dead_shards.empty());
    EXPECT_EQ(rep.chaos_kills, 2u) << log.str();
    EXPECT_GE(rep.restarts, 2u) << "each chaos kill forces a restart";
    EXPECT_EQ(rep.merged_json, ref_json.str()) << "merged JSON must be byte-identical";
    EXPECT_EQ(rep.duplicate_records, 0u) << "no journaled device may be re-simulated";
    EXPECT_EQ(rep.devices_journaled, opt.fleet.devices);
    EXPECT_EQ(rep.devices_simulated, opt.fleet.devices);

    // The written artifacts match the report's in-memory copies.
    std::ifstream jf(opt.json_path, std::ios::binary);
    std::stringstream js;
    js << jf.rdbuf();
    EXPECT_EQ(js.str(), rep.merged_json);
    const LoadedStore st = read_store(opt.store_path);
    EXPECT_EQ(st.header.shard_n, 1u);
    ASSERT_EQ(st.records.size(), ref.records.size());
    EXPECT_EQ(0, std::memcmp(st.records.data(), ref.records.data(),
                             st.records.size() * sizeof(DeviceRecord)));
}

TEST_F(FarmTest, ExhaustedRetryBudgetNamesTheDeadShardAndSkipsTheMerge) {
    FarmOptions opt = base_options();
    // A worker binary that always fails with a restartable status.
    opt.fleet_bin = "/bin/false";
    opt.retries = 2;
    opt.json_path = dir_ + "/merged.json";
    std::ostringstream log;
    Farm farm(opt, &log);
    const FarmReport rep = farm.run();
    EXPECT_FALSE(rep.complete);
    ASSERT_EQ(rep.dead_shards.size(), opt.workers) << log.str();
    for (unsigned k = 0; k < opt.workers; ++k) {
        EXPECT_EQ(rep.shards[k].attempts, opt.retries + 1) << "initial try + retries";
        EXPECT_TRUE(rep.shards[k].dead);
    }
    EXPECT_EQ(rep.restarts, opt.workers * opt.retries);
    EXPECT_FALSE(std::filesystem::exists(opt.json_path))
        << "a partial failure must not publish merged artifacts";
}

TEST_F(FarmTest, MetaDisagreementIsPermanentNotRetried) {
    FarmOptions opt = base_options();
    opt.retries = 5;
    // Pre-seed shard 0's journal with a meta frame from a DIFFERENT run:
    // the worker must refuse to resume (exit 2) and the farm must declare
    // the shard dead immediately instead of burning the retry budget.
    std::filesystem::create_directories(opt.dir);
    {
        JournalWriter w(opt.dir + "/shard_0.jnl");
        w.append(kFleetMetaFrame, {0xDE, 0xAD, 0xBE, 0xEF});
    }
    std::ostringstream log;
    Farm farm(opt, &log);
    const FarmReport rep = farm.run();
    EXPECT_FALSE(rep.complete);
    ASSERT_EQ(rep.dead_shards.size(), 1u) << log.str();
    EXPECT_EQ(rep.dead_shards[0], 0u);
    EXPECT_EQ(rep.shards[0].attempts, 1u) << "no restart can fix a spec disagreement";
    EXPECT_EQ(rep.shards[0].last_status, 2);
    EXPECT_TRUE(rep.shards[1].done) << "the healthy shard still completes";
}

} // namespace
} // namespace ulpmc::fleet
