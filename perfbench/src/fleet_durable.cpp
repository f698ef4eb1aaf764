// fleet-durable: a journaled FleetEngine run, as `ulpmc-fleet --journal`
// performs it — a META frame, one CRC-framed RECD frame per completed
// device through JournalWriter::append (fsync per frame) from the
// FleetResume completion hook, then the aggregate JSON and the ULPF
// store. The work-stealing scheduler, the calibration cache, per-device
// crediting and journal I/O sit here and almost nowhere else.
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "common/journal.hpp"
#include "common/serial.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"
#include "scenario/timeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ulpmc::fleet::DeviceRecord;

constexpr std::uint64_t kDevices = 4096;
constexpr unsigned kSetups = 5;
constexpr unsigned kCohorts = 2;

/// bench/timelines/fleet_smoke.txt: ambient-rate strikes, a radiation
/// window, a BLE drought and a harvest-driven recovery.
constexpr const char* kTimeline = R"(block_period_s 2.0
battery_j 0.012
phase clean     120 harvest_uw=50
phase radiation 120 lambda=2e-8 ble_loss=0.05 harvest_uw=50
phase drought   120 ble=down harvest_uw=150
phase recovery  120 ble_loss=0.01 harvest_uw=400
)";

/// The journal's binding frame, laid out as ulpmc-fleet writes it.
std::vector<std::uint8_t> meta_payload(const ulpmc::fleet::FleetOptions& opt) {
    std::vector<std::uint8_t> m;
    ulpmc::put_raw(m, opt.seed);
    ulpmc::put_raw(m, opt.devices);
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.cohorts));
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.shard_k));
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.shard_n));
    ulpmc::put_f64(m, opt.days);
    ulpmc::put_f64(m, opt.baseline_fraction);
    ulpmc::put_raw(m, static_cast<std::uint8_t>(opt.engine));
    ulpmc::put_raw(m, ulpmc::crc32(kTimeline, std::strlen(kTimeline)));
    return m;
}

std::string digest(const DeviceRecord& r) {
    std::ostringstream os;
    os << std::hex << std::setw(8) << std::setfill('0') << ulpmc::crc32(&r, sizeof r);
    return os.str();
}

/// The durable-output oracle: the journal read back must hold the META
/// frame and exactly the computed records, each once. Returns the number
/// of intact frames read back.
std::size_t check_journal(Gate& gate, const std::string& path, const std::vector<std::uint8_t>& meta,
                   const std::vector<DeviceRecord>& records) {
    const ulpmc::JournalContents jc = ulpmc::read_journal(path);
    gate.check("journal", !jc.torn_tail && !jc.frames.empty() &&
                              jc.frames[0].kind == ulpmc::fleet::kFleetMetaFrame &&
                              jc.frames[0].payload == meta &&
                              jc.frames.size() == records.size() + 1,
               "journal framing (" + std::to_string(jc.frames.size()) + " frames)");
    std::vector<int> seen(records.size(), 0);
    for (std::size_t f = 1; f < jc.frames.size(); ++f) {
        DeviceRecord r;
        const auto& fr = jc.frames[f];
        if (fr.kind != ulpmc::fleet::kFleetRecordFrame || fr.payload.size() != sizeof r) {
            gate.check("journal", false, "frame " + std::to_string(f) + " is not a record");
            continue;
        }
        std::memcpy(&r, fr.payload.data(), sizeof r);
        if (r.gdi >= records.size()) {
            gate.check("journal", false, "record for unknown device " + std::to_string(r.gdi));
            continue;
        }
        ++seen[r.gdi];
        gate.check("dev" + std::to_string(r.gdi),
                   std::memcmp(&r, &records[r.gdi], sizeof r) == 0,
                   "journaled record differs from the computed one");
    }
    for (std::size_t g = 0; g < records.size(); ++g) {
        const std::string op = "dev" + std::to_string(g);
        gate.check(op, seen[g] == 1, "journaled " + std::to_string(seen[g]) + " times");
        gate.observe(op, "digest", digest(records[g]));
    }
    return jc.frames.size();
}

/// Per-layer numbers of one traced repetition, from its spans.
void add_traced(std::map<std::string, double>& m, std::int64_t from_ns, unsigned workers,
                const ulpmc::fleet::FleetResult& res, std::vector<double>& device_ms,
                std::vector<double>& append_us) {
    double run_s = 0, busy_s = 0, append_s = 0;
    std::unordered_map<std::uint32_t, std::int64_t> last_end; // per worker thread
    for (const Span& s : Spans::all()) {
        if (s.start_ns < from_ns) continue;
        const double d = static_cast<double>(s.dur_ns) * 1e-9;
        const std::string name = s.name;
        if (name == "fleet.setup") m["fleet.setup_s"] += d;
        if (name == "fleet.run") run_s += d;
        if (name == "fleet.report") m["fleet.report_s"] += d;
        if (name == "fleet.device") {
            busy_s += d;
            device_ms.push_back(d * 1e3);
            std::int64_t& e = last_end[s.tid];
            e = std::max(e, s.start_ns + s.dur_ns);
        }
        if (name == "journal.append") {
            append_s += d;
            append_us.push_back(d * 1e6);
        }
    }
    std::int64_t first_idle = INT64_MAX, last_done = 0;
    for (const auto& [tid, e] : last_end) {
        first_idle = std::min(first_idle, e);
        last_done = std::max(last_done, e);
    }
    m["fleet.run_s"] += run_s;
    m["fleet.worker_busy_frac"] += busy_s / (workers * run_s);
    m["fleet.tail_s"] += last_end.empty() ? 0 : static_cast<double>(last_done - first_idle) * 1e-9;
    m["journal.append_s"] += append_s;
    m["fleet.calibrations"] += static_cast<double>(res.calibrations);
    m["fleet.steals"] += static_cast<double>(res.sched.steals);
}

} // namespace

Result run_fleet_durable(const Context& ctx, Gate& gate) {
    Result res;
    ulpmc::fleet::FleetOptions opt;
    opt.seed = ctx.seed;
    opt.devices = kDevices;
    opt.cohorts = kCohorts;
    opt.threads = ctx.workers;
    const std::vector<std::uint8_t> meta = meta_payload(opt);
    const std::string journal_path = ctx.work_dir + "/fleet-durable.jnl";
    const std::string json_path = ctx.work_dir + "/fleet-durable.json";
    const std::string store_path = ctx.work_dir + "/fleet-durable.ulpf";

    // Set-up: parse the generated timeline and build the cohort benchmarks
    // (FleetEngine construction). Timed here and again in every repetition.
    auto set_up = [&] {
        const Clock::time_point ts = Clock::now();
        ScopedSpan s("fleet.setup", "fleet");
        std::istringstream tl_text(kTimeline);
        const ulpmc::scenario::Timeline tl = ulpmc::scenario::parse_timeline(tl_text);
        auto eng = std::make_unique<ulpmc::fleet::FleetEngine>(tl, opt);
        res.setup_s.push_back(seconds_since(ts));
        return std::make_pair(tl.block_period_s, std::move(eng));
    };
    for (unsigned i = 0; i < kSetups; ++i) set_up();

    thread_local std::int64_t device_start_ns = 0;
    ulpmc::fleet::FleetResult fr;
    std::map<std::string, double> traced;
    std::vector<double> device_ms, append_us;
    std::size_t frames = 0;
    repeat(ctx, 2, res, [&](bool is_traced) {
        const std::int64_t from_ns = Spans::now_ns();
        auto [block_period_s, eng] = set_up();

        const Clock::time_point t0 = Clock::now();
        {
            ulpmc::JournalWriter journal(journal_path);
            {
                ScopedSpan s("journal.append", "journal");
                journal.append(ulpmc::fleet::kFleetMetaFrame, meta);
            }
            ulpmc::fleet::FleetResume hooks;
            hooks.lookup = [](std::uint64_t, DeviceRecord&) {
                if (Spans::enabled()) device_start_ns = Spans::now_ns();
                return false;
            };
            hooks.on_complete = [&journal](const DeviceRecord& r) {
                Spans::record("fleet.device", "fleet", device_start_ns);
                std::vector<std::uint8_t> p(sizeof r);
                std::memcpy(p.data(), &r, sizeof r);
                ScopedSpan s("journal.append", "journal");
                journal.append(ulpmc::fleet::kFleetRecordFrame, p);
            };
            ScopedSpan s("fleet.run", "fleet");
            fr = eng->run(hooks);
        }
        {
            ScopedSpan s("fleet.report", "fleet");
            std::ostringstream json;
            ulpmc::fleet::write_json(json, "fleet_smoke.txt", opt, block_period_s, fr.aggregate,
                                     fr.records.size());
            ulpmc::write_file_atomic(json_path, json.str());
            ulpmc::fleet::StoreHeader hdr;
            hdr.cohorts = opt.cohorts;
            hdr.seed = opt.seed;
            hdr.devices = opt.devices;
            ulpmc::fleet::write_store(store_path, hdr, fr.records);
        }
        const double t = seconds_since(t0);

        if (is_traced) add_traced(traced, from_ns, ctx.workers, fr, device_ms, append_us);
        frames = check_journal(gate, journal_path, meta, fr.records);
        gate.end_rep();
        return t;
    });

    res.ops_per_rep = static_cast<double>(kDevices);
    res.device_hours_per_rep = fr.device_hours;
    res.headline = "device_hours_per_s";
    res.headline_unit = "h/s";
    res.headline_per_rep = fr.device_hours;

    if (ctx.trace) {
        auto& m = res.layers;
        const double reps = static_cast<double>(res.traced_s.size());
        for (const auto& [k, v] : traced) m[k] = v / reps;
        m["fleet.device_ms.p50"] = percentile(device_ms, 0.50);
        m["fleet.device_ms.p99"] = percentile(device_ms, 0.99);
        m["fleet.device_samples"] = static_cast<double>(device_ms.size());
        m["journal.append_us.p50"] = percentile(append_us, 0.50);
        m["journal.append_us.p99"] = percentile(append_us, 0.99);
        m["journal.frames"] = static_cast<double>(frames);
        struct stat st{};
        m["journal.bytes"] =
            stat(journal_path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
        m["journal.wall_share"] = m["journal.append_s"] / (m["fleet.run_s"] + m["fleet.report_s"]);
    }
    std::remove(journal_path.c_str());
    std::remove(json_path.c_str());
    std::remove(store_path.c_str());
    return res;
}

} // namespace perfbench
