// ulpmc-perfbench: the repository benchmark driver (README.md).
//
//   ulpmc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--expected FILE] [--pin-out FILE]
//                   [--selfcheck]
//
// Runs one workload for S seconds and prints every metric by name and
// unit, one host-context line, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) the per-layer ones, and
// write the spans as Chrome trace-event JSON into --out-dir.
//
//   --expected FILE  pinned outputs for this seed; any mismatch is a failure
//   --pin-out FILE   write this run's outputs as the seed's pins (the fault
//                    campaign pins come from the trace-engine oracle)
//   --selfcheck      also prove every pinned value is live: perturbing any
//                    one of them must be reported as a failure
//
// Exit codes: 0 ran (correctness is in the JSON), 1 error, 2 bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "pins.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct WorkloadEntry {
    const char* name;
    WorkloadFn fn;
};
constexpr WorkloadEntry kWorkloads[] = {
    {"ecg-sweep", run_ecg_sweep},
    {"fault-campaign", run_fault_campaign},
    {"fleet-durable", run_fleet_durable},
    {"lifetime-day", run_lifetime_day},
};

struct MetricDef {
    const char* name;
    const char* unit;
};

/// BENCHMARK.json "end_to_end", in order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"device_hours_per_s", "h/s"},
    {"peak_rss_mb", "MiB"},
};

/// BENCHMARK.json "per_layer", in order. A workload that does not
/// exercise a layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"trace.overhead_frac", "frac"},
    {"cluster.ns_per_cycle", "ns/cycle"},
    {"cluster.ns_per_cycle.reference", "ns/cycle"},
    {"cluster.ns_per_cycle.fast", "ns/cycle"},
    {"cluster.ns_per_cycle.trace", "ns/cycle"},
    {"cluster.load_s", "s"},
    {"app.overhead_s", "s"},
    {"sweep.busy_frac", "frac"},
    {"cluster.cycles", "count"},
    {"cluster.instret", "count"},
    {"cluster.stall_cycles", "count"},
    {"xbar.i.bank_accesses", "count"},
    {"xbar.i.broadcast_riders", "count"},
    {"xbar.d.denied", "count"},
    {"xbar.d.conflict_cycles", "count"},
    {"mem.dm_reads", "count"},
    {"mem.dm_writes", "count"},
    {"fault.oneshot_s", "s"},
    {"fault.stream_s", "s"},
    {"fault.sim_cycles", "count"},
    {"fault.lockstep_cycles", "count"},
    {"fault.lockstep_share", "frac"},
    {"fault.ns_per_private_cycle", "ns/cycle"},
    {"fault.peels.fault_strike", "count"},
    {"fault.peels.crossbar_upset", "count"},
    {"fault.peels.trap", "count"},
    {"fault.peels.watchdog", "count"},
    {"fault.peels.memo_bail", "count"},
    {"fault.outcome.masked", "count"},
    {"fault.outcome.latent", "count"},
    {"fault.outcome.corrected", "count"},
    {"fault.outcome.rolled-back", "count"},
    {"fault.outcome.lead-dropped", "count"},
    {"fault.outcome.trapped", "count"},
    {"fault.outcome.hang", "count"},
    {"fault.outcome.sdc", "count"},
    {"fault.checkpoints", "count"},
    {"fault.reexec_cycles", "count"},
    {"fleet.setup_s", "s"},
    {"fleet.run_s", "s"},
    {"fleet.device_ms.p50", "ms"},
    {"fleet.device_ms.p99", "ms"},
    {"fleet.device_samples", "count"},
    {"fleet.worker_busy_frac", "frac"},
    {"fleet.tail_s", "s"},
    {"fleet.report_s", "s"},
    {"fleet.calibrations", "count"},
    {"fleet.steals", "count"},
    {"journal.append_s", "s"},
    {"journal.append_us.p50", "us"},
    {"journal.append_us.p99", "us"},
    {"journal.frames", "count"},
    {"journal.bytes", "count"},
    {"journal.wall_share", "frac"},
    {"scenario.run_s.ladder", "s"},
    {"scenario.run_s.baseline", "s"},
    {"scenario.calibration_s", "s"},
    {"scenario.ms_per_struck_block", "ms"},
    {"scenario.run_s.trace", "s"},
    {"scenario.run_s.batched", "s"},
    {"scenario.total_blocks", "count"},
    {"scenario.struck_blocks", "count"},
    {"scenario.rollbacks", "count"},
    {"scenario.sdc_blocks", "count"},
    {"self_s.sweep", "s"},
    {"self_s.app", "s"},
    {"self_s.cluster", "s"},
    {"self_s.fault", "s"},
    {"self_s.fleet", "s"},
    {"self_s.journal", "s"},
    {"self_s.scenario", "s"},
};

void usage(std::ostream& os) {
    os << "usage: ulpmc-perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
          "                       [--out-dir DIR] [--expected FILE] [--pin-out FILE]\n"
          "                       [--selfcheck]\n"
          "workloads:";
    for (const auto& w : kWorkloads) os << ' ' << w.name;
    os << '\n';
}

/// Every digit a double carries; integral counters print as integers.
std::string num(double v) {
    char buf[64];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else if (std::isfinite(v))
        std::snprintf(buf, sizeof buf, "%.17g", v);
    else
        std::snprintf(buf, sizeof buf, "0");
    return buf;
}

std::string metrics_json(const std::vector<std::pair<MetricDef, double>>& ms) {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto& [def, v] : ms) {
        os << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": " << num(v)
           << ", \"unit\": \"" << def.unit << "\"}";
        first = false;
    }
    os << '}';
    return os.str();
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
    try {
        std::size_t pos = 0;
        out = std::stoull(s, &pos);
        return pos == s.size() && !s.empty() && s[0] != '-';
    } catch (...) {
        return false;
    }
}

int run(int argc, char** argv) {
    std::string workload, out_dir = ".", expected_path, pin_out;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false, selfcheck = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--selfcheck") {
            selfcheck = true;
        } else if (!has_value) {
            usage(std::cerr);
            return 2;
        } else if (a == "--workload") {
            workload = argv[++i];
        } else if (a == "--seed") {
            have_seed = parse_u64(argv[++i], seed);
        } else if (a == "--seconds") {
            if (!parse_u64(argv[++i], seconds)) seconds = 0;
        } else if (a == "--trace") {
            if (!parse_u64(argv[++i], trace)) trace = 2;
        } else if (a == "--out-dir") {
            out_dir = argv[++i];
        } else if (a == "--expected") {
            expected_path = argv[++i];
        } else if (a == "--pin-out") {
            pin_out = argv[++i];
        } else {
            usage(std::cerr);
            return 2;
        }
    }
    WorkloadFn fn = nullptr;
    for (const auto& w : kWorkloads)
        if (workload == w.name) fn = w.fn;
    if (fn == nullptr || !have_seed || seconds == 0 || seconds > 3600 || trace > 1) {
        usage(std::cerr);
        return 2;
    }

    Context ctx;
    ctx.seed = seed;
    ctx.seconds = static_cast<double>(seconds);
    ctx.trace = trace == 1;
    ctx.oracle = !pin_out.empty();
    ctx.workers = std::min(4u, online_cpus());
    std::filesystem::create_directories(out_dir);
    ctx.work_dir = out_dir;

    const Pins pins = expected_path.empty() ? Pins{} : load_pins(expected_path);
    Gate gate(workload, pins);
    Result res = fn(ctx, gate);
    const double rss = peak_rss_mb();

    std::vector<std::pair<MetricDef, double>> out;
    const double rep_s = median(res.rep_s);
    if (!ctx.trace) {
        const double e2e[std::size(kEndToEnd)] = {median(res.setup_s), res.ops_per_rep / rep_s,
                                                  res.device_hours_per_rep / rep_s, rss};
        for (std::size_t i = 0; i < std::size(e2e); ++i) out.push_back({kEndToEnd[i], e2e[i]});
    } else {
        res.layers["trace.overhead_frac"] = median(res.traced_s) / rep_s - 1.0;
        for (const auto& [layer, s] : Spans::self_time_by_layer())
            res.layers["self_s." + layer] = s;
        for (const MetricDef& d : kPerLayer) {
            const auto it = res.layers.find(d.name);
            out.push_back({d, it == res.layers.end() ? 0.0 : it->second});
            if (it != res.layers.end()) res.layers.erase(it);
        }
        if (!res.layers.empty())
            throw std::logic_error("per-layer metric without a definition: " +
                                   res.layers.begin()->first);
    }

    std::size_t undetected = 0;
    if (selfcheck) undetected = gate.self_check();
    if (!pin_out.empty()) save_pins(pin_out, workload, gate.first_rep_pins());

    const std::string host = host_json(out_dir, ctx.workers);
    // A run that checked nothing is a failed run, never a passing one.
    const std::uint64_t attempted = std::max<std::uint64_t>(gate.attempted(), 1);
    const std::uint64_t failed = gate.attempted() == 0 ? 1 : gate.failed();
    const bool correct = failed == 0 && undetected == 0;
    const std::string tag = workload + "-seed" + std::to_string(seed) + "-trace" +
                            std::to_string(trace);

    std::cout << "perfbench " << workload << " seed " << seed << ": " << res.rep_s.size()
              << " untraced + " << res.traced_s.size() << " traced repetitions, median "
              << num(rep_s) << " s each, " << gate.attempted() << " operations checked"
              << (gate.pinned() ? " against pins" : " (no pins for this seed)") << "\n";
    std::cout << "  repetition seconds:";
    for (const double t : res.rep_s) std::cout << ' ' << num(t);
    std::cout << "\n";
    if (!ctx.trace) {
        std::cout << "  " << res.headline << " = " << num(res.headline_per_rep / rep_s) << ' '
                  << res.headline_unit << "\n";
    }
    std::cout << "  failed_ops_frac = "
              << num(static_cast<double>(failed) / static_cast<double>(attempted)) << " ("
              << failed << '/' << attempted << ")\n";
    for (const auto& [def, v] : out)
        std::cout << "  " << def.name << " = " << num(v) << ' ' << def.unit << "\n";
    for (const std::string& note : gate.notes()) std::cout << "  FAILED " << note << "\n";
    if (selfcheck) {
        std::cout << "  selfcheck: " << undetected << " undetected perturbation(s)"
                  << (gate.pinned() ? "" : " (no pins for this seed: nothing to perturb)")
                  << "\n";
    }
    std::cout << "host " << host << "\n";

    const std::string metrics = metrics_json(out);
    {
        std::ofstream rf(out_dir + "/" + tag + ".json");
        rf << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
           << ", \"trace\": " << trace << ", \"host\": " << host << ", \"metrics\": " << metrics
           << "}\n";
    }
    if (ctx.trace) {
        std::ofstream tf(out_dir + "/" + tag + ".chrome.json");
        Spans::write_chrome_trace(tf, "{\"workload\": \"" + workload + "\", \"seed\": " +
                                          std::to_string(seed) + ", \"host\": " + host + "}");
        std::cout << "spans: " << out_dir << "/" << tag << ".chrome.json\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics << "}"
              << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "ulpmc-perfbench: " << e.what() << "\n";
        return 1;
    }
}
