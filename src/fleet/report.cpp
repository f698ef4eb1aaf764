#include "fleet/report.hpp"

#include <iomanip>
#include <ostream>

#include "cluster/config.hpp"

namespace ulpmc::fleet {

namespace {

void write_slice(std::ostream& os, const SliceTotals& s, const char* indent, bool more) {
    const double frac = s.samples_total > 0 ? static_cast<double>(s.samples_delivered) /
                                                  static_cast<double>(s.samples_total)
                                            : 0.0;
    os << indent << "\"devices\": " << s.devices << ",\n";
    os << indent << "\"energy_nj\": " << s.energy_nj << ",\n";
    os << indent << "\"samples_total\": " << s.samples_total << ",\n";
    os << indent << "\"samples_delivered\": " << s.samples_delivered << ",\n";
    os << indent << "\"delivered_fraction\": " << frac << ",\n";
    os << indent << "\"sdc_blocks\": " << s.sdc_blocks << ",\n";
    os << indent << "\"brownouts\": " << s.brownouts << ",\n";
    os << indent << "\"total_blocks\": " << s.total_blocks << (more ? "," : "") << "\n";
}

void write_sketch(std::ostream& os, const QuantileSketch& sk, const char* indent) {
    os << indent << "\"count\": " << sk.count() << ",\n";
    os << indent << "\"zero\": " << sk.zero_count() << ",\n";
    os << indent << "\"min\": " << sk.min() << ",\n";
    os << indent << "\"max\": " << sk.max() << ",\n";
    os << indent << "\"p50\": " << sk.quantile(0.50) << ",\n";
    os << indent << "\"p90\": " << sk.quantile(0.90) << ",\n";
    os << indent << "\"p99\": " << sk.quantile(0.99) << ",\n";
    os << indent << "\"bins\": [";
    const auto& bins = sk.bins();
    for (std::size_t i = 0; i < bins.size(); ++i) {
        os << "[" << bins[i].first << ", " << bins[i].second << "]"
           << (i + 1 < bins.size() ? ", " : "");
    }
    os << "]\n";
}

} // namespace

void write_json(std::ostream& os, const std::string& timeline_name, const FleetOptions& opt,
                double block_period_s, const FleetAggregate& agg, std::uint64_t records) {
    os << "{\n";
    os << "  \"fleet\": {\n";
    os << "    \"timeline\": \"" << timeline_name << "\",\n";
    os << "    \"seed\": " << opt.seed << ",\n";
    os << "    \"devices\": " << opt.devices << ",\n";
    os << "    \"cohorts\": " << opt.cohorts << ",\n";
    os << "    \"days\": " << opt.days << ",\n";
    os << "    \"baseline_fraction\": " << opt.baseline_fraction << ",\n";
    os << "    \"block_period_s\": " << block_period_s << ",\n";
    os << "    \"thresholds\": {\"shed\": " << opt.thresholds.shed
       << ", \"coarse\": " << opt.thresholds.coarse << ", \"tight\": " << opt.thresholds.tight
       << ", \"silence\": " << opt.thresholds.silence << "},\n";
    if (opt.shard_n > 1) os << "    \"shard\": \"" << opt.shard_k << "/" << opt.shard_n << "\",\n";
    os << "    \"records\": " << records << "\n";
    os << "  },\n";
    os << "  \"aggregate\": {\n";
    write_slice(os, agg.total, "    ", /*more=*/true);
    os << "    \"by_policy\": {\n";
    for (int p = 0; p < 2; ++p) {
        os << "      \"" << scenario::policy_name(static_cast<scenario::Policy>(p))
           << "\": {\n";
        write_slice(os, agg.by_policy[p], "        ", /*more=*/false);
        os << "      }" << (p == 0 ? "," : "") << "\n";
    }
    os << "    },\n";
    os << "    \"by_arch\": {\n";
    for (int a = 0; a < 3; ++a) {
        os << "      \"" << cluster::arch_name(static_cast<cluster::ArchKind>(a)) << "\": {\n";
        write_slice(os, agg.by_arch[a], "        ", /*more=*/false);
        os << "      }" << (a < 2 ? "," : "") << "\n";
    }
    os << "    },\n";
    os << "    \"metrics\": {\n";
    const struct {
        const char* name;
        const QuantileSketch* sk;
    } metrics[] = {{"energy_j", &agg.energy_j},
                   {"delivered_fraction", &agg.delivered_fraction},
                   {"sdc_blocks", &agg.sdc_blocks},
                   {"max_backoff_s", &agg.max_backoff_s}};
    for (std::size_t i = 0; i < 4; ++i) {
        os << "      \"" << metrics[i].name << "\": {\n";
        write_sketch(os, *metrics[i].sk, "        ");
        os << "      }" << (i + 1 < 4 ? "," : "") << "\n";
    }
    os << "    }\n";
    os << "  }\n";
    os << "}\n";
}

void print_summary(std::ostream& os, const FleetOptions& opt, const FleetResult& res) {
    const SliceTotals& t = res.aggregate.total;
    const double frac = t.samples_total > 0 ? static_cast<double>(t.samples_delivered) /
                                                  static_cast<double>(t.samples_total)
                                            : 0.0;
    os << "fleet: " << t.devices << " devices";
    if (opt.shard_n > 1) os << " (shard " << opt.shard_k << "/" << opt.shard_n << ")";
    os << ", " << opt.cohorts << " cohorts, seed " << opt.seed << "\n";
    os << "delivered " << std::fixed << std::setprecision(2) << 100.0 * frac
       << "% of samples, energy " << std::setprecision(3)
       << static_cast<double>(t.energy_nj) * 1e-9 << " J total, " << t.sdc_blocks
       << " SDC blocks, " << t.brownouts << " devices browned out\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
    os << "p50/p90/p99 energy [J]: " << res.aggregate.energy_j.quantile(0.5) << " / "
       << res.aggregate.energy_j.quantile(0.9) << " / " << res.aggregate.energy_j.quantile(0.99)
       << "\n";
    os << "throughput: " << res.device_hours << " device-hours in " << std::setprecision(3)
       << res.wall_s << " s wall (" << res.device_hours / (res.wall_s > 0 ? res.wall_s : 1.0)
       << " device-hours/sec), " << res.sched.workers << " workers, " << res.calibrations
       << " calibrations\n";
    os << std::setprecision(6);
}

} // namespace ulpmc::fleet
