#include "host.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (!line.starts_with("model name")) continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos) break;
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

/// statfs f_type of the directory, by the names Linux gives them.
std::string filesystem_of(const std::string& dir) {
    struct statfs st{};
    if (statfs(dir.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x01021997: return "9p";
    case 0x65735546: return "fuse";
    case 0x6A656A63: return "virtiofs";
    default: break;
    }
    std::ostringstream os;
    os << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
    return os.str();
}

std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

} // namespace

unsigned online_cpus() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string host_json(const std::string& work_dir, unsigned workers) {
    std::ostringstream os;
    os << "{\"nproc\": " << online_cpus() << ", \"workers\": " << workers
       << ", \"cpu_model\": \"" << escaped(cpu_model()) << "\", \"compiler\": \""
       << escaped(__VERSION__) << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
       << ", \"journal_fs\": \"" << filesystem_of(work_dir) << "\"}";
    return os.str();
}

double peak_rss_mb() {
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace perfbench
