// Host context recorded with every result: timings are this host's, so
// each result carries the processor count, CPU model, compiler, build
// type, the benchmark's worker count and the filesystem that holds the
// journal (fsync cost is the host's, not a wearable's).
#pragma once

#include <string>

namespace perfbench {

/// JSON object literal describing the host.
std::string host_json(const std::string& work_dir, unsigned workers);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Online processors.
unsigned online_cpus();

} // namespace perfbench
