// Process clocks, memory readings and the host fingerprint that every
// benchmark output carries: absolute numbers from two hosts are never
// comparable, so each result names the machine and build it came from.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

// Wall seconds on the monotonic clock.
double wall_now_s();
// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
// Peak resident set of the process so far, MiB.
double peak_rss_mb();
// Current resident set, bytes.
int64_t current_rss_bytes();

// One JSON object: CPU model, nproc, compiler, flags, build type, git
// revision (passed in by the caller; "unknown" outside a git checkout)
// and the workload seed.
std::string host_fingerprint_json(const std::string& revision, uint64_t seed);

}  // namespace perfbench
