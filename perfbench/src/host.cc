#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

// Minimal JSON string escaping for the fingerprint's free-text fields.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over execve,
// so under a launcher it reads the launcher's peak when that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

int64_t current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  if (!(in >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

std::string host_fingerprint_json(const std::string& revision, uint64_t seed) {
  std::ostringstream out;
  out << "{\"cpu_model\": " << quoted(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"git_revision\": " << quoted(revision) << ", \"seed\": " << seed
      << "}";
  return out.str();
}

}  // namespace perfbench
