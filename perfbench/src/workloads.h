// The three benchmark workloads, built through the public API only
// (Scenario, ChurnDriver, run_live_loopback). See NOTES.md for why each
// was chosen and what it measured.
//
// Each workload runs in repetitions ("reps"). A rep builds the workload
// from its seed, runs it to the start of the measured window (that is
// the rep's set-up time), runs the window, and checks the outputs. Every
// rep of one seed simulates exactly the same thing, so the simulated
// counts of all reps must agree; a rep whose checks fail counts as a
// failed operation.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "trace.h"

namespace perfbench {

// Deterministic outputs of one simulated window: a pure function of the
// seed, identical across reps, thread counts and tracing.
struct SimCounts {
  uint64_t events = 0;          // in the measured window
  uint64_t total_events = 0;    // from t=0 to the end of the window
  int64_t delivered_bytes = 0;  // bottleneck (dumbbell) / core (cdn) link
  int64_t spawned = 0;          // churn flows (cdn only)
  int64_t completed = 0;
  bool operator==(const SimCounts&) const = default;
};

// Measurements of one rep. Times are wall seconds unless named otherwise.
// `layer` holds the per-layer figures a traced rep can observe, keyed by
// the metric names of BENCHMARK.json.
struct Rep {
  std::string error;  // first failed output check; empty = all passed
  double setup_s = 0;
  double window_wall_s = 0;
  double window_cpu_s = 0;
  double window_sim_s = 0;  // live: seconds of the transfer on the loop clock
  double delivered_mb = 0;  // payload delivered in the window, 1e6 bytes
  double bottleneck_util = 0;
  double completion_ratio = 0;
  SimCounts counts;
  std::map<std::string, double> layer;
};

// dumbbell_mixed: 50 Mbps / 30 ms dumbbell, proteus-s + cubic from t=0,
// bbr + proteus-p from t=1 s. With `clock`, the flows are built by hand
// around tracing decorators and the rep fills its per-layer figures.
Rep run_dumbbell_rep(uint64_t seed, SpanClock* clock);

// cdn_churn: kCdnEdge, 8 arms, 25 Gbps core, Poisson churn at 10k
// arrivals/s, on `shards` worker threads. `profile` installs the
// repository's Profiler for the window (inclusive phase timers).
Rep run_cdn_rep(uint64_t seed, int shards, bool profile);

// live_loopback: one cubic bulk transfer over 127.0.0.1.
Rep run_live_rep(uint64_t seed);

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
};

// Runs `workload` for about `seconds` of wall time: untraced reps giving
// the end-to-end metrics, or (trace) the traced passes giving the
// per-layer metrics. Progress and check failures go to `log`.
RunResult run_workload(const std::string& workload, uint64_t seed,
                       double seconds, bool trace, std::ostream& log);

bool is_workload(const std::string& name);

}  // namespace perfbench
