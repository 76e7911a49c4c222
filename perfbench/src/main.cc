// Benchmark entry point. Usage:
//
//   perfbench --workload <dumbbell_mixed|cdn_churn|live_loopback>
//             --seed <n> --seconds <s> --trace <0|1> [--revision <rev>]
//
// Prints the host fingerprint and one line per rep, then, as the last
// line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A metric a workload cannot observe reads 0; NOTES.md maps
// metrics to the workloads that move them.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"sim_s_per_wall_s", "s/s"},   {"live_goodput_mbps", "Mbit/s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MiB"},
    {"cpu_s_per_sim_s", "s/s"},    {"cpu_ms_per_mb", "ms/MB"},
    {"bottleneck_util", "ratio"},  {"completion_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"event_queue.events_per_sim_s", "1/s"},
    {"event_queue.events_per_wall_s", "1/s"},
    {"event_queue.residual_ns_per_event", "ns/event"},
    {"link.ingress_calls", "count"},
    {"link.ingress_self_ns", "ns/event"},
    {"topology.send_reverse_self_ns", "ns/event"},
    {"link.drops", "count"},
    {"link.max_queue_bytes", "bytes"},
    {"sender.ack_calls", "count"},
    {"sender.ack_self_ns", "ns/event"},
    {"receiver.data_self_ns", "ns/event"},
    {"sender.loss_ratio", "ratio"},
    {"cc.pcc.on_ack_self_ns", "ns/event"},
    {"cc.ref.on_ack_self_ns", "ns/event"},
    {"cc.pcc.on_packet_sent_self_ns", "ns/event"},
    {"cc.ref.on_packet_sent_self_ns", "ns/event"},
    {"cc.pcc.on_timer_self_ns", "ns/event"},
    {"cc.ref.on_timer_self_ns", "ns/event"},
    {"cc.pcc.on_loss_self_ns", "ns/event"},
    {"cc.ref.on_loss_self_ns", "ns/event"},
    {"cc.calls_per_sim_s", "1/s"},
    {"cc.pcc.seal_mi_calls", "count"},
    {"cc.pcc.seal_mi_ns", "ns/event"},
    {"cc.pcc.rate_control_ns", "ns/event"},
    {"shard.barrier_windows", "count"},
    {"shard.ff_ratio", "ratio"},
    {"shard.speedup", "x"},
    {"shard.exec_ns", "ns/event"},
    {"shard.barrier_ns", "ns/event"},
    {"shard.drain_ns", "ns/event"},
    {"churn.spawned", "count"},
    {"churn.arena_hit_ratio", "ratio"},
    {"churn.skipped_ratio", "ratio"},
    {"churn.peak_concurrent", "count"},
    {"churn.rss_per_flow_bytes", "bytes"},
    {"churn.arrival_ns", "ns/call"},
    {"churn.teardown_ns", "ns/call"},
    {"rt.packets_sent", "count"},
    {"rt.acked_per_sent", "ratio"},
    {"rt.send_buffer_overflows", "count"},
    {"rt.duplicate_acks", "count"},
    {"rt.cpu_ns_per_pkt", "ns"},
    {"rt.handshake_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <dumbbell_mixed|cdn_churn|"
               "live_loopback> --seed <n> --seconds <s> --trace <0|1> "
               "[--revision <rev>]\n";
  return 2;
}

template <size_t N>
void print_result(const perfbench::RunResult& r, const MetricDef (&defs)[N]) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < N; ++i) {
    const auto it = r.metrics.find(defs[i].name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string revision = "unknown";
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  if (!perfbench::is_workload(workload)) return usage("unknown --workload");
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage("bad --seed, --seconds or --trace");
  }

  std::cout << "# host " << perfbench::host_fingerprint_json(revision, seed)
            << "\n# workload " << workload << " trace " << trace << "\n";
  try {
    const perfbench::RunResult r = perfbench::run_workload(
        workload, static_cast<uint64_t>(seed), seconds, trace == 1,
        std::cout);
    std::cout.flush();
    if (trace == 1) {
      print_result(r, kPerLayer);
    } else {
      print_result(r, kEndToEnd);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
