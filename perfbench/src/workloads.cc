#include "workloads.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "harness/churn.h"
#include "harness/factory.h"
#include "harness/invariants.h"
#include "harness/scenario.h"
#include "host.h"
#include "rt/live_run.h"
#include "telemetry/profiler.h"

namespace perfbench {

using proteus::ChurnConfig;
using proteus::ChurnDriver;
using proteus::ChurnStats;
using proteus::Flow;
using proteus::FlowConfig;
using proteus::from_sec;
using proteus::Link;
using proteus::LinkStats;
using proteus::Profiler;
using proteus::ProfilePhase;
using proteus::Scenario;
using proteus::ScenarioConfig;

namespace {

// ---- dumbbell_mixed -----------------------------------------------------
// bench_simcore's dumbbell. The window is long enough (~0.1 s of wall on
// a 2020s core) that a run holds hundreds of reps to take a median over.
constexpr double kDumbbellWarmupS = 2.0;
constexpr double kDumbbellWindowS = 50.0;

struct FlowSpec {
  const char* protocol;
  double start_s;
  bool pcc;  // times under cc.pcc.* rather than cc.ref.*
};
constexpr FlowSpec kDumbbellFlows[] = {
    {"proteus-s", 0.0, true},
    {"cubic", 0.0, false},
    {"bbr", 1.0, false},
    {"proteus-p", 1.0, true},
};

// ---- cdn_churn ----------------------------------------------------------
// 8 arms (9 shard parts), 12.5 Gbps leaves under a 25 Gbps core with a
// one-BDP buffer, Poisson arrivals well below the concurrency cap: the
// edge runs at a realistic operating point, not in collapse.
constexpr int kCdnArms = 8;
constexpr double kCdnLeafMbps = 12'500.0;  // core = 2x leaf = 25 Gbps
constexpr double kCdnRttMs = 30.0;
constexpr double kCdnArrivalsPerSec = 10'000.0;
constexpr double kCdnMeanSizeKb = 16.0;
constexpr int64_t kCdnCap = 20'000;
constexpr int kCdnWindowSlots = 8;
constexpr double kCdnRampS = 2.0;
constexpr double kCdnWindowS = 2.0;
// Measured on two worker threads, half of a 4-vCPU host: with a thread
// on every vCPU, each window's barrier waits for the slowest vCPU, and
// ten runs of the same code spread by 0.27-0.41 of their median. Four
// shards stay in the traced run's determinism cross-check.
constexpr int kCdnShards = 2;
constexpr int kCdnCheckShards = 4;

// ---- live_loopback ------------------------------------------------------
constexpr int64_t kLiveBytes = 256LL * 1024 * 1024;

// At least this many reps per untraced run, however short --seconds is:
// the reported figures are medians and deciles over reps.
constexpr int kMinReps = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The value a tenth of the way from the best end of `v`: higher values
// are better when `higher`. The host's vCPUs run identical reps at speeds
// up to 2x apart, in phases of seconds that differ between vCPUs and
// drift over minutes; the fast tail of the reps is where that
// interference is least, so it moves between runs far less than the
// median does, while a change in the program's own cost shifts it all.
double best_decile(std::vector<double> v, bool higher) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t k = (v.size() - 1) / 10;
  return higher ? v[v.size() - 1 - k] : v[k];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

int64_t drops(const LinkStats& s) {
  return s.tail_drops + s.random_drops + s.codel_drops + s.blackout_drops;
}

// Packet conservation at one link: every offered packet was delivered,
// dropped, or still sits in the queue (the head in service included).
std::string check_link(const std::string& name, const Link& link) {
  const LinkStats& s = link.stats();
  const int64_t accounted = s.delivered_packets - s.duplicated + drops(s) +
                            link.queue_packets();
  if (accounted == s.offered_packets) return "";
  std::ostringstream out;
  out << name << ": offered " << s.offered_packets << " != delivered "
      << s.delivered_packets - s.duplicated << " + dropped " << drops(s)
      << " + queued " << link.queue_packets();
  return out.str();
}

struct SenderTotals {
  int64_t sent = 0;
  int64_t acked = 0;
  int64_t lost = 0;
};

SenderTotals sum_senders(const std::vector<Flow*>& flows) {
  SenderTotals t;
  for (const Flow* f : flows) {
    t.sent += f->sender().stats().packets_sent;
    t.acked += f->sender().stats().packets_acked;
    t.lost += f->sender().stats().packets_lost;
  }
  return t;
}

// Installs a profiler for one scope and restores the previous one.
class ProfilerInstall {
 public:
  explicit ProfilerInstall(Profiler* p) : prev_(Profiler::install(p)) {}
  ~ProfilerInstall() { Profiler::install(prev_); }
  ProfilerInstall(const ProfilerInstall&) = delete;
  ProfilerInstall& operator=(const ProfilerInstall&) = delete;

 private:
  Profiler* prev_;
};

std::string to_string(const SimCounts& c) {
  std::ostringstream out;
  out << "events=" << c.events << " total_events=" << c.total_events
      << " delivered_bytes=" << c.delivered_bytes
      << " spawned=" << c.spawned << " completed=" << c.completed;
  return out.str();
}

}  // namespace

Rep run_dumbbell_rep(uint64_t seed, SpanClock* clock) {
  Rep rep;
  const double t_start = wall_now_s();
  ScenarioConfig cfg;
  cfg.bandwidth_mbps = 50;
  cfg.rtt_ms = 30;
  cfg.seed = seed;
  Scenario sc(cfg);
  // Declared after `sc` and before `traced`: the traced flows detach
  // through the decorator, which forwards to the scenario's network.
  std::optional<TracingNetwork> net;
  std::vector<std::unique_ptr<Flow>> traced;
  std::vector<Flow*> flows;
  if (clock == nullptr) {
    for (const FlowSpec& f : kDumbbellFlows) {
      flows.push_back(&sc.add_flow(f.protocol, from_sec(f.start_s)));
    }
  } else {
    net.emplace(sc.network(), *clock);
    for (const FlowSpec& f : kDumbbellFlows) {
      // Mirrors Scenario::add_flow: same id source, seed derivation,
      // tuning and pacing knobs, so the traced flows simulate exactly
      // what add_flow would have built.
      FlowConfig fc;
      fc.id = sc.allocate_flow_id();
      fc.start_time = from_sec(f.start_s);
      auto cc = proteus::make_protocol(f.protocol, sc.flow_seed(fc.id),
                                       nullptr, &cfg.tuning);
      traced.push_back(std::make_unique<Flow>(
          &sc.sim(), &*net, fc,
          std::make_unique<TracingCc>(std::move(cc), *clock, f.pcc)));
      traced.back()->sender().set_max_burst_packets(cfg.max_burst_packets);
      traced.back()->sender().set_pacing_jitter(cfg.pacing_jitter);
      flows.push_back(traced.back().get());
    }
  }

  const proteus::TimeNs warm = from_sec(kDumbbellWarmupS);
  sc.run_until(warm);
  const Link& link = sc.bottleneck();
  const LinkStats l0 = link.stats();
  const SenderTotals s0 = sum_senders(flows);
  const uint64_t e0 = sc.events_processed();
  if (clock != nullptr) clock->reset();
  const double c0 = process_cpu_s();
  const double t0 = wall_now_s();
  sc.run_until(warm + from_sec(kDumbbellWindowS));
  const double t1 = wall_now_s();
  const double c1 = process_cpu_s();

  const LinkStats l1 = link.stats();
  const SenderTotals s1 = sum_senders(flows);
  rep.setup_s = t0 - t_start;
  rep.window_wall_s = t1 - t0;
  rep.window_cpu_s = c1 - c0;
  rep.window_sim_s = kDumbbellWindowS;
  rep.counts.total_events = sc.events_processed();
  rep.counts.events = rep.counts.total_events - e0;
  rep.counts.delivered_bytes = l1.delivered_bytes - l0.delivered_bytes;
  rep.delivered_mb = static_cast<double>(rep.counts.delivered_bytes) / 1e6;
  rep.bottleneck_util =
      static_cast<double>(rep.counts.delivered_bytes) * 8.0 /
      (link.config().rate.bps * kDumbbellWindowS);
  const int64_t sent = s1.sent - s0.sent;
  rep.completion_ratio = ratio(static_cast<double>(s1.acked - s0.acked),
                               static_cast<double>(sent));

  rep.error = check_link("bottleneck", link);
  if (clock == nullptr) {
    if (const proteus::InvariantReport inv = proteus::check_invariants(sc);
        rep.error.empty() && !inv.ok()) {
      rep.error = "invariants: " + inv.to_string();
    }
    return rep;
  }

  const int64_t offered = l1.offered_packets - l0.offered_packets;
  const uint64_t ingress = clock->totals(Span::kLinkIngress).calls;
  if (rep.error.empty() && ingress != static_cast<uint64_t>(offered)) {
    rep.error = "traced ingress calls " + std::to_string(ingress) +
                " != link offered " + std::to_string(offered);
  }
  const double events = static_cast<double>(rep.counts.events);
  auto per_event = [&](Span s) {
    return static_cast<double>(clock->totals(s).self_ns) / events;
  };
  auto& m = rep.layer;
  m["event_queue.events_per_sim_s"] = events / kDumbbellWindowS;
  m["event_queue.residual_ns_per_event"] =
      (rep.window_wall_s * 1e9 - static_cast<double>(clock->covered_ns())) /
      events;
  m["link.ingress_calls"] = static_cast<double>(ingress);
  m["link.ingress_self_ns"] = per_event(Span::kLinkIngress);
  m["topology.send_reverse_self_ns"] = per_event(Span::kSendReverse);
  m["link.drops"] = static_cast<double>(drops(l1) - drops(l0));
  m["link.max_queue_bytes"] = static_cast<double>(l1.max_queue_bytes);
  m["sender.ack_calls"] =
      static_cast<double>(clock->totals(Span::kSenderAck).calls);
  m["sender.ack_self_ns"] = per_event(Span::kSenderAck);
  m["receiver.data_self_ns"] = per_event(Span::kReceiverData);
  m["sender.loss_ratio"] = ratio(static_cast<double>(s1.lost - s0.lost),
                                 static_cast<double>(sent));
  m["cc.pcc.on_ack_self_ns"] = per_event(Span::kPccOnAck);
  m["cc.ref.on_ack_self_ns"] = per_event(Span::kRefOnAck);
  m["cc.pcc.on_packet_sent_self_ns"] = per_event(Span::kPccOnPacketSent);
  m["cc.ref.on_packet_sent_self_ns"] = per_event(Span::kRefOnPacketSent);
  m["cc.pcc.on_timer_self_ns"] = per_event(Span::kPccOnTimer);
  m["cc.ref.on_timer_self_ns"] = per_event(Span::kRefOnTimer);
  m["cc.pcc.on_loss_self_ns"] = per_event(Span::kPccOnLoss);
  m["cc.ref.on_loss_self_ns"] = per_event(Span::kRefOnLoss);
  uint64_t cc_calls = 0;
  for (int s = static_cast<int>(Span::kPccOnAck);
       s < static_cast<int>(Span::kCount); ++s) {
    cc_calls += clock->totals(static_cast<Span>(s)).calls;
  }
  m["cc.calls_per_sim_s"] = static_cast<double>(cc_calls) / kDumbbellWindowS;
  return rep;
}

Rep run_cdn_rep(uint64_t seed, int shards, bool profile) {
  Rep rep;
  const int64_t rss0 = current_rss_bytes();
  const double t_start = wall_now_s();
  ScenarioConfig cfg;
  cfg.topology.kind = proteus::TopologyKind::kCdnEdge;
  cfg.topology.arms = kCdnArms;
  cfg.bandwidth_mbps = kCdnLeafMbps;
  cfg.rtt_ms = kCdnRttMs;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.planned_flows = static_cast<proteus::FlowId>(kCdnCap);
  // One BDP of the core at the base RTT (every link gets the same size).
  cfg.buffer_bytes = static_cast<int64_t>(2.0 * kCdnLeafMbps * 1e6 / 8.0 *
                                          kCdnRttMs / 1e3);
  Scenario sc(cfg);
  Link& core = sc.bottleneck();

  ChurnConfig ch;
  ch.arrivals_per_sec = kCdnArrivalsPerSec;
  ch.mean_size_kb = kCdnMeanSizeKb;
  ch.max_concurrent = kCdnCap;
  ch.window_slots = kCdnWindowSlots;
  ChurnDriver churn(sc, ch);

  struct FabricTotals {
    int64_t offered = 0;
    int64_t dropped = 0;
  };
  auto link_totals = [&sc] {
    FabricTotals sum;
    for (const auto& [name, s] : sc.link_stats()) {
      sum.offered += s.offered_packets;
      sum.dropped += drops(s);
    }
    return sum;
  };

  const proteus::TimeNs ramp = from_sec(kCdnRampS);
  sc.run_until(ramp);
  const uint64_t e0 = sc.events_processed();
  const LinkStats core0 = core.stats();
  const FabricTotals all0 = link_totals();
  const ChurnStats ch0 = churn.stats();
  const proteus::ShardSet::WindowStats w0 = sc.shard_window_stats();
  Profiler prof;
  std::optional<ProfilerInstall> installed;
  if (profile) installed.emplace(&prof);
  const double c0 = process_cpu_s();
  const double t0 = wall_now_s();
  sc.run_until(ramp + from_sec(kCdnWindowS));
  const double t1 = wall_now_s();
  const double c1 = process_cpu_s();
  installed.reset();

  const LinkStats core1 = core.stats();
  const FabricTotals all1 = link_totals();
  const ChurnStats ch1 = churn.stats();
  const proteus::ShardSet::WindowStats w1 = sc.shard_window_stats();
  rep.setup_s = t0 - t_start;
  rep.window_wall_s = t1 - t0;
  rep.window_cpu_s = c1 - c0;
  rep.window_sim_s = kCdnWindowS;
  rep.counts.total_events = sc.events_processed();
  rep.counts.events = rep.counts.total_events - e0;
  rep.counts.delivered_bytes = core1.delivered_bytes - core0.delivered_bytes;
  rep.counts.spawned = ch1.spawned - ch0.spawned;
  rep.counts.completed = ch1.completed - ch0.completed;
  rep.delivered_mb = static_cast<double>(rep.counts.delivered_bytes) / 1e6;
  rep.bottleneck_util = static_cast<double>(rep.counts.delivered_bytes) *
                        8.0 / (core.config().rate.bps * kCdnWindowS);
  rep.completion_ratio = ratio(static_cast<double>(rep.counts.completed),
                               static_cast<double>(rep.counts.spawned));

  // Flow conservation: every spawned flow completed or is still live (the
  // ChurnDriver has no abandon path, so abandoned is always 0).
  if (ch1.spawned != ch1.completed + ch1.concurrent) {
    rep.error = "churn: spawned " + std::to_string(ch1.spawned) +
                " != completed " + std::to_string(ch1.completed) +
                " + live " + std::to_string(ch1.concurrent);
  }
  if (rep.error.empty()) rep.error = check_link("core", core);
  for (int a = 0; a < sc.arm_count() && rep.error.empty(); ++a) {
    proteus::Topology& topo = sc.arm_topology(a);
    for (int i = 0; i < topo.link_count() && rep.error.empty(); ++i) {
      rep.error = check_link(
          "arm" + std::to_string(a) + ".link" + std::to_string(i),
          topo.link(i));
    }
  }

  const double events = static_cast<double>(rep.counts.events);
  auto& m = rep.layer;
  m["event_queue.events_per_sim_s"] = events / kCdnWindowS;
  m["link.ingress_calls"] = static_cast<double>(all1.offered - all0.offered);
  m["link.drops"] = static_cast<double>(all1.dropped - all0.dropped);
  m["link.max_queue_bytes"] = static_cast<double>(core1.max_queue_bytes);
  m["shard.barrier_windows"] =
      static_cast<double>(w1.barrier_windows - w0.barrier_windows);
  const double ff = static_cast<double>(w1.windows_fast_forwarded -
                                        w0.windows_fast_forwarded);
  m["shard.ff_ratio"] = ratio(ff, ff + m["shard.barrier_windows"]);
  m["churn.spawned"] = static_cast<double>(rep.counts.spawned);
  m["churn.arena_hit_ratio"] = ratio(static_cast<double>(ch1.recycled),
                                     static_cast<double>(ch1.spawned));
  m["churn.skipped_ratio"] =
      ratio(static_cast<double>(ch1.skipped),
            static_cast<double>(ch1.spawned + ch1.skipped));
  m["churn.peak_concurrent"] = static_cast<double>(ch1.peak_concurrent);
  m["churn.rss_per_flow_bytes"] =
      ratio(static_cast<double>(current_rss_bytes() - rss0),
            static_cast<double>(ch1.peak_concurrent));
  if (profile) {
    auto ns = [&](ProfilePhase p) {
      return static_cast<double>(prof.stats(p).total_ns);
    };
    auto per_call = [&](ProfilePhase p) {
      return ratio(ns(p), static_cast<double>(prof.stats(p).calls));
    };
    // Profiler phases are inclusive: exec contains event dispatch, which
    // contains every handler. Exec minus dispatch is the event loop's
    // own cost between handlers.
    m["event_queue.residual_ns_per_event"] =
        (ns(ProfilePhase::kShardExec) - ns(ProfilePhase::kEventQueue)) /
        events;
    m["sender.ack_calls"] =
        static_cast<double>(prof.stats(ProfilePhase::kOnAck).calls);
    m["sender.ack_self_ns"] = ns(ProfilePhase::kOnAck) / events;
    m["shard.exec_ns"] = ns(ProfilePhase::kShardExec) / events;
    m["shard.barrier_ns"] = ns(ProfilePhase::kShardBarrier) / events;
    m["shard.drain_ns"] = ns(ProfilePhase::kShardDrain) / events;
    m["churn.arrival_ns"] = per_call(ProfilePhase::kChurnArrival);
    m["churn.teardown_ns"] = per_call(ProfilePhase::kChurnTeardown);
    // The video and scavenger classes run PCC (proteus-p, proteus-s). Its
    // MI-sealing phase is entered whenever completed MIs may be drained,
    // mostly with none ready, and contains the rate-control decision.
    m["cc.pcc.seal_mi_calls"] =
        static_cast<double>(prof.stats(ProfilePhase::kSealMi).calls);
    m["cc.pcc.seal_mi_ns"] = ns(ProfilePhase::kSealMi) / events;
    m["cc.pcc.rate_control_ns"] = ns(ProfilePhase::kRateControl) / events;
  }
  return rep;
}

Rep run_live_rep(uint64_t seed) {
  Rep rep;
  proteus::LiveRunConfig lc;
  lc.cc = "cubic";
  lc.seed = seed;
  lc.transfer_bytes = kLiveBytes;
  lc.duration = from_sec(60);
  lc.run_label = "perfbench";
  const double c0 = process_cpu_s();
  const double t0 = wall_now_s();
  const proteus::LiveRunResult r = proteus::run_live_loopback(lc);
  const double t1 = wall_now_s();
  const double c1 = process_cpu_s();

  const proteus::RtSenderStats& s = r.sender;
  // The window is the whole call on the host's clock; the transfer
  // (connect to finish on the loop clock) is the "simulated" time, so
  // sim_s_per_wall_s is the share of the call spent moving data.
  // Everything else is set-up: sockets, threads, the handshake, and the
  // BYE/join after the last ACK.
  const double transfer_s = proteus::to_sec(s.finish_time - s.connect_time);
  rep.window_wall_s = t1 - t0;
  rep.window_sim_s = transfer_s;
  rep.setup_s = rep.window_wall_s - transfer_s;
  rep.window_cpu_s = c1 - c0;
  rep.delivered_mb = static_cast<double>(s.bytes_delivered) / 1e6;
  rep.bottleneck_util = ratio(static_cast<double>(s.bytes_delivered),
                              static_cast<double>(s.bytes_sent));
  rep.completion_ratio = r.ok ? 1.0 : 0.0;
  rep.counts.delivered_bytes = s.bytes_delivered;

  if (!r.ok) {
    rep.error = "live run failed: " + (r.error.empty() ? "not done" : r.error);
  } else if (s.bytes_delivered != lc.transfer_bytes) {
    rep.error = "live run delivered " + std::to_string(s.bytes_delivered) +
                " of " + std::to_string(lc.transfer_bytes) + " bytes";
  }

  auto& m = rep.layer;
  m["rt.packets_sent"] = static_cast<double>(s.packets_sent);
  m["rt.acked_per_sent"] = ratio(static_cast<double>(s.packets_acked),
                                 static_cast<double>(s.packets_sent));
  m["rt.send_buffer_overflows"] =
      static_cast<double>(r.sender_socket.send_buffer_overflows);
  m["rt.duplicate_acks"] = static_cast<double>(s.duplicate_acks);
  m["rt.cpu_ns_per_pkt"] =
      ratio(rep.window_cpu_s * 1e9, static_cast<double>(s.packets_sent));
  m["rt.handshake_s"] = proteus::to_sec(s.connect_time);
  return rep;
}

namespace {

using RepFn = Rep (*)(uint64_t seed);

Rep dumbbell_untraced(uint64_t seed) { return run_dumbbell_rep(seed, nullptr); }
Rep cdn_untraced(uint64_t seed) {
  return run_cdn_rep(seed, kCdnShards, /*profile=*/false);
}

RepFn untraced_rep(const std::string& workload) {
  if (workload == "dumbbell_mixed") return dumbbell_untraced;
  if (workload == "cdn_churn") return cdn_untraced;
  if (workload == "live_loopback") return run_live_rep;
  return nullptr;
}

// Books one rep into `out`: a failed output check, or simulated counts
// that differ from the run's first rep of the same seed, fail it.
void book(const std::string& label, const Rep& rep, const Rep& first,
          RunResult& out, std::ostream& log) {
  ++out.attempted;
  std::string error = rep.error;
  if (error.empty() && !(rep.counts == first.counts)) {
    error = "counts " + to_string(rep.counts) + " differ from " +
            to_string(first.counts);
  }
  log << "# " << label << ": setup " << rep.setup_s << " s, window "
      << rep.window_wall_s << " s wall, " << to_string(rep.counts)
      << (error.empty() ? "" : "  CHECK FAILED: " + error) << "\n";
  if (!error.empty()) {
    ++out.failed;
    out.correct = false;
  }
}

// End-to-end metrics over the untraced reps: the best decile of each
// wall-clock and CPU rate, and the median of set-up time and of the
// simulated ratios (which repeat exactly for a seed).
void end_to_end(const std::vector<Rep>& reps, RunResult& out) {
  std::vector<double> speed, goodput, setup, cpu_per_sim, cpu_per_mb, util,
      completion;
  for (const Rep& r : reps) {
    speed.push_back(r.window_sim_s / r.window_wall_s);
    goodput.push_back(r.delivered_mb * 8.0 / r.window_wall_s);
    setup.push_back(r.setup_s);
    cpu_per_sim.push_back(r.window_cpu_s / r.window_sim_s);
    cpu_per_mb.push_back(r.window_cpu_s * 1e3 / r.delivered_mb);
    util.push_back(r.bottleneck_util);
    completion.push_back(r.completion_ratio);
  }
  auto& m = out.metrics;
  m["sim_s_per_wall_s"] = best_decile(speed, /*higher=*/true);
  m["live_goodput_mbps"] = best_decile(goodput, /*higher=*/true);
  m["setup_s"] = median(setup);
  m["peak_rss_mb"] = peak_rss_mb();
  m["cpu_s_per_sim_s"] = best_decile(cpu_per_sim, /*higher=*/false);
  m["cpu_ms_per_mb"] = best_decile(cpu_per_mb, /*higher=*/false);
  m["bottleneck_util"] = median(util);
  m["completion_ratio"] = median(completion);
}

// Per-layer figures: the median of each over the traced reps.
void median_layers(const std::vector<Rep>& reps, RunResult& out) {
  std::map<std::string, std::vector<double>> values;
  for (const Rep& r : reps) {
    for (const auto& [name, v] : r.layer) values[name].push_back(v);
  }
  for (auto& [name, v] : values) out.metrics[name] = median(std::move(v));
}

double median_wall(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.window_wall_s);
  return median(std::move(v));
}

double events_per_wall_s(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    v.push_back(static_cast<double>(r.counts.events) / r.window_wall_s);
  }
  return median(std::move(v));
}

// Traced dumbbell_mixed and live_loopback: alternating untraced and
// traced reps of one seed. Tracing must not perturb what runs, so every
// traced rep's counts must equal the untraced ones.
template <typename TracedRep>
void trace_pairs(RepFn plain_rep, TracedRep traced_rep, uint64_t seed,
                 double seconds, RunResult& out, std::ostream& log) {
  std::vector<Rep> plain, traced;
  const double start = wall_now_s();
  while (plain.size() < kMinReps || wall_now_s() - start < seconds) {
    plain.push_back(plain_rep(seed));
    book("untraced rep", plain.back(), plain.front(), out, log);
    traced.push_back(traced_rep(seed));
    book("traced rep", traced.back(), plain.front(), out, log);
  }
  median_layers(traced, out);
  out.metrics["event_queue.events_per_wall_s"] = events_per_wall_s(plain);
  out.metrics["trace.overhead_ratio"] =
      median_wall(traced) / median_wall(plain);
}

// Traced cdn_churn: one untraced rep and one profiled rep at the measured
// shard count, a profiled shards=1 reference rep and an untraced shards=4
// rep. Sharding never changes what is simulated, so all four must run
// identical event totals and flow counts.
void trace_cdn(uint64_t seed, RunResult& out, std::ostream& log) {
  const std::string sharded = ", shards=" + std::to_string(kCdnShards);
  const Rep plain = run_cdn_rep(seed, kCdnShards, /*profile=*/false);
  book("untraced rep" + sharded, plain, plain, out, log);
  const Rep traced = run_cdn_rep(seed, kCdnShards, /*profile=*/true);
  book("traced rep" + sharded, traced, plain, out, log);
  const Rep serial = run_cdn_rep(seed, 1, /*profile=*/true);
  book("traced rep, shards=1", serial, plain, out, log);
  const Rep wide = run_cdn_rep(seed, kCdnCheckShards, /*profile=*/false);
  book("untraced rep, shards=" + std::to_string(kCdnCheckShards), wide,
       plain, out, log);
  median_layers({traced}, out);
  // Resident-set growth is only meaningful in the process's first rep:
  // later reps reuse memory the allocator kept from earlier ones.
  out.metrics["churn.rss_per_flow_bytes"] =
      plain.layer.at("churn.rss_per_flow_bytes");
  out.metrics["event_queue.events_per_wall_s"] = events_per_wall_s({plain});
  out.metrics["shard.speedup"] = serial.window_wall_s / traced.window_wall_s;
  out.metrics["trace.overhead_ratio"] =
      traced.window_wall_s / plain.window_wall_s;
}

}  // namespace

bool is_workload(const std::string& name) {
  return untraced_rep(name) != nullptr;
}

RunResult run_workload(const std::string& workload, uint64_t seed,
                       double seconds, bool trace, std::ostream& log) {
  RunResult out;
  const RepFn rep_fn = untraced_rep(workload);
  if (rep_fn == nullptr) {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  if (trace) {
    if (workload == "dumbbell_mixed") {
      auto traced = [](uint64_t s) {
        SpanClock clock;
        return run_dumbbell_rep(s, &clock);
      };
      trace_pairs(rep_fn, traced, seed, seconds, out, log);
    } else if (workload == "cdn_churn") {
      trace_cdn(seed, out, log);
    } else {
      // The rt layer is read from its always-on counters; the traced reps
      // arm the repository profiler (which the rt path does not enter),
      // so the overhead ratio shows the cost of arming it.
      auto traced = [](uint64_t s) {
        Profiler prof;
        ProfilerInstall installed(&prof);
        return run_live_rep(s);
      };
      trace_pairs(rep_fn, traced, seed, seconds, out, log);
    }
    return out;
  }
  std::vector<Rep> reps;
  const double start = wall_now_s();
  double last_rep_s = 0;
  // A rep is started only if one more as long as the last still ends
  // within `seconds`, so a run with seconds-long reps does not overrun.
  while (reps.size() < kMinReps ||
         wall_now_s() - start + last_rep_s <= seconds) {
    const double rep_start = wall_now_s();
    reps.push_back(rep_fn(seed));
    last_rep_s = wall_now_s() - rep_start;
    book("rep " + std::to_string(reps.size()), reps.back(), reps.front(),
         out, log);
  }
  end_to_end(reps, out);
  return out;
}

}  // namespace perfbench
