// Outside-in span timing for the traced dumbbell run.
//
// The decorators here wrap the public seams a flow is built from — its
// CongestionController and the Network it sends through — and time each
// call into the layer behind them. Nothing inside src/ is instrumented:
// a traced flow is an ordinary Flow whose controller and network happen
// to be wrappers, so the simulation it runs is the untraced one (the
// benchmark cross-checks event and byte counts to prove it).
//
// SpanClock keeps a scope stack and books each span's self time
// (inclusive minus the time of the spans it encloses). Because self
// times telescope, their sum equals the time covered by the outermost
// spans; wall time minus that sum is what no boundary covered — event
// dispatch, pacer ticks and link service, which run as scheduled
// callbacks the benchmark cannot wrap.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/network.h"
#include "transport/cc_interface.h"

namespace perfbench {

enum class Span : int {
  kLinkIngress = 0,  // Network::forward_ingress(...)->on_packet
  kSendReverse,      // Network::send_reverse
  kSenderAck,        // Sender::on_packet (an ACK off the reverse path)
  kReceiverData,     // Receiver::on_packet (a data packet off the link)
  kPccOnAck,
  kPccOnPacketSent,
  kPccOnTimer,
  kPccOnLoss,
  kRefOnAck,
  kRefOnPacketSent,
  kRefOnTimer,
  kRefOnLoss,
  kCount,
};

class SpanClock {
 public:
  struct Totals {
    uint64_t calls = 0;
    uint64_t self_ns = 0;
  };

  // RAII span: times its enclosing block against `clock`.
  class Scope {
   public:
    Scope(SpanClock& clock, Span span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanClock& clock_;
    Span span_;
    std::chrono::steady_clock::time_point start_;
  };

  void reset();
  const Totals& totals(Span s) const {
    return totals_[static_cast<size_t>(s)];
  }
  // Sum of every span's self time: the wall time covered by a boundary.
  uint64_t covered_ns() const;

 private:
  static constexpr int kMaxDepth = 16;
  std::array<Totals, static_cast<size_t>(Span::kCount)> totals_{};
  // child_ns_[d]: time spent in children of the open span at depth d.
  std::array<uint64_t, kMaxDepth> child_ns_{};
  int depth_ = 0;
};

// Forwards every call to `inner`, timing the four per-packet hooks under
// the pcc or reference span family.
class TracingCc final : public proteus::CongestionController {
 public:
  TracingCc(std::unique_ptr<proteus::CongestionController> inner,
            SpanClock& clock, bool pcc);

  void on_start(proteus::TimeNs now) override { inner_->on_start(now); }
  void on_packet_sent(const proteus::SentPacketInfo& info) override;
  void on_ack(const proteus::AckInfo& info) override;
  void on_loss(const proteus::LossInfo& info) override;
  void on_timer(proteus::TimeNs now) override;
  proteus::TimeNs next_timer() const override { return inner_->next_timer(); }
  proteus::Bandwidth pacing_rate() const override {
    return inner_->pacing_rate();
  }
  int64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  std::string name() const override { return inner_->name(); }
  void set_window_slots_hint(int slots) override {
    inner_->set_window_slots_hint(slots);
  }
  void set_telemetry(proteus::TelemetryRecorder* recorder) override {
    inner_->set_telemetry(recorder);
  }
  void snapshot_metrics(proteus::MetricsRegistry* registry) const override {
    inner_->snapshot_metrics(registry);
  }

 private:
  std::unique_ptr<proteus::CongestionController> inner_;
  SpanClock& clock_;
  Span on_sent_, on_ack_, on_loss_, on_timer_;
};

// A PacketSink that times deliveries into `inner` under `span`.
class TracingSink final : public proteus::PacketSink {
 public:
  TracingSink(proteus::PacketSink* inner, SpanClock& clock, Span span)
      : inner_(inner), clock_(clock), span_(span) {}
  void on_packet(const proteus::Packet& pkt) override;
  proteus::PacketSink* inner() const { return inner_; }

 private:
  proteus::PacketSink* inner_;
  SpanClock& clock_;
  Span span_;
};

// Network decorator: times the ingress link, the reverse-path send, and
// the receiver/sender delivery ports it binds for each flow.
class TracingNetwork final : public proteus::Network {
 public:
  TracingNetwork(proteus::Network& inner, SpanClock& clock)
      : inner_(inner), clock_(clock) {}

  proteus::PacketSink* forward_ingress(proteus::FlowId id) override;
  void send_reverse(const proteus::Packet& ack) override;
  void attach_flow(proteus::FlowId id, proteus::PacketSink* receiver_side,
                   proteus::PacketSink* sender_ack_side) override;
  void detach_flow(proteus::FlowId id) override { inner_.detach_flow(id); }

 private:
  proteus::Network& inner_;
  SpanClock& clock_;
  // One wrapper per distinct ingress sink (the dumbbell has one).
  std::vector<std::unique_ptr<TracingSink>> ingress_;
  // Delivery-port wrappers; kept until the network dies, since the
  // fabric may still hold them after a detach.
  std::vector<std::unique_ptr<TracingSink>> ports_;
};

}  // namespace perfbench
