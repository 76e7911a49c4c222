#include "trace.h"

#include <stdexcept>
#include <utility>

namespace perfbench {

SpanClock::Scope::Scope(SpanClock& clock, Span span)
    : clock_(clock), span_(span) {
  if (clock_.depth_ == kMaxDepth) {
    throw std::logic_error("perfbench: span nesting deeper than kMaxDepth");
  }
  clock_.child_ns_[static_cast<size_t>(clock_.depth_++)] = 0;
  start_ = std::chrono::steady_clock::now();
}

SpanClock::Scope::~Scope() {
  const auto inclusive = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  const uint64_t children =
      clock_.child_ns_[static_cast<size_t>(--clock_.depth_)];
  Totals& t = clock_.totals_[static_cast<size_t>(span_)];
  ++t.calls;
  t.self_ns += inclusive > children ? inclusive - children : 0;
  if (clock_.depth_ > 0) {
    clock_.child_ns_[static_cast<size_t>(clock_.depth_ - 1)] += inclusive;
  }
}

void SpanClock::reset() {
  if (depth_ != 0) throw std::logic_error("perfbench: reset inside a span");
  totals_ = {};
}

uint64_t SpanClock::covered_ns() const {
  uint64_t sum = 0;
  for (const Totals& t : totals_) sum += t.self_ns;
  return sum;
}

TracingCc::TracingCc(std::unique_ptr<proteus::CongestionController> inner,
                     SpanClock& clock, bool pcc)
    : inner_(std::move(inner)),
      clock_(clock),
      on_sent_(pcc ? Span::kPccOnPacketSent : Span::kRefOnPacketSent),
      on_ack_(pcc ? Span::kPccOnAck : Span::kRefOnAck),
      on_loss_(pcc ? Span::kPccOnLoss : Span::kRefOnLoss),
      on_timer_(pcc ? Span::kPccOnTimer : Span::kRefOnTimer) {}

void TracingCc::on_packet_sent(const proteus::SentPacketInfo& info) {
  SpanClock::Scope s(clock_, on_sent_);
  inner_->on_packet_sent(info);
}

void TracingCc::on_ack(const proteus::AckInfo& info) {
  SpanClock::Scope s(clock_, on_ack_);
  inner_->on_ack(info);
}

void TracingCc::on_loss(const proteus::LossInfo& info) {
  SpanClock::Scope s(clock_, on_loss_);
  inner_->on_loss(info);
}

void TracingCc::on_timer(proteus::TimeNs now) {
  SpanClock::Scope s(clock_, on_timer_);
  inner_->on_timer(now);
}

void TracingSink::on_packet(const proteus::Packet& pkt) {
  SpanClock::Scope s(clock_, span_);
  inner_->on_packet(pkt);
}

proteus::PacketSink* TracingNetwork::forward_ingress(proteus::FlowId id) {
  proteus::PacketSink* real = inner_.forward_ingress(id);
  for (const auto& w : ingress_) {
    if (w->inner() == real) return w.get();
  }
  ingress_.push_back(
      std::make_unique<TracingSink>(real, clock_, Span::kLinkIngress));
  return ingress_.back().get();
}

void TracingNetwork::send_reverse(const proteus::Packet& ack) {
  SpanClock::Scope s(clock_, Span::kSendReverse);
  inner_.send_reverse(ack);
}

void TracingNetwork::attach_flow(proteus::FlowId id,
                                 proteus::PacketSink* receiver_side,
                                 proteus::PacketSink* sender_ack_side) {
  auto wrap = [&](proteus::PacketSink* sink, Span span) -> proteus::PacketSink* {
    if (sink == nullptr) return nullptr;
    ports_.push_back(std::make_unique<TracingSink>(sink, clock_, span));
    return ports_.back().get();
  };
  inner_.attach_flow(id, wrap(receiver_side, Span::kReceiverData),
                     wrap(sender_ack_side, Span::kSenderAck));
}

}  // namespace perfbench
