#include "net/output_buffer.h"

#include "telemetry/telemetry.h"

namespace crimes {

void ExternalNetwork::deliver(Packet packet, Nanos released_at) {
  DeliveredPacket d{
      .packet = std::move(packet),
      .released_at = released_at,
      .delivered_at = released_at + wire_latency_,
  };
  log_.push_back(d);
  if (listener_) listener_(log_.back());
}

void OutputBuffer::release_all(ExternalNetwork& net, Nanos released_at) {
  release(pending_, net, released_at);
  if (pending_gauge_ != nullptr) pending_gauge_->set(0.0);
}

void OutputBuffer::release(std::vector<Packet>& packets, ExternalNetwork& net,
                           Nanos released_at) {
  if (released_counter_ != nullptr) released_counter_->add(packets.size());
  total_released_ += packets.size();
  for (auto& p : packets) net.deliver(std::move(p), released_at);
  packets.clear();
}

void OutputBuffer::drop_all() {
  if (dropped_counter_ != nullptr) dropped_counter_->add(pending_.size());
  total_dropped_ += pending_.size();
  pending_.clear();
  if (pending_gauge_ != nullptr) pending_gauge_->set(0.0);
}

void OutputBuffer::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    released_counter_ = nullptr;
    dropped_counter_ = nullptr;
    pending_gauge_ = nullptr;
    return;
  }
  released_counter_ = &telemetry->metrics.counter("net.packets_released");
  dropped_counter_ = &telemetry->metrics.counter("net.packets_dropped");
  pending_gauge_ = &telemetry->metrics.gauge("net.pending");
}

}  // namespace crimes
