// Hypervisor-side output buffer: the heart of the paper's Synchronous
// Safety. Packets produced during an epoch are held here and only released
// once the epoch's security audit passes; on an audit failure they are
// dropped, so an attack has zero external impact.
#pragma once

#include "common/sim_clock.h"
#include "net/packet.h"
#include "telemetry/metrics.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace crimes {

namespace telemetry {
struct Telemetry;
}  // namespace telemetry

// The "outside world": a log of packets that actually escaped the host.
// Invariant tests key off this -- anything here was externally visible.
class ExternalNetwork {
 public:
  using Listener = std::function<void(const DeliveredPacket&)>;

  explicit ExternalNetwork(Nanos wire_latency) : wire_latency_(wire_latency) {}

  void set_listener(Listener listener) { listener_ = std::move(listener); }

  void deliver(Packet packet, Nanos released_at);

  [[nodiscard]] const std::vector<DeliveredPacket>& log() const {
    return log_;
  }
  [[nodiscard]] std::size_t delivered_count() const { return log_.size(); }
  [[nodiscard]] Nanos wire_latency() const { return wire_latency_; }

 private:
  Nanos wire_latency_;
  Listener listener_;
  std::vector<DeliveredPacket> log_;
};

class OutputBuffer {
 public:
  void hold(Packet&& packet) {
    pending_.push_back(std::move(packet));
    if (pending_gauge_ != nullptr) {
      pending_gauge_->set(static_cast<double>(pending_.size()));
    }
  }

  // Commits the epoch: every held packet escapes at `released_at`.
  void release_all(ExternalNetwork& net, Nanos released_at);

  // Releases `packets` -- outputs this buffer held and handed out through
  // take_all() -- at `released_at`, leaving `packets` empty. Every held
  // packet that leaves the host goes through here or release_all(), so
  // the release counters see them all.
  void release(std::vector<Packet>& packets, ExternalNetwork& net,
               Nanos released_at);

  // Audit failed: the epoch's outputs never existed.
  void drop_all();

  // Replication extension (DESIGN.md section 11): the audit passed but the
  // outputs must additionally wait for the standby's acknowledgement.
  // Empties the buffer into the caller's pending-release queue; the caller
  // later hands them to release(), or discards them against its own
  // counters.
  [[nodiscard]] std::vector<Packet> take_all() {
    std::vector<Packet> taken = std::move(pending_);
    pending_.clear();
    if (pending_gauge_ != nullptr) pending_gauge_->set(0.0);
    return taken;
  }

  // Attaches net.packets_released / net.packets_dropped counters and the
  // net.pending depth gauge (nullptr detaches).
  void set_telemetry(telemetry::Telemetry* telemetry);

  [[nodiscard]] const std::vector<Packet>& pending() const {
    return pending_;
  }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t total_released() const {
    return total_released_;
  }
  [[nodiscard]] std::uint64_t total_dropped() const { return total_dropped_; }

 private:
  std::vector<Packet> pending_;
  std::uint64_t total_released_ = 0;
  std::uint64_t total_dropped_ = 0;
  telemetry::Counter* released_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Gauge* pending_gauge_ = nullptr;
};

}  // namespace crimes
