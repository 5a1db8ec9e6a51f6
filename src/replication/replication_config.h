// Knobs for the standby replication layer (DESIGN.md section 11).
//
// Dependency-light on purpose, mirroring store/store_config.h:
// CrimesConfig embeds a ReplicationConfig by value; the machinery itself
// (Replicator, StandbyHost, HeartbeatDetector, fencing) lives behind
// pointers and is only constructed when `enabled` is set.
#pragma once

#include "common/sim_clock.h"

#include <cstddef>

namespace crimes::replication {

// Phi-accrual failure detector tuning (Hayashibara et al.): suspicion is a
// continuous value phi = -log10(P(heartbeat still in flight)) over the
// observed inter-arrival distribution, not a binary timeout.
struct HeartbeatConfig {
  // How often the primary sends a heartbeat; Crimes sends one at every
  // epoch boundary, so this should track the epoch interval.
  Nanos interval = millis(200);
  // Suspicion threshold: phi = 8 means the detector is wrong once in 1e8
  // evaluations under the modeled distribution.
  double phi_threshold = 8.0;
  // Sliding window of inter-arrival samples behind the mean/stddev.
  std::size_t window = 16;
  // Floor on the modeled stddev as a fraction of the mean: virtual-clock
  // heartbeats arrive perfectly regularly, and a zero-variance model
  // would suspect one nanosecond after the first late beat.
  double min_stddev_fraction = 0.1;
};

struct ReplicationConfig {
  // Off by default: Crimes never constructs the standby machinery and the
  // per-epoch path is a single null check.
  bool enabled = false;
  // Maximum committed-but-unacked generations in flight on the link. A
  // full window stalls the primary at the next commit until the oldest
  // ack arrives (backpressure, charged to the virtual clock).
  std::size_t window = 4;
  // Stream XOR-delta + RLE pages (CompressedSocketTransport) instead of
  // the plain ciphered stream (SocketTransport). Either way the stream is
  // framed one record at a time and priced at the scatter-gather link's
  // rates (CostModel::copy_*_gather_per_page).
  bool compress = false;
  HeartbeatConfig heartbeat;
  // Fencing lease term. Must exceed the heartbeat interval (renewal
  // piggybacks on the epoch loop) and bounds how long a partitioned
  // primary may keep releasing outputs: promotion waits the term out, so
  // by the time the standby takes over the old primary has self-fenced.
  Nanos lease_term = millis(600);
};

}  // namespace crimes::replication
