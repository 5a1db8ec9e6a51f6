// The Replicator: streams every committed generation from the primary's
// backup image to a standby host over the Remus socket path
// (DESIGN.md section 11).
//
// The stream is asynchronous with a bounded in-flight window, like Remus'
// checkpoint drain: at commit time the generation's dirty pages really move
// (bytes are copied into the standby image through a SocketTransport or
// CompressedSocketTransport immediately, one record at a time, priced at
// the link's CostModel::copy_*_gather_per_page rates), but on the virtual
// timeline the transfer occupies the link for its modeled duration,
// arrives one wire hop later, and is acknowledged one hop after that. The
// primary charges itself only the per-generation framing cost -- unless
// the window is full, in which case it stalls until the oldest in-flight
// generation acks (backpressure, charged to the virtual clock).
//
// Because bytes are applied eagerly but *arrive* later on the virtual
// timeline, every in-flight generation carries an undo log (the standby's
// prior bytes + vCPU). A link partition or a promotion rolls back exactly
// the generations whose receive instant lies beyond the cut, restoring the
// invariant that the standby image equals its last fully received
// generation -- the only state failover may promote. A generation that
// leaves the window (acked, rolled back or drained) hands its undo log to
// the next one, so a steady stream reuses `window` logs instead of
// allocating one per generation.
#pragma once

#include "checkpoint/transport.h"
#include "checkpoint/undo_log.h"
#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "crypto/attestation_chain.h"
#include "hypervisor/vm.h"
#include "replication/replication_config.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

namespace crimes::telemetry {
struct Telemetry;
class Gauge;
class Histogram;
}  // namespace crimes::telemetry

namespace crimes::fault {
class FaultInjector;
}  // namespace crimes::fault

namespace crimes::replication {

class Replicator {
 public:
  // `source` is the primary host's backup image (the last committed
  // checkpoint -- the only state that is ever replicated); `standby` is
  // the standby host's image, already seeded to `seed_generation`.
  Replicator(const CostModel& costs, ReplicationConfig config, Vm& source,
             Vm& standby, std::uint64_t seed_generation);

  struct SendResult {
    Nanos stall{0};    // backpressure wait (window was full)
    Nanos charge{0};   // primary-side framing cost
    Nanos verify_cost{0};  // standby-side attestation verify (attested only)
    bool dropped = false;  // link partitioned; nothing was sent
  };
  // Ships generation `generation` (the pages in `dirty`, plus the vCPU) at
  // virtual time `now`. Caller advances the clock by stall + charge +
  // verify_cost. With attestation armed, `root` is the primary store's
  // root after this commit; the standby recomputes the leaf from the bytes
  // it actually applied and refuses to extend trust past a mismatch.
  SendResult on_commit(std::uint64_t generation, std::span<const Pfn> dirty,
                       const VcpuState& vcpu, Nanos now,
                       std::uint64_t root = 0);

  // Processes every acknowledgement due by `now`, freeing window slots and
  // their undo logs.
  void advance(Nanos now);

  // Severs the link at `now`. Generations received after `now` are rolled
  // back immediately (their bytes never arrive); generations received but
  // not yet acknowledged stay applied on the standby -- their acks are
  // lost, so the primary never releases the outputs they cover. The
  // partition is sticky.
  void partition(Nanos now);
  [[nodiscard]] bool partitioned() const { return partitioned_; }

  // Governor freeze: the primary stops, so nothing in flight will ever be
  // needed. Rolls back unreceived generations, releases the whole window
  // (in_flight() == 0 afterwards) and returns the standby-side cost.
  Nanos quiesce(Nanos now);

  // Promotion support: rolls back every generation not fully received by
  // `now` and reports what the standby may legally resume from.
  struct DrainReport {
    std::uint64_t received_through = 0;  // newest fully received generation
    std::size_t rolled_back = 0;         // generations undone
    std::size_t pages_rolled_back = 0;
    // Attestation verdict over everything the standby still holds: false
    // iff a verified-at-apply generation failed its root check. Partition
    // drops never applied anything, so they cannot fail this (no false
    // positives); with attestation off it stays true.
    bool chain_verified = true;
    std::uint64_t trusted_root = 0;  // root of received_through (attested)
    Nanos cost{0};
  };
  DrainReport drain(Nanos now);

  // --- Attestation (DESIGN.md section 15) -------------------------------
  // Arms standby-side verification: the standby trusts `trusted_root` (the
  // root it observed at initialization) and extends trust one generation
  // at a time as commits apply.
  void set_attestation(std::uint64_t tenant_key, std::uint64_t trusted_root) {
    attest_ = true;
    chain_ = crypto::AttestationChain(tenant_key);
    chain_.reset(trusted_root, 0);
    base_root_ = trusted_root;
    last_root_sent_ = trusted_root;
  }
  [[nodiscard]] bool attested() const { return attest_; }
  [[nodiscard]] bool chain_intact() const { return chain_intact_; }
  [[nodiscard]] std::uint64_t tampers_detected() const {
    return tampers_detected_;
  }
  [[nodiscard]] std::uint64_t roots_verified() const {
    return roots_verified_;
  }

  // Attaches (nullptr detaches) the injector behind the ReplicationTamper
  // and StaleRootReplay sites.
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  // --- Accounting -------------------------------------------------------
  [[nodiscard]] std::uint64_t acked_through() const { return acked_through_; }
  [[nodiscard]] std::uint64_t received_through(Nanos now) const;
  [[nodiscard]] std::size_t in_flight() const { return window_.size(); }
  [[nodiscard]] Nanos total_stall() const { return total_stall_; }
  [[nodiscard]] std::uint64_t generations_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t generations_dropped() const { return dropped_; }
  [[nodiscard]] std::size_t max_in_flight() const { return max_in_flight_; }
  [[nodiscard]] const Transport& transport() const { return *transport_; }
  [[nodiscard]] const ReplicationConfig& config() const { return config_; }

  // Attaches (nullptr detaches) the replication.lag gauge and the
  // replication.ack_delay histogram.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // Runtime window actuator (control plane). Clamped to >= 1; a shrink
  // does not cancel generations already in flight -- the window drains
  // down to the new bound through normal acks before sends admit again.
  void set_window(std::size_t window) {
    config_.window = window == 0 ? 1 : window;
  }

 private:
  struct InFlight {
    std::uint64_t generation = 0;
    std::uint64_t root = 0;  // attestation root after this generation
    Nanos sent_at{0};
    Nanos recv_at{0};  // fully received (transfer + one-way wire + apply)
    Nanos ack_at{0};   // ack back at the primary
    bool ack_lost = false;  // partition cut the ack path
    bool lost = false;      // partition cut the data path; must roll back
    UndoLog undo;  // standby bytes before apply
    VcpuState prior_vcpu;
  };

  // Keeps a retired generation's undo log for the next one to reuse.
  void recycle(UndoLog& undo);

  // Rolls back the window's suffix whose recv_at > `now` (newest first).
  // Returns the standby-side cost; fills the counters when given.
  Nanos rollback_unreceived(Nanos now, std::size_t* generations,
                            std::size_t* pages);
  void update_lag_gauge();

  const CostModel* costs_;
  ReplicationConfig config_;
  Vm* source_;
  Vm* standby_;
  std::unique_ptr<Transport> transport_;

  std::deque<InFlight> window_;
  std::vector<UndoLog> spare_undo_;  // cleared logs of retired generations
  std::uint64_t acked_through_;
  std::uint64_t received_base_;  // newest generation applied & kept
  Nanos link_busy_until_{0};
  bool partitioned_ = false;
  Nanos partitioned_at_{0};

  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t max_in_flight_ = 0;
  Nanos total_stall_{0};

  // Attestation state (armed by set_attestation).
  bool attest_ = false;
  crypto::AttestationChain chain_;
  std::uint64_t base_root_ = 0;  // root of received_base_
  std::uint64_t last_root_sent_ = 0;  // what a stale-root replay resends
  bool chain_intact_ = true;
  // Partition gap: once a generation is dropped, later roots could never
  // chain from what the standby holds, so verification stands down rather
  // than report false tampering. Nothing is applied past the gap anyway
  // (the partition is sticky).
  bool chain_gap_ = false;
  std::uint64_t tampers_detected_ = 0;
  std::uint64_t roots_verified_ = 0;
  fault::FaultInjector* faults_ = nullptr;

  telemetry::Gauge* lag_gauge_ = nullptr;
  telemetry::Histogram* ack_delay_ = nullptr;
};

}  // namespace crimes::replication
