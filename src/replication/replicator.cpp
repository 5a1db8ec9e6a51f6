#include "replication/replicator.h"

#include "common/log.h"
#include "fault/fault_injector.h"
#include "store/page_store.h"
#include "telemetry/telemetry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace crimes::replication {

Replicator::Replicator(const CostModel& costs, ReplicationConfig config,
                       Vm& source, Vm& standby,
                       std::uint64_t seed_generation)
    : costs_(&costs),
      config_(std::move(config)),
      source_(&source),
      standby_(&standby),
      acked_through_(seed_generation),
      received_base_(seed_generation) {
  if (config_.window == 0) {
    throw std::invalid_argument("ReplicationConfig: window must be >= 1");
  }
  if (config_.compress) {
    transport_ = std::make_unique<CompressedSocketTransport>(
        costs.copy_compress_gather_per_page, costs.copy_wire_per_byte);
  } else {
    transport_ = std::make_unique<SocketTransport>(
        costs.copy_socket_gather_per_page);
  }
}

void Replicator::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    lag_gauge_ = nullptr;
    ack_delay_ = nullptr;
    return;
  }
  lag_gauge_ = &telemetry->metrics.gauge("replication.lag");
  ack_delay_ = &telemetry->metrics.histogram("replication.ack_delay_ns");
}

void Replicator::update_lag_gauge() {
  if (lag_gauge_ != nullptr) {
    lag_gauge_->set(static_cast<double>(window_.size()));
  }
}

Replicator::SendResult Replicator::on_commit(std::uint64_t generation,
                                             std::span<const Pfn> dirty,
                                             const VcpuState& vcpu, Nanos now,
                                             std::uint64_t root) {
  SendResult result;
  advance(now);
  if (partitioned_) {
    // The socket errors immediately; the generation never leaves the
    // primary. Its held outputs can only be covered by an ack that will
    // never come -- exactly the state fencing exists for.
    ++dropped_;
    result.dropped = true;
    chain_gap_ = true;  // later roots can no longer chain from our state
    return result;
  }

  // Backpressure: a full window stalls the primary until the oldest
  // in-flight generation acknowledges. The link is healthy here (a
  // partition empties into the dropped path above), so that ack has a
  // definite virtual arrival time.
  while (window_.size() >= config_.window) {
    const Nanos wake = window_.front().ack_at;
    result.stall += wake - now;
    now = wake;
    advance(now);
  }
  total_stall_ += result.stall;

  // Undo log first: the standby's bytes + vCPU before this generation, so
  // a partition or promotion can un-apply it if it never "arrives".
  InFlight entry;
  entry.generation = generation;
  entry.root = root;
  entry.prior_vcpu = standby_->vcpu();
  if (!spare_undo_.empty()) {
    entry.undo = std::move(spare_undo_.back());
    spare_undo_.pop_back();
  }
  {
    ForeignMapping src{*source_};
    ForeignMapping dst{*standby_};
    for (const Pfn pfn : dirty) entry.undo.capture(dst, pfn);
    // The real byte movement, through the real Remus socket path (cipher,
    // and optionally XOR-delta + RLE against the standby's stale copy).
    const Nanos transfer = transport_->copy(src, dst, dirty);
    standby_->vcpu() = vcpu;

    // Attested apply: the standby recomputes this generation's leaf from
    // the bytes it just wrote -- not from anything the primary claims --
    // and extends its trusted root only if the carried root matches
    // (Buhren et al.: verify before extending trust).
    if (attest_ && !chain_gap_) {
      std::uint64_t claimed = root;
      if (faults_ != nullptr && !dirty.empty() &&
          faults_->tampers_replication()) {
        // In-flight ciphertext corruption: one applied standby byte flips.
        const std::size_t victim = static_cast<std::size_t>(
            faults_->tamper_victim() % dirty.size());
        dst.page(dirty[victim]).data[kPageSize / 2] ^= std::byte{0x08};
        CRIMES_LOG(Warn, "replicator")
            << "injected replication tamper on generation " << generation;
      }
      if (faults_ != nullptr && faults_->replays_stale_root()) {
        // The wire adversary substitutes the previous root for this one.
        claimed = last_root_sent_;
        CRIMES_LOG(Warn, "replicator")
            << "injected stale-root replay on generation " << generation;
      }
      crypto::AttestationLeaf leaf;
      leaf.epoch = generation;
      leaf.vcpu_digest = crypto::pod_digest(standby_->vcpu());
      for (const Pfn pfn : dirty) {
        leaf.fold_page(pfn.raw, store::page_digest(dst.peek(pfn)).lo);
      }
      result.verify_cost = costs_->store_hash_per_page * dirty.size() +
                           costs_->crypto_leaf_extend +
                           costs_->crypto_root_verify;
      ++roots_verified_;
      if (!chain_.verify_extend(leaf, claimed)) {
        chain_intact_ = false;
        ++tampers_detected_;
        CRIMES_LOG(Error, "replicator")
            << "attestation verify FAILED for generation " << generation
            << " -- trust not extended; promotion from this stream will "
               "be refused";
      }
    }
    last_root_sent_ = root;

    // Virtual timeline: the link serializes transfers; arrival adds a wire
    // hop plus the standby-side apply; the ack rides one hop back.
    entry.sent_at = now;
    const Nanos send_start = std::max(now, link_busy_until_);
    link_busy_until_ = send_start + transfer;
    entry.recv_at = link_busy_until_ + costs_->replication_one_way +
                    costs_->replication_apply_per_page * dirty.size();
    entry.ack_at = entry.recv_at + costs_->replication_one_way;
  }
  if (ack_delay_ != nullptr) {
    ack_delay_->record(
        static_cast<std::uint64_t>((entry.ack_at - entry.sent_at).count()));
  }
  window_.push_back(std::move(entry));
  max_in_flight_ = std::max(max_in_flight_, window_.size());
  ++sent_;
  result.charge = costs_->replication_frame;
  update_lag_gauge();
  return result;
}

void Replicator::advance(Nanos now) {
  while (!window_.empty() && !window_.front().ack_lost &&
         window_.front().ack_at <= now) {
    acked_through_ = window_.front().generation;
    received_base_ = window_.front().generation;
    base_root_ = window_.front().root;
    recycle(window_.front().undo);
    window_.pop_front();
  }
  update_lag_gauge();
}

void Replicator::recycle(UndoLog& undo) {
  undo.clear();
  spare_undo_.push_back(std::move(undo));
}

std::uint64_t Replicator::received_through(Nanos now) const {
  std::uint64_t through = received_base_;
  for (const InFlight& entry : window_) {
    if (entry.lost || entry.recv_at > now) break;
    through = entry.generation;
  }
  return through;
}

void Replicator::partition(Nanos now) {
  if (partitioned_) return;
  advance(now);  // acks already home are home
  partitioned_ = true;
  partitioned_at_ = now;
  for (InFlight& entry : window_) {
    // recv times are monotone (FIFO link), so the lost entries form the
    // window's suffix; the prefix was received but its acks are gone.
    if (entry.recv_at > now) entry.lost = true;
    entry.ack_lost = true;
  }
  CRIMES_LOG(Warn, "replicator")
      << "link partitioned at " << to_ms(now) << " ms with "
      << window_.size() << " generation(s) in flight";
}

Nanos Replicator::rollback_unreceived(Nanos now, std::size_t* generations,
                                      std::size_t* pages) {
  Nanos cost{0};
  ForeignMapping dst{*standby_};
  while (!window_.empty() &&
         (window_.back().lost || window_.back().recv_at > now)) {
    InFlight& entry = window_.back();
    entry.undo.restore(dst);
    standby_->vcpu() = entry.prior_vcpu;
    cost += costs_->replication_apply_per_page * entry.undo.size() +
            costs_->replication_frame;
    if (generations != nullptr) ++*generations;
    if (pages != nullptr) *pages += entry.undo.size();
    recycle(entry.undo);
    window_.pop_back();
  }
  // Trust rewinds with the bytes: the chain re-anchors at the newest
  // generation the standby still holds.
  if (attest_) {
    chain_.reset(window_.empty() ? base_root_ : window_.back().root, 0);
  }
  return cost;
}

Replicator::DrainReport Replicator::drain(Nanos now) {
  advance(now);
  DrainReport report;
  report.cost =
      rollback_unreceived(now, &report.rolled_back, &report.pages_rolled_back);
  // Whatever survived the rollback was fully received; the stream is
  // consumed and the window closes.
  while (!window_.empty()) {
    received_base_ = window_.front().generation;
    base_root_ = window_.front().root;
    recycle(window_.front().undo);
    window_.pop_front();
  }
  report.received_through = received_base_;
  report.chain_verified = !attest_ || chain_intact_;
  report.trusted_root = base_root_;
  update_lag_gauge();
  return report;
}

Nanos Replicator::quiesce(Nanos now) {
  const DrainReport report = drain(now);
  CRIMES_LOG(Info, "replicator")
      << "quiesced: window released, " << report.rolled_back
      << " unreceived generation(s) rolled back, standby at generation "
      << report.received_through;
  return report.cost;
}

}  // namespace crimes::replication
