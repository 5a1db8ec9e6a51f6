#include "store/checkpoint_store.h"

#include "common/log.h"
#include "fault/fault_injector.h"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace crimes::store {

namespace {

// Reconstructs the commit-time leaf frozen into a generation; every
// verifier (store audit, journal fsck/replay, standby) derives the same
// structure from its own copy of the data.
crypto::AttestationLeaf frozen_leaf(const Generation& gen) {
  crypto::AttestationLeaf leaf;
  leaf.epoch = gen.epoch;
  leaf.pages_digest = gen.attest_digest;
  leaf.vcpu_digest = crypto::pod_digest(gen.vcpu);
  leaf.audit_passed = gen.audit_passed;
  return leaf;
}

}  // namespace

Nanos CheckpointStore::hash_pages(std::span<const Pfn> dirty,
                                  const ForeignMapping& image,
                                  std::vector<Hash128>& digests_out,
                                  ThreadPool* pool) const {
  digests_out.resize(dirty.size());
  if (config_.parallel_hash && pool != nullptr && dirty.size() > 1) {
    // Serial gather, parallel hash -- the same split the sharded copy
    // uses: peek() never materializes frames, and each shard writes a
    // disjoint slice of the output, so the workers share nothing.
    std::vector<const Page*> frames(dirty.size());
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      frames[i] = &image.peek(dirty[i]);
    }
    pool->parallel_for_shards(
        dirty.size(), pool->size(),
        [&frames, &digests_out](std::size_t, std::size_t begin,
                                std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            digests_out[i] = page_digest(*frames[i]);
          }
        });
    return costs_->parallel_shard_cost(costs_->store_hash_per_page,
                                       dirty.size(), pool->size());
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    digests_out[i] = page_digest(image.peek(dirty[i]));
  }
  return costs_->store_hash_per_page * dirty.size();
}

Nanos CheckpointStore::seed(std::uint64_t epoch, ForeignMapping& image,
                            const VcpuState& vcpu, Nanos now) {
  if (!chain_.empty()) {
    throw std::logic_error("CheckpointStore::seed: already seeded");
  }
  image_pages_ = image.page_count();

  Generation gen;
  gen.epoch = epoch;
  gen.taken_at = now;
  gen.vcpu = vcpu;
  std::size_t backed = 0;
  const std::uint64_t sealed_before = pages_.stats().pages_sealed;
  crypto::AttestationLeaf fold;
  for (std::size_t i = 0; i < image_pages_; ++i) {
    const Pfn pfn{i};
    // Never-written pages are the manifest's kZeroDigest sentinel -- i.e.
    // absent: digest_at() already defaults to it.
    if (!image.is_backed(pfn)) continue;
    const Page& page = image.peek(pfn);
    const std::uint64_t digest = pages_.intern(page, page_digest(page));
    gen.changed.emplace_back(pfn, digest);
    fold.fold_page(pfn.raw, digest);
    ++backed;
  }
  // The seed's "dirty list" is the backed pages in ascending pfn order --
  // the exact sequence the journal's seed record encodes and a standby's
  // full sync applies, so all three folds agree.
  Nanos crypto_cost = extend_attestation(gen, fold.pages_digest);
  crypto_cost += (costs_->crypto_seal_per_page + costs_->crypto_mac_per_record) *
                 (pages_.stats().pages_sealed - sealed_before);
  last_seal_cost_ = crypto_cost;
  chain_.append(std::move(gen));
  return (costs_->store_hash_per_page + costs_->store_encode_per_page) *
             backed +
         crypto_cost;
}

Nanos CheckpointStore::append(std::uint64_t epoch, std::span<const Pfn> dirty,
                              ForeignMapping& image, const VcpuState& vcpu,
                              Nanos now, ThreadPool* pool) {
  if (chain_.empty()) {
    throw std::logic_error("CheckpointStore::append: seed() not called");
  }
  std::vector<Hash128> digests;
  const Nanos cost = hash_pages(dirty, image, digests, pool);
  return cost + append_with_digests(epoch, dirty, digests, image, vcpu, now);
}

Nanos CheckpointStore::append_with_digests(
    std::uint64_t epoch, std::span<const Pfn> dirty,
    std::span<const Hash128> digests, ForeignMapping& image,
    const VcpuState& vcpu, Nanos now) {
  if (chain_.empty()) {
    throw std::logic_error(
        "CheckpointStore::append_with_digests: seed() not called");
  }
  if (digests.size() != dirty.size()) {
    throw std::invalid_argument(
        "CheckpointStore::append_with_digests: digest count mismatch");
  }
  const std::size_t newest = chain_.size() - 1;
  Generation gen;
  gen.epoch = epoch;
  gen.taken_at = now;
  gen.vcpu = vcpu;
  gen.changed.reserve(dirty.size());
  std::size_t encoded = 0;
  const std::uint64_t sealed_before = pages_.stats().pages_sealed;
  crypto::AttestationLeaf fold;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const Pfn pfn = dirty[i];
    const std::uint64_t key = digests[i].lo;
    // The leaf folds the *full* dirty list -- including pages rewritten
    // identically -- because that is the sequence the journal record
    // carries and the standby applies; `changed` is a local optimization
    // the other recomputation sites never see.
    fold.fold_page(pfn.raw, key);
    const std::uint64_t prev = chain_.digest_at(newest, pfn);
    if (key == prev) continue;  // dirtied but rewritten identically
    const std::uint64_t before = pages_.stats().dedup_hits;
    pages_.intern(image.peek(pfn), digests[i], prev);
    if (pages_.stats().dedup_hits == before) ++encoded;  // new unique page
    gen.changed.emplace_back(pfn, key);
  }
  Nanos crypto_cost = extend_attestation(gen, fold.pages_digest);
  crypto_cost += (costs_->crypto_seal_per_page + costs_->crypto_mac_per_record) *
                 (pages_.stats().pages_sealed - sealed_before);
  last_seal_cost_ = crypto_cost;
  chain_.append(std::move(gen));
  maybe_inject_tamper();
  return costs_->store_encode_per_page * encoded + crypto_cost;
}

Nanos CheckpointStore::collect() {
  std::size_t processed = 0;
  std::size_t dropped = 0;
  const std::size_t budget = config_.gc_generations_per_epoch == 0
                                 ? chain_.size()
                                 : config_.gc_generations_per_epoch;
  const std::uint64_t newest_epoch = chain_.newest().epoch;
  for (std::size_t i = 0; i + 1 < chain_.size() && dropped < budget;) {
    const Generation& gen = chain_.at(i);
    if (gen.pinned ||
        config_.retention.retains(gen.epoch, newest_epoch)) {
      ++i;
      continue;
    }
    processed += chain_.drop(i, pages_);
    ++dropped;  // the successor slid into slot i; re-examine it
  }
  generations_dropped_ += dropped;
  entries_merged_ += processed;
  const Nanos cost = costs_->store_gc_per_page * processed;
  gc_pauses_.record(static_cast<std::uint64_t>(cost.count()));
  return cost;
}

void CheckpointStore::note_audit_failure() {
  if (!config_.retention.pin_on_audit_failure || chain_.empty()) return;
  chain_.pin(chain_.size() - 1);
  CRIMES_LOG(Info, "store") << "audit failure: pinned clean generation "
                            << chain_.newest().epoch;
}

void CheckpointStore::pin(std::uint64_t epoch) {
  const std::size_t index = chain_.index_of(epoch);
  if (index == GenerationChain::npos) {
    throw std::invalid_argument("CheckpointStore::pin: unknown generation");
  }
  chain_.pin(index);
}

CheckpointStore::Restored CheckpointStore::materialize(
    std::uint64_t epoch, ForeignMapping& dst) const {
  const std::size_t index = chain_.index_of(epoch);
  if (index == GenerationChain::npos) {
    throw std::invalid_argument(
        "CheckpointStore::materialize: generation not retained");
  }
  verify_generation_link(index);
  Restored out;
  out.vcpu = chain_.at(index).vcpu;
  std::size_t unsealed = 0;
  for (std::size_t i = 0; i < image_pages_; ++i) {
    const Pfn pfn{i};
    const std::uint64_t digest = chain_.digest_at(index, pfn);
    if (digest == kZeroDigest) {
      // Zero at this generation: only scrub frames that exist -- writing
      // would materialize backing for a page the generation never had.
      if (dst.is_backed(pfn)) {
        dst.page(pfn).zero();
        ++out.pages_written;
      }
      continue;
    }
    pages_.materialize(digest, dst.page(pfn));
    ++out.pages_written;
    ++unsealed;
  }
  out.cost = costs_->store_materialize_per_page * out.pages_written;
  if (pages_.sealed()) out.cost += costs_->crypto_unseal_per_page * unsealed;
  if (config_.crypto.attest) out.cost += costs_->crypto_root_verify;
  return out;
}

CheckpointStore::Restored CheckpointStore::rewind(std::uint64_t epoch,
                                                  ForeignMapping& dst) const {
  const std::size_t index = chain_.index_of(epoch);
  if (index == GenerationChain::npos) {
    throw std::invalid_argument(
        "CheckpointStore::rewind: generation not retained");
  }
  verify_generation_link(index);
  Restored out;
  out.vcpu = chain_.at(index).vcpu;
  std::size_t unsealed = 0;
  for (const auto& [pfn, digest] : chain_.diff(chain_.size() - 1, index)) {
    if (digest == kZeroDigest && !dst.is_backed(pfn)) continue;
    pages_.materialize(digest, dst.page(pfn));
    ++out.pages_written;
    if (digest != kZeroDigest) ++unsealed;
  }
  out.cost = costs_->store_materialize_per_page * out.pages_written;
  if (pages_.sealed()) out.cost += costs_->crypto_unseal_per_page * unsealed;
  if (config_.crypto.attest) out.cost += costs_->crypto_root_verify;
  return out;
}

Nanos CheckpointStore::truncate_to(std::uint64_t epoch) {
  const std::size_t index = chain_.index_of(epoch);
  if (index == GenerationChain::npos) {
    throw std::invalid_argument(
        "CheckpointStore::truncate_to: generation not retained");
  }
  const std::size_t released = chain_.truncate_after(index, pages_);
  return costs_->store_gc_per_page * released;
}

std::vector<std::uint64_t> CheckpointStore::retained_epochs() const {
  std::vector<std::uint64_t> out;
  out.reserve(chain_.size());
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    out.push_back(chain_.at(i).epoch);
  }
  return out;
}

Nanos CheckpointStore::extend_attestation(Generation& gen,
                                          std::uint64_t pages_digest) {
  if (!config_.crypto.attest) return Nanos{0};
  gen.attest_digest = pages_digest;
  gen.attest_prev_root = root();
  const std::uint64_t leaf = crypto::AttestationChain::leaf_hash(
      config_.crypto.tenant_key, frozen_leaf(gen));
  gen.attest_root = crypto::AttestationChain::chain_root(
      config_.crypto.tenant_key, gen.attest_prev_root, leaf);
  return costs_->crypto_leaf_extend;
}

void CheckpointStore::verify_generation_link(std::size_t index) const {
  if (!config_.crypto.attest) return;
  const Generation& gen = chain_.at(index);
  const std::uint64_t leaf = crypto::AttestationChain::leaf_hash(
      config_.crypto.tenant_key, frozen_leaf(gen));
  if (crypto::AttestationChain::chain_root(config_.crypto.tenant_key,
                                           gen.attest_prev_root,
                                           leaf) != gen.attest_root) {
    std::ostringstream msg;
    msg << "CheckpointStore: attestation link broken at epoch " << gen.epoch;
    throw crypto::TamperError(msg.str());
  }
}

void CheckpointStore::maybe_inject_tamper() {
  // The SEVurity-style adversary targets *sealed* state: without the
  // sealer armed the same corruption would be an undetectable store bug,
  // not an experiment, so the sites stay dormant.
  if (faults_ == nullptr || !pages_.sealed()) return;
  if (faults_->tampers_store()) {
    const std::uint64_t victim = faults_->tamper_victim();
    const TamperMode mode = ((victim >> 32) & 1) != 0 ? TamperMode::SwapEntries
                                                      : TamperMode::FlipByte;
    last_tamper_victim_ = pages_.tamper(victim, mode);
  }
  if (faults_->truncates_mac()) {
    last_tamper_victim_ =
        pages_.tamper(faults_->tamper_victim(), TamperMode::TruncateMac);
  }
}

CheckpointStore::SealAudit CheckpointStore::audit_seals() const {
  SealAudit out;
  out.bad_digests = pages_.verify_seals();
  out.cost = costs_->crypto_mac_per_record * pages_.entry_count();
  return out;
}

CheckpointStore::ChainAudit CheckpointStore::verify_chain() const {
  ChainAudit out;
  if (!config_.crypto.attest) return out;
  out.cost = costs_->crypto_root_verify * chain_.size();
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const Generation& gen = chain_.at(i);
    const std::uint64_t leaf = crypto::AttestationChain::leaf_hash(
        config_.crypto.tenant_key, frozen_leaf(gen));
    if (crypto::AttestationChain::chain_root(config_.crypto.tenant_key,
                                             gen.attest_prev_root,
                                             leaf) != gen.attest_root) {
      out.ok = false;
      out.bad_index = i;
      out.reason =
          "link fails to recompute at epoch " + std::to_string(gen.epoch);
      return out;
    }
    // Adjacency applies only where GC has not opened an epoch gap; a
    // dropped predecessor leaves the local link as the only obligation.
    if (i > 0) {
      const Generation& prev = chain_.at(i - 1);
      if (gen.epoch == prev.epoch + 1 &&
          gen.attest_prev_root != prev.attest_root) {
        out.ok = false;
        out.bad_index = i;
        out.reason =
            "adjacent roots do not join at epoch " + std::to_string(gen.epoch);
        return out;
      }
    }
  }
  return out;
}

StoreStats CheckpointStore::stats() const {
  StoreStats out;
  out.generations = chain_.size();
  out.pages_unique = pages_.stats().pages_unique;
  out.bytes_logical = static_cast<std::uint64_t>(chain_.size()) *
                      image_pages_ * kPageSize;
  out.bytes_physical = pages_.stats().bytes_physical;
  out.generations_dropped = generations_dropped_;
  out.entries_merged = entries_merged_;
  out.pages_sealed = pages_.stats().pages_sealed;
  out.seal_failures = pages_.stats().seal_failures;
  if (!chain_.empty()) {
    const std::uint64_t newest_epoch = chain_.newest().epoch;
    for (std::size_t i = 0; i + 1 < chain_.size(); ++i) {
      const Generation& gen = chain_.at(i);
      if (!gen.pinned && !config_.retention.retains(gen.epoch, newest_epoch)) {
        ++out.gc_backlog;
      }
    }
  }
  return out;
}

}  // namespace crimes::store
