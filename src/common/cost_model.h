// Virtual-time cost model for the CRIMES simulator.
//
// Every constant below is calibrated against a measurement the paper
// reports; the calibration source is cited next to each field. Components
// compute durations with these constants and charge them to the SimClock.
// The *shape* results (who wins, crossovers, breakdown proportions) emerge
// from the mechanisms; only the per-unit costs are taken from the paper.
//
// Key calibration anchors:
//  * Table 1  (no-opt pause breakdown, 20 ms epoch, web workloads):
//      suspend ~1 ms, vmi 0.34 ms, bitscan ~2-2.8 ms, map 1.6-2.6 ms,
//      copy 12.6-20 ms, resume 1.5-2 ms, with ~1.3k-2k dirty pages.
//  * Figure 4 (swaptions, 200 ms epoch): no-opt pause 29.86 ms of which
//      copy is ~71%; full-opt bitscan 2.7 ms -> 0.14 ms; full-opt copy is
//      ~5% of pause time.
//  * Table 3  (LibVMI): init ~66-67 ms, preprocessing ~54 ms, per-scan
//      analysis 1.4-1.8 ms.
//  * Section 5.3: Volatility init ~2.5 s, process scan ~0.5 s.
//  * Section 5.5: memory dump ~5 s; writing full-system checkpoints to
//      disk "100+ sec"; canary validation ~90,000 canaries/ms.
//  * Section 5.6: malware blacklist audit ~0.3 us on top of the walk.
#pragma once

#include "common/sim_clock.h"

#include <cstddef>
#include <cstdint>
#include <span>

namespace crimes {

struct CostModel {
  // --- Suspend / resume (Table 1: ~1 ms / ~1.5 ms, mildly load dependent).
  Nanos suspend_base = micros(900);
  Nanos suspend_per_dirty_page = nanos(150);
  Nanos resume_base = micros(1400);
  Nanos resume_per_dirty_page = nanos(100);

  // --- Dirty bitmap scan (Figure 6b; Table 1 bitscan ~2.6 ms for a 1 GiB
  // guest scanned bit-by-bit; Figure 4: 2.7 ms -> 0.14 ms word-wise).
  Nanos bitscan_per_bit = nanos(10);       // unoptimized: test every bit
  Nanos bitscan_per_word = nanos(25);      // optimized: one load per word
  Nanos bitscan_per_set_bit = nanos(5);    // optimized: extract dirty bits
  // SIMD fast path: one 256-bit vector compare covers four words, so a
  // clean block is skipped after a single load+test; the per-word charge
  // drops to ~a third of the scalar load. Dirty words still decompose at
  // bitscan_per_set_bit.
  Nanos bitscan_simd_per_word = nanos(8);

  // --- Page mapping (Table 1: map 1.6-2.6 ms for 1.3k-2k dirty pages ->
  // ~1.3 us per page; dominated by the map_foreign_range hypercall and
  // page-table updates).
  Nanos map_per_page = nanos(1300);
  // With Optimization 2, the full PFN->MFN map is built once at startup...
  Nanos premap_startup_per_page = nanos(1300);
  // ...and each epoch pays only a fixed bookkeeping cost.
  Nanos premap_per_epoch = micros(50);

  // --- Copy (Table 1: ~10 us/page through the Remus socket path, which
  // includes the ssh stream cipher at ~400 MB/s plus writev syscalls;
  // Figure 4: full-opt copy is ~5% of a ~10 ms pause for ~2.1k pages ->
  // ~0.27 us/page, i.e. plain memcpy at ~15 GB/s).
  Nanos copy_socket_per_page = nanos(10000);
  Nanos copy_memcpy_per_page = nanos(270);
  // Compressed-transport extension (Remus page compression): CPU to XOR +
  // RLE one page, plus wire time per byte actually sent. An
  // incompressible page costs ~1.5 us + 4096 * 2.1 ns ~= 10 us -- the
  // plain socket cost; sparse deltas cost proportionally less.
  Nanos copy_compress_per_page = nanos(1500);
  Nanos copy_wire_per_byte = nanos(2);  // ~2.1 ns; stored integral
  // The replication link's scatter-gather prices: its records reference
  // the backup's pages via iovecs instead of passing through Remus's
  // staged pipe, so socket records drop ~3 us of buffer assembly and
  // compressed records the ~0.3 us delta-staging share of their CPU cost.
  // The Replicator charges these; the Checkpointer's socket path keeps
  // copy_socket_per_page / copy_compress_per_page.
  Nanos copy_socket_gather_per_page = nanos(7000);
  Nanos copy_compress_gather_per_page = nanos(1200);

  // --- VMI (Table 3).
  Nanos vmi_init = micros(66500);          // one-time LibVMI initialization
  Nanos vmi_preprocess = micros(54000);    // one-time translation caches
  Nanos vmi_translate = nanos(2000);       // per guest-VA translation
  // Per vmi_read_* call: LibVMI's access-layer overhead (mapping lookup,
  // bounds checks). Calibrated so a ~48-process list walk costs ~1.4 ms
  // (Table 3 "Memory Analysis").
  Nanos vmi_read_base = micros(3);
  // Reads through a page the session already has mapped (the canary
  // scanner bulk-maps the table and validates in place -- section 5.5's
  // ~90k canaries/ms path).
  Nanos vmi_read_fast = nanos(40);
  Nanos vmi_noop_scan = micros(340);       // Table 1 "vmi" column (no-op audit)

  // --- Detector modules.
  Nanos canary_check_each = nanos(11);     // ~90k canaries/ms (section 5.5)
  Nanos blacklist_lookup = nanos(300);     // ~0.3 us (section 5.6)

  // --- Volatility-style forensics (sections 5.3, 5.5, 5.6).
  Nanos volatility_init = millis(2500);
  Nanos volatility_process_scan = millis(500);
  Nanos volatility_dump_map = millis(5000);
  Nanos volatility_plugin_base = millis(120);

  // --- Rollback / replay (section 5.5: replay resumes within ~29 ms of
  // the attack, i.e. a few ms after the audit fails).
  Nanos rollback_prepare_base = micros(1500);
  Nanos rollback_per_dirty_page = nanos(300);
  // Replayed execution runs with memory-event monitoring enabled, which
  // Xen makes expensive (section 4.2: "event monitoring with Xen is
  // expensive"); we charge a multiplier over normal execution.
  double replay_slowdown = 8.0;
  Nanos replay_per_op = nanos(500);        // re-executing one recorded write
  Nanos mem_event_deliver = micros(4);     // per trapped access during replay

  // --- Remote backup extension (section 4.1): per-epoch commit
  // acknowledgement round trip to the remote Restore host.
  Nanos remote_ack_rtt = micros(200);

  // --- Parallel checkpoint engine (post-paper extension). A phase forked
  // across the worker pool finishes when its slowest shard does, so its
  // virtual-time charge is max(per-shard cost) + fork/join overhead. The
  // overhead covers dispatching tasks to already-running workers plus the
  // join barrier -- no thread spawn is ever on the suspended-window path.
  Nanos thread_fork_join = micros(15);

  // --- Disk persistence of checkpoints (section 5.5: "tens of seconds for
  // large VMs", "100+ sec" for several full snapshots -> ~30 MB/s).
  Nanos disk_write_per_page = micros(130);

  // --- Resilience layer (fault-injection extension, DESIGN.md section 9).
  // Verifying the backup after a copy: one digest sweep of a 4 KiB page
  // (~20 GB/s), paid twice per dirty page (primary + backup side). Like
  // every constant here it prices the modeled host's sweep, not this
  // repo's code (the word-wise hash128 in common/hash.h), so making the
  // code faster leaves every virtual result unchanged.
  Nanos checksum_per_page = nanos(180);
  // Exponential backoff before checkpoint copy retry k: base << k. The
  // base approximates re-arming the Remus transport after an aborted
  // stream (teardown + reconnect).
  Nanos retry_backoff_base = micros(100);
  // Re-issuing the log-dirty read hypercall after an EIO.
  Nanos bitmap_reread = micros(30);
  // pthread_create + warmup for a replacement pool worker.
  Nanos worker_respawn = micros(250);

  // --- Checkpoint store (multi-generation snapshot history, DESIGN.md
  // section 10). All store work runs after resume -- off the
  // pause-critical path -- but is still charged to the clock.
  // Digesting one 4 KiB page: the same hash128 sweep the resilience
  // layer's backup verification pays (checksum_per_page).
  Nanos store_hash_per_page = nanos(180);
  // Interning one *new* page: XOR against the previous version, size both
  // RLE candidates, encode the smaller (roughly the compressed transport's
  // per-page CPU, minus the wire side).
  Nanos store_encode_per_page = nanos(900);
  // Restoring one page from the store: decode (raw, or base + delta) plus
  // the copy into the target frame.
  Nanos store_materialize_per_page = nanos(600);
  // GC bookkeeping per manifest entry merged or released during a
  // generation drop (sorted-merge step + refcount update).
  Nanos store_gc_per_page = nanos(120);

  // --- Standby replication & failover (DESIGN.md section 11). The
  // replication link moves pages at the gather prices above
  // (copy_socket_gather_per_page / copy_compress_gather_per_page, plus
  // copy_wire_per_byte when compressed); the constants below cover what
  // the link adds on top.
  // One-way propagation to the standby host (LAN hop; acks pay it again
  // on the way back, so a generation's ack lags its send by transfer +
  // 2 x this).
  Nanos replication_one_way = micros(100);
  // Fixed per-generation framing on the stream (manifest header, ack
  // bookkeeping on both ends).
  Nanos replication_frame = micros(20);
  // Applying one received page into the standby image (decode + memcpy on
  // the standby's core; also paid when promotion rolls a page back from
  // its undo entry).
  Nanos replication_apply_per_page = nanos(400);
  // Standby-side failure detector: evaluating phi once, and the fixed
  // promotion work (fencing-epoch bump, unpause, device reattach).
  Nanos heartbeat_eval = micros(2);
  Nanos promote_base = millis(3);
  // Lease renewal round trip to the lease authority (piggybacks on the
  // replication link: one-way out + one-way back plus arbiter work).
  Nanos lease_renew_rtt = micros(220);

  // --- Durable store journal (DESIGN.md section 11): sequential appends
  // to a dedicated log device (~160 MB/s -> ~25 us per 4 KiB), a fixed
  // per-record overhead, and per-record verification/replay costs.
  Nanos journal_append_base = micros(5);
  Nanos journal_write_per_page = micros(25);  // per 4 KiB of record payload
  Nanos journal_scan_per_record = micros(2);  // fsck/recovery record walk

  // --- Speculative copy-on-write checkpointing (DESIGN.md section 12).
  // Write-protecting the dirty set before resume: one batched EPT
  // permission flip per 512-entry leaf block plus a TLB shootdown, in the
  // style of Xen's SHADOW_OP_CLEAN bulk clear -- so the per-page share is
  // tiny and the fixed hypercall/shootdown cost dominates.
  Nanos cow_protect_base = micros(80);
  Nanos cow_protect_per_page = nanos(15);
  // A guest first-touch of a still-pending page: VM exit, synchronous
  // handler copies the old bytes aside, unprotect, re-enter. Off the
  // pause path but charged to the drain timeline.
  Nanos cow_first_touch_per_page = micros(3);
  // Folding the per-page digest into the copy loop (copy_and_hash): the
  // bytes are already in registers from the copy, so fusing costs a third
  // of the standalone checksum_per_page sweep.
  Nanos cow_fused_hash_per_page = nanos(60);

  // --- Observability layer (DESIGN.md section 13). The flight recorder
  // and time-series engine are always-on, so their work is charged into
  // the pause window like any other pipeline step -- the
  // ablation_telemetry_overhead bench proves the total stays under 1% of
  // p95 pause at parsec dirty rates.
  // One flight-recorder slot write: a ticket fetch_add plus ~128 bytes of
  // stores into a cache-resident slot.
  Nanos flight_record_event = nanos(40);
  // Per-epoch time-series sample: registry snapshot bookkeeping...
  Nanos telemetry_sample_base = micros(2);
  // ...plus per-metric ring append / EWMA / fold work.
  Nanos telemetry_sample_per_metric = nanos(80);
  // One SLO evaluation: four budget compares, window ring updates, state
  // machine step.
  Nanos slo_eval = nanos(200);
  // Freezing a postmortem: walk the ring + series tails and serialize.
  // Off the pause path (dumps happen on abnormal exits, between epochs).
  Nanos postmortem_dump = micros(500);

  [[nodiscard]] Nanos telemetry_sample_cost(std::size_t metrics) const {
    return telemetry_sample_base + telemetry_sample_per_metric * metrics;
  }

  // --- Control plane (DESIGN.md section 14). Charged into the pause
  // window via PhaseCosts::control; the ablation_control_plane bench
  // proves the enabled-but-pinned overhead stays under 1% of mean pause.
  // Recording one epoch's sensor readings into the input ring.
  Nanos control_observe = nanos(60);
  // Running one control cycle: windowed percentile lookups plus the four
  // policy evaluations.
  Nanos control_cycle = micros(1);
  // Applying one decision: actuator store, flight-recorder slot, gauges.
  Nanos control_apply = nanos(300);

  // --- Sealed & attested chains (DESIGN.md section 15). Sealing rides
  // the store's encode loop (the bytes are already in cache), and all
  // store work runs after resume, so these charges lengthen the epoch,
  // not the pause -- ablation_tamper_sweep proves the added mean pause
  // stays under 10% at parsec dirty rates.
  // XOR-keystream pass over one 4 KiB payload fused into the encode
  // copy (half the standalone checksum sweep: one mix64 per word, bytes
  // already resident).
  Nanos crypto_seal_per_page = nanos(90);
  // Keyed MAC word fold over one sealed record (tag derivation + length
  // finalization on top of the sweep already fused above).
  Nanos crypto_mac_per_record = nanos(40);
  // Materialize-side verification: MAC recompute plus the unseal XOR
  // pass over one payload.
  Nanos crypto_unseal_per_page = nanos(130);
  // Folding one committed generation into the attestation chain: leaf
  // hash (four mix64 rounds) plus the root extension.
  Nanos crypto_leaf_extend = nanos(25);
  // Verifying one chain link at a trust boundary (journal fsck/replay,
  // standby apply, rollback): leaf recompute + root compare. The page
  // digest recompute underneath is priced at store_hash_per_page.
  Nanos crypto_root_verify = nanos(60);

  // --- AddressSanitizer baseline: cost per instrumented memory access.
  // Calibrated so PARSEC access profiles yield the 1.4-2.6x range of
  // Figure 3 ("AS" bars).
  Nanos asan_per_access = nanos(2);

  // --- Network wire latency for the web-server experiments. Calibrated so
  // the unprotected baseline reproduces section 5.4's 2.83 ms request
  // latency (2 x wire + service time); the paper's figure includes server
  // queueing at saturation, which this constant folds in.
  Nanos net_wire_latency = micros(1350);

  // Derived helpers -------------------------------------------------------

  [[nodiscard]] Nanos suspend_cost(std::size_t dirty_pages) const {
    return suspend_base + suspend_per_dirty_page * dirty_pages;
  }
  [[nodiscard]] Nanos resume_cost(std::size_t dirty_pages) const {
    return resume_base + resume_per_dirty_page * dirty_pages;
  }
  [[nodiscard]] Nanos bitscan_naive_cost(std::size_t total_bits) const {
    return bitscan_per_bit * total_bits;
  }
  [[nodiscard]] Nanos bitscan_chunked_cost(std::size_t total_words,
                                           std::size_t set_bits) const {
    return bitscan_per_word * total_words + bitscan_per_set_bit * set_bits;
  }
  [[nodiscard]] Nanos bitscan_simd_cost(std::size_t total_words,
                                        std::size_t set_bits) const {
    return bitscan_simd_per_word * total_words +
           bitscan_per_set_bit * set_bits;
  }
  [[nodiscard]] Nanos cow_protect_cost(std::size_t dirty_pages) const {
    return cow_protect_base + cow_protect_per_page * dirty_pages;
  }

  // Join rule for any forked phase: the slowest shard plus the fork/join
  // overhead. Zero shards means the phase did not run at all.
  [[nodiscard]] Nanos parallel_cost(std::span<const Nanos> shard_costs) const;

  // Forked phase over `items` uniform-cost items split evenly across
  // `workers` shards (the ThreadPool::shard_bounds partition).
  [[nodiscard]] Nanos parallel_shard_cost(Nanos per_item, std::size_t items,
                                          std::size_t workers) const;

  // Parallel word-wise bitmap scan: shard i covers an even slice of the
  // word array and decomposed shard_set_bits[i] dirty bits.
  [[nodiscard]] Nanos bitscan_parallel_cost(
      std::size_t total_words,
      std::span<const std::size_t> shard_set_bits) const;

  [[nodiscard]] static const CostModel& defaults();
};

}  // namespace crimes
