// Sharded streaming ingest front-end — the online counterpart of the
// batch vectorizer (§3.2), fed record-by-record instead of file-at-once.
//
// Producers call offer()/offer_batch() from any thread; records route to
// per-shard lock-striped pending queues by tower id (a tower's window
// lives in exactly one shard, so window application never takes a
// cross-shard lock). drain() moves pending records into the per-tower
// TowerWindow accumulators on the shared mapred::ThreadPool, using
// try_submit so a saturated pool degrades to inline draining (caller-runs
// backpressure) instead of growing queues without bound. A full shard
// queue drops the record and says so — explicit drop accounting, never
// silent loss or unbounded memory.
//
// Determinism: within a shard, records apply in arrival order; across
// shards, windows are disjoint and bin updates are exact integer sums, so
// the final per-tower grids are bit-identical for any shard count and any
// arrival-order perturbation of the same record set (the stream-vs-batch
// equivalence contract, DESIGN.md §9; verified by ctest -L stream).
//
// Event-time progress: every shard tracks its own high watermark (largest
// end_minute routed to it); the shard low-watermark trails it by the
// configured lateness bound, and both only ever advance. Each offer also
// feeds an event-time lag histogram (how far behind the global watermark
// a record's start is), each drain a processing-latency histogram
// (offer() to window application, stamped per offer batch), and each
// classify pass an end-to-end latency observation (oldest applied-but-
// unclassified offer to classification) — the live signals the /stream
// introspection endpoint and the watermark sentinels read.
//
// Metrics: cellscope.stream.{records_offered, records_accepted,
// records_dropped, records_late, records_stale, drain_batches} counters,
// cellscope.stream.pending_records gauge, cellscope.stream.drain_ms,
// cellscope.stream.event_lag_minutes, cellscope.stream.record_apply_ms,
// and cellscope.stream.record_e2e_ms histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "city/tower.h"
#include "mapred/thread_pool.h"
#include "stream/tower_window.h"
#include "traffic/columnar.h"
#include "traffic/trace_record.h"

namespace cellscope {

namespace obs {
class Counter;
class Gauge;
class Histogram;
class HistogramBatch;
}  // namespace obs

/// Ingest configuration. from_env() reads the operational knobs.
struct StreamConfig {
  /// Number of lock stripes / window partitions (>= 1).
  std::size_t n_shards = 4;
  /// Per-shard pending-queue capacity; offers beyond it are dropped and
  /// counted. 0 means unbounded (replay/test convenience).
  std::size_t queue_capacity = 65536;
  /// A record whose start_minute trails the watermark (largest end_minute
  /// seen) by more than this is counted late. Late records still apply —
  /// the ring keeps four weeks — the counter feeds the lateness sentinel.
  std::uint32_t max_lateness_minutes = 120;

  /// Largest values from_env() accepts: each shard owns its windows and
  /// a pending queue, so both knobs size memory.
  static constexpr std::size_t kMaxShards = 1024;
  static constexpr std::size_t kMaxQueue = std::size_t{1} << 24;

  /// Reads CELLSCOPE_STREAM_SHARDS (1..kMaxShards) and
  /// CELLSCOPE_STREAM_QUEUE (1..kMaxQueue) over the defaults above.
  static StreamConfig from_env();
};

/// Outcome of offering one record.
enum class OfferResult {
  kAccepted,  ///< queued for the next drain
  kDropped,   ///< shard queue full — dropped and counted
};

/// Lifetime ingest counters (monotone; survive checkpoint/restore).
struct IngestStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;  ///< rejected by a full shard queue
  std::uint64_t late = 0;     ///< accepted but behind the lateness bound
  std::uint64_t stale = 0;    ///< applied-but-rejected by the ring (too old)
  std::uint64_t watermark_minute = 0;  ///< largest end_minute seen
  /// Event-time low watermark: the global watermark minus the lateness
  /// bound, clamped at 0 — exactly the lateness frontier account_arrival
  /// measures against, so a record whose start trails it is counted late.
  /// Monotone non-decreasing because the watermark is.
  std::uint64_t low_watermark_minute = 0;
};

/// O(1) summary of one tower's window — the /towers/:id/window endpoint
/// body. Read under the shard lock but without copying the grid.
struct TowerWindowStats {
  std::size_t observed_slots = 0;
  std::uint64_t total_bytes = 0;
  double mean = 0.0;
  double variance = 0.0;
  std::uint64_t latest_minute = 0;
  std::uint32_t latest_cycle = 0;
};

/// One shard's live view, for /stream and tests.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t queue_depth = 0;   ///< records pending drain
  std::size_t towers = 0;        ///< windows resident in this shard
  std::uint64_t dropped = 0;     ///< offers rejected by this shard's queue
  std::uint64_t watermark_minute = 0;      ///< shard event-time high watermark
  std::uint64_t low_watermark_minute = 0;  ///< watermark - lateness, >= 0
  /// Age (ms of processing time) of the oldest record applied to a
  /// window but not yet covered by a classify pass; 0 when none.
  double unclassified_age_ms = 0.0;
};

/// Sharded, lock-striped streaming ingestor over per-tower windows.
class StreamIngestor {
 public:
  explicit StreamIngestor(StreamConfig config = {});
  ~StreamIngestor();

  /// Pre-creates an empty window per tower so silent towers still appear
  /// in folded_vectors()/classify_all() (as cold-start rows).
  void register_towers(const std::vector<Tower>& towers);

  /// Routes one record to its shard queue. Thread-safe.
  OfferResult offer(const TrafficLog& log);

  /// Routes a batch, grouping by shard first so each stripe is locked
  /// once per call instead of once per record. Returns how many records
  /// were accepted. Thread-safe.
  std::size_t offer_batch(std::span<const TrafficLog> logs);

  /// Fused bulk ingest for the columnar replay path: applies one decoded
  /// chunk straight to the tower windows — no Pending copies, no queue,
  /// no separate drain. Equivalent to offering the records in column
  /// order and immediately draining: watermark, lateness, lag, stale,
  /// and apply-latency accounting all match that sequence exactly (the
  /// lag/late of record i is measured against the watermark as records
  /// 0..i-1 left it). Because no queue is involved it never drops, so it
  /// matches the offer path's counters whenever that path did not drop
  /// (queue_capacity 0, or drains keeping up). Per-record trace sampling
  /// is skipped — the bulk path never materializes user ids. Returns the
  /// number of records applied. Thread-safe.
  std::size_t ingest_columns(const DecodedColumns& cols);

  /// Drains every shard's pending queue into its windows, one pool task
  /// per shard via try_submit (rejected shards drain inline on the
  /// caller — backpressure). Blocks until every queued record at entry
  /// has been applied. Thread-safe; concurrent drains serialize per
  /// shard.
  void drain(ThreadPool& pool);

  /// Records queued but not yet applied, summed over shards.
  std::size_t pending() const;

  IngestStats stats() const;

  /// Per-shard live view, ascending by shard index.
  std::vector<ShardStats> shard_stats() const;

  /// The /stream endpoint body: one JSON object with the global totals
  /// (stats() plus pending) and a "shards" array of shard_stats().
  std::string status_json() const;

  /// Marks a classification pass over the current windows: the oldest
  /// applied-but-unclassified offer per shard resolves into one
  /// end-to-end latency observation (cellscope.stream.record_e2e_ms),
  /// and pending sampled records emit their record.classify spans.
  /// Called by OnlineClassifier::classify_all after each pass.
  void note_classify_pass() const;

  const StreamConfig& config() const { return config_; }

  /// Tower ids with a window, ascending.
  std::vector<std::uint32_t> tower_ids() const;

  /// Copy of one tower's window (under its shard lock); throws
  /// InvalidArgument when the tower has none.
  TowerWindow window_copy(std::uint32_t tower_id) const;

  /// O(1) stats of one tower's window, read under its shard lock without
  /// copying the 4032-slot grid — the serving plane's cheap read path.
  /// Throws InvalidArgument when the tower has none.
  TowerWindowStats window_stats(std::uint32_t tower_id) const;

  /// (tower id, folded z-scored mean week) for every window, ascending by
  /// id — the streaming equivalent of the batch
  /// fold_to_week(zscore_rows(vectorize_logs(...))) chain, bit-identical
  /// on the same records. Rows are independent; a pool parallelizes them.
  std::vector<std::pair<std::uint32_t, std::vector<double>>> folded_vectors(
      ThreadPool* pool = nullptr) const;

  /// Checkpointing access (stream/snapshot.h): full window states in
  /// ascending tower-id order, and their wholesale restoration. Restoring
  /// re-routes windows by id, so the restored ingestor may use a
  /// different shard count than the one that wrote the checkpoint.
  std::vector<std::pair<std::uint32_t, TowerWindow::State>> export_windows()
      const;
  void import_window(std::uint32_t tower_id, const TowerWindow::State& state);
  void restore_stats(const IngestStats& stats);

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

 private:
  /// A queued record plus its offer() wall stamp (process-relative µs,
  /// obs::now_us) — the start of its apply/e2e latency measurements.
  /// offer_batch stamps once per call, so records of one batch share it.
  struct Pending {
    TrafficLog log;
    double offered_us = 0.0;
  };

  struct Shard {
    mutable std::mutex queue_mutex;      // guards pending
    std::vector<Pending> pending;
    mutable std::mutex window_mutex;     // guards windows + application
    std::vector<std::pair<std::uint32_t, TowerWindow>> windows;  // sorted
    /// Largest end_minute routed to this shard (CAS-max).
    std::atomic<std::uint64_t> watermark_minute{0};
    /// Offers this shard's full queue rejected.
    std::atomic<std::uint64_t> dropped{0};
    /// Offer stamp (integer µs, >= 1) of the oldest record applied to a
    /// window but not yet covered by a classify pass; 0 = none. CAS-min
    /// at drain, exchanged to 0 by note_classify_pass.
    std::atomic<std::uint64_t> oldest_unclassified_us{0};
    /// Sampled records applied but awaiting their classify span:
    /// (tower id, applied_us). Guarded by window_mutex; bounded.
    mutable std::vector<std::pair<std::uint32_t, double>> sampled_awaiting;
    /// Open-address tower-id -> windows-position index for the bulk
    /// ingest path ((tower, pos) slots, pos == UINT32_MAX empty); lazily
    /// rebuilt whenever the window set changed. Guarded by window_mutex.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> window_index;
    /// windows.size() the index was built for (0 = never built).
    std::size_t window_index_size = 0;
  };

  Shard& shard_of(std::uint32_t tower_id) const {
    return *shards_[tower_id % shards_.size()];
  }
  /// The tower's window within `shard`, created on first use. Caller
  /// holds shard.window_mutex.
  TowerWindow& window_in(Shard& shard, std::uint32_t tower_id);
  /// Creates the windows of the (sorted, distinct, all-absent) `towers`
  /// in one append + inplace_merge + single index rebuild — the bulk
  /// path's cold-start move. A per-record window_in would middle-insert
  /// into the sorted windows vector and invalidate the index on every new
  /// tower: quadratic on a fresh ingestor at city scale. Caller holds
  /// shard.window_mutex and guarantees none of `towers` exist yet.
  void create_windows(Shard& shard, const std::vector<std::uint32_t>& towers);
  /// O(1) expected windows-position lookup through the shard's
  /// window_index; UINT32_MAX when the tower has no window yet. Caller
  /// holds shard.window_mutex and the index is fresh.
  std::uint32_t window_position(const Shard& shard,
                                std::uint32_t tower_id) const;
  void rebuild_window_index(Shard& shard);
  void drain_shard(Shard& shard);
  /// Watermark/lateness/lag accounting shared by the offer paths:
  /// advances the global and shard watermarks, counts lateness, and
  /// buckets the record's event-time lag (pre-update watermark minus
  /// start) into `lag`. Returns true when the record is late.
  bool account_arrival(const TrafficLog& log, Shard& shard,
                       obs::HistogramBatch& lag);

  StreamConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> watermark_minute_{0};
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> late_{0};
  std::atomic<std::uint64_t> stale_{0};

  // Process-global metrics (registered once, hot-path cached).
  obs::Counter* metric_offered_;
  obs::Counter* metric_accepted_;
  obs::Counter* metric_dropped_;
  obs::Counter* metric_late_;
  obs::Counter* metric_stale_;
  obs::Counter* metric_drains_;
  obs::Gauge* metric_pending_;
  obs::Histogram* metric_drain_ms_;
  obs::Histogram* metric_event_lag_;  // pow2 minute buckets
  obs::Histogram* metric_apply_ms_;
  obs::Histogram* metric_e2e_ms_;
};

}  // namespace cellscope
