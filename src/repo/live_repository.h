#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/fsio.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/compressor.h"
#include "core/shard_view.h"
#include "obs/metrics.h"
#include "repo/repository_snapshot.h"
#include "repo/shard_map.h"
#include "repo/wal.h"

/// \file live_repository.h
/// The streaming, ingest-while-serving repository: the paper's quantizer
/// is explicitly incremental, and this is where the pipeline stops being
/// phased (ingest -> Finish -> SealAll -> serve) and starts absorbing a
/// live stream while every point stays queryable.
///
/// Each shard runs a DOUBLE-BUFFERED compressor:
///
///   - The ACTIVE segment is the shard's single-threaded core::Compressor
///     absorbing flushed ticks, plus a staging slice accumulating the
///     current tick (so any number of producer threads can Append
///     same-tick batches concurrently; the slice is sorted by id and
///     handed to the compressor when the stream advances past the tick).
///   - When the active segment crosses a WATERMARK — it spans
///     Options::watermark_ticks ticks or holds watermark_points points —
///     the shard flips to SEALING: a background task on the shared pool
///     cuts the segment with Compressor::Seal() while appends divert to a
///     pending queue (Seal is not thread-safe against ObserveSlice; the
///     diversion is what makes the cut race-free). When the seal lands,
///     the pending queue drains into the compressor and the shard is
///     ACTIVE again. Ingest never blocks on sealing.
///
/// Every shard atomically publishes a core::ShardView — the last sealed
/// snapshot (covering ticks <= sealed_through), the raw queryable TAIL
/// (every appended point with tick > sealed_through, held as an immutable
/// chunk chain so Append is O(1) publish), and the seal generation as its
/// seal_epoch (+1 per completed background seal). The repository is a
/// core::ShardViewSource, so core::QueryService serves it directly. A
/// point is queryable from the moment Append returns: first from the
/// tail, then, after at most one watermark roll, from the sealed summary
/// (each response reports the oldest seal generation it drew on via
/// QueryStats::seal_epoch).
///
/// Thread-safety contract: Append is safe from ANY number of producer
/// threads concurrently (per shard, per tick, batches merge; across
/// ticks, each shard requires non-decreasing batch ticks — a batch older
/// than a tick the shard has already flushed is rejected with a Status
/// error, other shards of the same batch still absorb theirs).
/// RollAll/Quiesce are coordination verbs for shutdown, compaction, and
/// deterministic tests. ShardView/SealedSnapshot are safe from any
/// thread, any time. Destruction waits for in-flight background seals.
///
/// DURABLE MODE (LiveRepository::Open / OpenLiveRepository): the
/// repository is backed by a directory. Every Append logs each shard
/// sub-batch to that shard's write-ahead log (wal.h) BEFORE publishing
/// the tail chunk, group-committed every Options::wal_sync_interval
/// records; each background seal fdatasyncs the WAL, persists the
/// shard's container atomically, and rotates the log. Reopening the
/// directory replays the retained log generations through the normal
/// append path — the compressor is cumulative and the encode is
/// deterministic, so the rebuilt shard state (and therefore exact-mode
/// answers) matches pre-crash ground truth for every record whose
/// covering sync returned. Durability failures (dying disk) never stall
/// ingest or serving: the error is sticky in DurabilityError() and also
/// surfaced by the failing Append.

namespace ppq::repo {

/// Sentinel for "no tick yet" (also the initial sealed_through: every
/// real tick is newer, so the whole stream starts in the tail).
inline constexpr Tick kNoTickYet = std::numeric_limits<Tick>::min();

/// The advisory single-opener lock file inside a durable repository
/// directory (a DEDICATED file: the manifest is rename-replaced on save,
/// which would orphan a flock held on it — see common::DirectoryLock).
inline constexpr char kRepositoryLockFileName[] = "LOCK";

/// \brief Hash-partitioned streaming repository: double-buffered per-shard
/// segments, watermark-triggered background seals, always-queryable tail.
class LiveRepository : public core::ShardViewSource {
 public:
  /// Builds one shard's compressor; same contract as ShardedRepository
  /// (identically configured, distinct instances).
  using CompressorFactory =
      std::function<std::unique_ptr<core::Compressor>(uint32_t shard)>;

  struct Options {
    /// Number of hash partitions (same routing as ShardedRepository).
    uint32_t num_shards = 4;
    /// Background workers sealing segments; 0 = hardware concurrency.
    /// At least one background thread is always kept so a seal can never
    /// run inline under an appender's shard lock.
    size_t num_threads = 0;
    /// Roll a shard's active segment once it spans this many ticks
    /// (0 disables the tick watermark). Watermarks are evaluated when a
    /// shard's stream advances to a new tick, so one tick's concurrent
    /// same-tick appenders never straddle a cut.
    Tick watermark_ticks = 32;
    /// ... or once it holds this many points (0 disables).
    size_t watermark_points = size_t{1} << 20;
    /// Durable mode: fdatasync a shard's WAL after this many appended
    /// records (group commit). 1 syncs every append (lowest loss bound,
    /// slowest ingest); 0 never syncs on append — only seals, SyncWal()
    /// and clean shutdown do. A crash can lose at most the records since
    /// the last completed sync.
    size_t wal_sync_interval = 32;
  };

  /// \throws std::invalid_argument when num_shards is 0 (or beyond
  /// kMaxShards) or the factory returns null for any shard.
  /// Memory-only: nothing is logged or persisted (use Open for that).
  LiveRepository(CompressorFactory factory, Options options);

  /// \brief Open-or-create a durable repository at \p dir: load the
  /// sealed RepositorySnapshot (if a manifest exists), replay every
  /// shard's retained WAL generations and active log — tolerating a torn
  /// final record and discarding tail records already covered by the
  /// reopened seal's frontier — and resume a fully queryable repository
  /// that keeps logging/persisting to \p dir. A fresh directory is
  /// initialised (empty containers + manifest + per-shard logs). The
  /// options must structurally match what wrote the directory: a shard
  /// count mismatch is an error, and \p factory must produce compressors
  /// configured like the originals (this is not validated — same
  /// contract as ShardedRepository).
  static Result<std::shared_ptr<LiveRepository>> Open(
      const std::string& dir, CompressorFactory factory, Options options);

  /// Waits for in-flight background seals (the internal pool drains
  /// before any shard state dies).
  ~LiveRepository() override;

  LiveRepository(const LiveRepository&) = delete;
  LiveRepository& operator=(const LiveRepository&) = delete;

  const ShardMap& shard_map() const { return map_; }
  uint32_t num_shards() const override { return map_.num_shards; }
  const Options& options() const { return options_; }

  /// \brief Absorb one batch of same-tick points, from any thread. The
  /// batch is split by owning shard; each sub-batch becomes queryable
  /// (via the shard's tail) before Append returns. Per shard, ticks must
  /// be non-decreasing across batches: a sub-batch at a tick the shard
  /// has already flushed past is dropped and reported in the returned
  /// Status (other shards still absorb theirs — the error is per-shard
  /// monotonicity, not batch atomicity). ids/positions size mismatches
  /// reject the whole batch.
  Status Append(const PointBatch& batch);

  /// \brief Force every shard to flush its staging tick and roll its
  /// active segment into a background seal (waiting out any seal already
  /// in flight first). Returns once every roll is SCHEDULED; pair with
  /// Quiesce() to wait for the seals to land. Deterministic-test and
  /// shutdown/compaction verb — steady-state streams roll on watermarks.
  void RollAll();

  /// Block until no background seal is in flight on any shard.
  void Quiesce();

  /// \brief Durable mode: fdatasync every shard's active WAL now. After
  /// this returns OK, every previously returned Append is crash-durable
  /// regardless of wal_sync_interval. No-op (OK) when memory-only.
  Status SyncWal();

  /// The first error the durability machinery recorded (WAL append/sync,
  /// seal-time container persist, log rotation) — sticky until process
  /// exit. Ingest and serving continue past durability errors (the
  /// in-memory tail stays correct), so operators must check this (or
  /// Append's return) to notice a dying disk. OK when healthy or
  /// memory-only.
  Status DurabilityError() const;

  /// The backing directory; empty when memory-only.
  const std::string& dir() const { return dir_; }

  /// The shard's current serving view (one atomic load; never null). A
  /// fresh shard's view holds its compressor's empty seal. Views are
  /// swapped wholesale on every append and every seal, so readers never
  /// observe a half-rolled shard.
  core::ShardViewPtr ShardView(size_t shard) const override;

  /// \brief Assemble the last sealed state of every shard into a phased
  /// RepositorySnapshot (persistable via RepositorySnapshot::Save). Tail
  /// points not yet sealed are NOT included — RollAll()+Quiesce() first
  /// for a full cut.
  RepositorySnapshotPtr SealedSnapshot() const;

  /// The oldest per-shard seal generation — the freshness floor every
  /// response served from this repository is stamped with.
  uint64_t MinSealEpoch() const;

  /// Total points accepted since construction (monotonic, approximate
  /// ordering only — concurrent appenders).
  size_t TotalPointsAppended() const {
    return points_appended_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    Mutex mu;
    /// Signalled when a background seal lands (sealing -> false).
    CondVar seal_done;

    /// The active segment's encoder. Null exactly while a seal is in
    /// flight: SealShard MOVES the encoder out under mu, cuts it
    /// unlocked (appends divert to `pending`), and moves it back under
    /// mu at publish time — the exclusivity is structural ownership the
    /// thread-safety analysis checks, not a protocol comment.
    std::unique_ptr<core::Compressor> compressor PPQ_GUARDED_BY(mu);
    bool sealing PPQ_GUARDED_BY(mu) = false;

    /// Staging slice for the tick currently being accumulated.
    TimeSlice staging PPQ_GUARDED_BY(mu);
    bool staging_active PPQ_GUARDED_BY(mu) = false;
    /// Newest tick flushed out of staging (into compressor or pending).
    Tick flushed PPQ_GUARDED_BY(mu) = kNoTickYet;
    /// Ticks diverted while a seal is in flight, in flush order.
    std::deque<TimeSlice> pending PPQ_GUARDED_BY(mu);

    /// Active-segment watermark accounting (reset when a roll triggers).
    Tick segment_first PPQ_GUARDED_BY(mu) = kNoTickYet;
    size_t segment_points PPQ_GUARDED_BY(mu) = 0;
    /// The cut recorded when the in-flight seal was triggered.
    Tick seal_cut PPQ_GUARDED_BY(mu) = kNoTickYet;

    /// Durable mode: the shard's active write-ahead log (null when
    /// memory-only) and its group-commit counter.
    std::unique_ptr<WriteAheadLog> wal PPQ_GUARDED_BY(mu);
    size_t wal_unsynced PPQ_GUARDED_BY(mu) = 0;
    /// The generation seq the active log retires to: seeded by recovery
    /// from the directory listing, 0 again at each new epoch.
    uint32_t wal_next_seq PPQ_GUARDED_BY(mu) = 0;
    /// Mirrors view->seal_epoch (plain field so Append can stamp WAL
    /// records without an atomic view load).
    uint64_t epoch PPQ_GUARDED_BY(mu) = 0;
    /// Recovery: ticks <= base_covered were answered by the reopened
    /// seal, so replay feeds them to the compressor but neither republishes
    /// them as tail nor counts them toward the watermark segment.
    /// kNoTickYet for fresh shards.
    Tick base_covered PPQ_GUARDED_BY(mu) = kNoTickYet;

    /// The published view; accessed only via atomic_load/atomic_store
    /// (lock-free reader side — deliberately NOT guarded by mu).
    core::ShardViewPtr view;

    /// This shard's index and its per-shard ingest/durability latency
    /// series (`ppq_ingest_{append,flush,seal,persist}_micros{shard="N"}`,
    /// `ppq_wal_rotate_micros{shard="N"}`,
    /// `ppq_recovery_replay_micros{shard="N"}`), resolved once in the
    /// constructor before the shard escapes. The metrics are internally
    /// thread-safe and the pointers are written exactly once, so they
    /// are deliberately NOT guarded by mu.
    uint32_t index = 0;
    obs::Histogram* append_hist = nullptr;
    obs::Histogram* flush_hist = nullptr;
    obs::Histogram* seal_hist = nullptr;
    obs::Histogram* persist_hist = nullptr;
    obs::Histogram* rotate_hist = nullptr;
    obs::Histogram* replay_hist = nullptr;
  };

  /// The per-shard Append body: monotonicity check, WAL record (live
  /// appends only), staging merge, tail publish. Replay (\p replay =
  /// true) suppresses the WAL write (the record came FROM the log) and
  /// watermark rolls (a replay-time seal could regress the frontier
  /// below the reopened seal's).
  Status AppendShardLocked(size_t index, Shard& shard, TimeSlice&& sub,
                           bool replay) PPQ_REQUIRES(shard.mu);
  /// Sort staging by id and hand it to the compressor (ACTIVE) or the
  /// pending queue (SEALING).
  void FlushStagingLocked(Shard& shard) PPQ_REQUIRES(shard.mu);
  /// Trigger a background seal of the active segment. Requires
  /// !sealing and a non-empty segment.
  void TriggerSealLocked(size_t index, Shard& shard) PPQ_REQUIRES(shard.mu);
  /// Roll when the active segment crossed a watermark.
  void MaybeRollLocked(size_t index, Shard& shard) PPQ_REQUIRES(shard.mu);
  /// The background seal task: move the encoder out and cut it unlocked
  /// (appends are diverted), persist + sync in durable mode, publish the
  /// new view, rotate the WAL, drain pending, resume ACTIVE.
  void SealShard(size_t index);

  /// Recovery (durable open only; no concurrency yet): seed the view
  /// from the reopened seal, replay this shard's logs, rotate the old
  /// active log out, start a fresh one.
  Status RecoverShard(uint32_t index, core::SnapshotPtr base);
  /// Retire the active log to generation (epoch - 1, wal_next_seq) and
  /// start a fresh log at the current epoch/frontier.
  Status RotateWalLocked(uint32_t index, Shard& shard, Tick sealed_through)
      PPQ_REQUIRES(shard.mu);
  void RecordDurabilityError(const Status& status)
      PPQ_EXCLUDES(durability_mu_);

  /// Held for the repository's whole lifetime in durable mode: a second
  /// Open of the same directory fails with AlreadyExists instead of two
  /// writers interleaving WAL and container state. Declared FIRST so it
  /// is destroyed LAST — the directory stays exclusively ours until the
  /// pool has drained and every shard's WAL has closed-and-synced.
  DirectoryLock dir_lock_;
  Options options_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> points_appended_{0};
  /// Durable mode state; dir_ is empty when memory-only.
  std::string dir_;
  mutable Mutex durability_mu_;
  Status durability_error_ PPQ_GUARDED_BY(durability_mu_);

  /// Background seal pool; declared LAST so its destructor runs FIRST
  /// and drains queued seal tasks against still-alive shard state (and
  /// before the shards' WALs close-and-sync in ~Shard).
  ThreadPool pool_;
};

/// Free-function alias for LiveRepository::Open — the crash-recovery
/// entry point: open the sealed snapshot (if any), replay each shard's
/// WAL, resume a fully queryable durable LiveRepository.
Result<std::shared_ptr<LiveRepository>> OpenLiveRepository(
    const std::string& dir, LiveRepository::CompressorFactory factory,
    LiveRepository::Options options);

}  // namespace ppq::repo
