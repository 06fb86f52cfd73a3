#include "repo/live_repository.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/fsio.h"
#include "obs/trace.h"

namespace ppq::repo {
namespace {

uint64_t MicrosSince(const std::chrono::steady_clock::time_point& start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Observe wall micros into a histogram at scope exit — covers every
/// early return of the instrumented function.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(obs::Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() { hist_->Observe(MicrosSince(start_)); }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Background seal workers: the seal task MUST run off the appender
/// thread (it is posted while a shard lock is held, and re-takes that
/// lock to publish), so the pool always keeps at least one background
/// worker — ThreadPool(n) provides n-1.
size_t ResolveSealPool(size_t requested) {
  if (requested == 0) {
    return std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  return requested + 1;
}

uint32_t ValidateShardCount(uint32_t num_shards) {
  if (num_shards == 0 || num_shards > kMaxShards) {
    throw std::invalid_argument(
        "LiveRepository: num_shards must be in [1, " +
        std::to_string(kMaxShards) + "], got " + std::to_string(num_shards));
  }
  return num_shards;
}

/// Sort a slice's parallel arrays by ascending id, preserving the
/// relative order of equal ids. Flushed slices then match the ascending-id
/// order TrajectoryDataset::SliceAt feeds the phased pipeline, so a
/// 1-shard live stream seals byte-identically to the batch path.
void SortSliceById(TimeSlice& slice) {
  if (std::is_sorted(slice.ids.begin(), slice.ids.end())) return;
  std::vector<size_t> order(slice.ids.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slice.ids[a] < slice.ids[b];
  });
  std::vector<TrajId> ids;
  std::vector<Point> positions;
  ids.reserve(order.size());
  positions.reserve(order.size());
  for (size_t i : order) {
    ids.push_back(slice.ids[i]);
    positions.push_back(slice.positions[i]);
  }
  slice.ids = std::move(ids);
  slice.positions = std::move(positions);
}

}  // namespace

LiveRepository::LiveRepository(CompressorFactory factory, Options options)
    : options_(options),
      map_{ValidateShardCount(options.num_shards)},
      pool_(ResolveSealPool(options.num_threads)) {
  shards_.reserve(map_.num_shards);
  obs::Registry& registry = obs::Registry::Default();
  for (uint32_t i = 0; i < map_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    const std::string label = obs::ShardLabel(i);
    shard->append_hist =
        registry.GetHistogram("ppq_ingest_append_micros", label);
    shard->flush_hist = registry.GetHistogram("ppq_ingest_flush_micros", label);
    shard->seal_hist = registry.GetHistogram("ppq_ingest_seal_micros", label);
    shard->persist_hist =
        registry.GetHistogram("ppq_ingest_persist_micros", label);
    shard->rotate_hist = registry.GetHistogram("ppq_wal_rotate_micros", label);
    shard->replay_hist =
        registry.GetHistogram("ppq_recovery_replay_micros", label);
    // No other thread can reach this shard yet, but its members are
    // guarded by its own mutex (a different object than `this`, so the
    // constructor exemption does not apply) — take the uncontended lock.
    MutexLock lock(shard->mu);
    shard->compressor = factory(i);
    if (shard->compressor == nullptr) {
      throw std::invalid_argument(
          "LiveRepository: factory returned null for shard " +
          std::to_string(i));
    }
    // Publish the empty epoch-0 view up front: `sealed` is never null, so
    // readers need no special case before the first watermark roll.
    auto view = std::make_shared<core::ShardView>();
    view->sealed = shard->compressor->Seal();
    std::atomic_store_explicit(&shard->view,
                               core::ShardViewPtr(std::move(view)),
                               std::memory_order_release);
    lock.Unlock();
    shards_.push_back(std::move(shard));
  }
}

// The implicit member order does the shutdown work: pool_ (declared last)
// destructs first and drains queued seal tasks while every shard is alive.
LiveRepository::~LiveRepository() = default;

Status LiveRepository::Append(const PointBatch& batch) {
  if (batch.ids.size() != batch.positions.size()) {
    return Status::Invalid(
        "LiveRepository: batch ids/positions size mismatch");
  }
  if (batch.empty()) return Status::OK();

  // Split by owning shard into per-shard sub-slices (local buffers: many
  // producer threads append concurrently, so there is no reusable
  // repository-level scratch like the phased path keeps).
  std::vector<TimeSlice> split(map_.num_shards);
  for (size_t i = 0; i < batch.ids.size(); ++i) {
    TimeSlice& sub = split[map_.ShardOf(batch.ids[i])];
    sub.tick = batch.tick;
    sub.ids.push_back(batch.ids[i]);
    sub.positions.push_back(batch.positions[i]);
  }

  Status first_error = Status::OK();
  for (uint32_t s = 0; s < map_.num_shards; ++s) {
    TimeSlice& sub = split[s];
    if (sub.empty()) continue;
    Shard& shard = *shards_[s];
    // The append stage deliberately includes the shard-lock wait: a
    // contended shard shows up as ingest-append latency, not a blind spot.
    PPQ_ZONE_SHARD("ingest.append", s);
    ScopedHistogramTimer timer(shard.append_hist);
    MutexLock lock(shard.mu);
    const Status status =
        AppendShardLocked(s, shard, std::move(sub), /*replay=*/false);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

Status LiveRepository::AppendShardLocked(size_t index, Shard& shard,
                                         TimeSlice&& sub, bool replay) {
  // Per-shard tick monotonicity: merge into the staging tick, advance
  // past it, or reject a regression (the tick was already flushed).
  if (shard.staging_active) {
    if (sub.tick < shard.staging.tick) {
      return Status::Invalid(
          "LiveRepository: batch tick " + std::to_string(sub.tick) +
          " regresses behind shard " + std::to_string(index) +
          " staging tick " + std::to_string(shard.staging.tick));
    }
    if (sub.tick > shard.staging.tick) {
      FlushStagingLocked(shard);
      if (!replay) MaybeRollLocked(index, shard);
    }
  } else if (shard.flushed != kNoTickYet && sub.tick <= shard.flushed) {
    return Status::Invalid(
        "LiveRepository: batch tick " + std::to_string(sub.tick) +
        " already flushed by shard " + std::to_string(index) +
        " (flushed through " + std::to_string(shard.flushed) + ")");
  }

  // Durable mode: log the record BEFORE the tail chunk is published, so
  // the in-memory state is never ahead of the log by more than the
  // group-commit window. A log failure is surfaced (and sticky in
  // DurabilityError) but the batch still lands in memory — serving keeps
  // the availability contract even on a dying disk.
  Status wal_status = Status::OK();
  if (!replay && shard.wal != nullptr) {
    wal_status = shard.wal->Append(shard.epoch, sub);
    if (wal_status.ok() && options_.wal_sync_interval > 0 &&
        ++shard.wal_unsynced >= options_.wal_sync_interval) {
      wal_status = shard.wal->Sync();
      shard.wal_unsynced = 0;
    }
    if (!wal_status.ok()) RecordDurabilityError(wal_status);
  }

  if (!shard.staging_active) {
    shard.staging = TimeSlice{};
    shard.staging.tick = sub.tick;
    shard.staging_active = true;
  }
  shard.staging.ids.insert(shard.staging.ids.end(), sub.ids.begin(),
                           sub.ids.end());
  shard.staging.positions.insert(shard.staging.positions.end(),
                                 sub.positions.begin(), sub.positions.end());

  // Publish the sub-batch into the tail chain: queryable the moment the
  // new view lands, long before the tick flushes or seals. Replay skips
  // ticks the reopened seal already answers (tick <= sealed_through);
  // live appends always pass this test (ticks advance past the cut).
  const core::ShardViewPtr old =
      std::atomic_load_explicit(&shard.view, std::memory_order_acquire);
  const size_t added = sub.size();
  if (sub.tick > old->sealed_through) {
    auto chunk = std::make_shared<core::TailChunk>();
    chunk->slice = std::move(sub);
    chunk->prev = old->tail;
    auto next = std::make_shared<core::ShardView>(*old);
    next->tail = std::move(chunk);
    next->tail_points = old->tail_points + added;
    std::atomic_store_explicit(&shard.view, core::ShardViewPtr(std::move(next)),
                               std::memory_order_release);
  }
  points_appended_.fetch_add(added, std::memory_order_relaxed);
  return wal_status;
}

void LiveRepository::FlushStagingLocked(Shard& shard) {
  if (!shard.staging_active) return;
  PPQ_ZONE_SHARD("ingest.flush", shard.index);
  ScopedHistogramTimer timer(shard.flush_hist);
  SortSliceById(shard.staging);
  shard.flushed = shard.staging.tick;
  // Replayed ticks at or below the reopened seal's frontier are already
  // sealed — they feed the (cumulative) compressor but must not count
  // toward a new watermark segment.
  if (shard.staging.tick > shard.base_covered) {
    if (shard.segment_first == kNoTickYet) {
      shard.segment_first = shard.staging.tick;
    }
    shard.segment_points += shard.staging.size();
  }
  if (shard.sealing) {
    // Seal in flight: the compressor belongs to the seal task. Divert;
    // SealShard drains the queue when the cut lands.
    shard.pending.push_back(std::move(shard.staging));
  } else {
    shard.compressor->ObserveSlice(shard.staging);
  }
  shard.staging = TimeSlice{};
  shard.staging_active = false;
}

void LiveRepository::MaybeRollLocked(size_t index, Shard& shard) {
  if (shard.sealing || shard.segment_first == kNoTickYet) return;
  const bool tick_trip =
      options_.watermark_ticks > 0 &&
      shard.flushed - shard.segment_first + 1 >= options_.watermark_ticks;
  const bool point_trip = options_.watermark_points > 0 &&
                          shard.segment_points >= options_.watermark_points;
  if (tick_trip || point_trip) TriggerSealLocked(index, shard);
}

void LiveRepository::TriggerSealLocked(size_t index, Shard& shard) {
  shard.sealing = true;
  shard.seal_cut = shard.flushed;
  shard.segment_first = kNoTickYet;
  shard.segment_points = 0;
  // The pool always has background workers (ResolveSealPool), so the task
  // never runs inline here under shard.mu. The mutex hand-off through the
  // pool queue also publishes every compressor write to the seal task.
  pool_.Post([this, index](size_t) { SealShard(index); });
}

void LiveRepository::SealShard(size_t index) {
  Shard& shard = *shards_[index];
  // Take structural ownership of the encoder for the cut: `sealing`
  // diverts every append to the pending queue, so nothing else needs it
  // until the publish below. Moving the pointer out under the lock makes
  // that exclusivity a fact the thread-safety analysis verifies, and the
  // expensive Seal() runs off the lock — Append never stalls behind it.
  std::unique_ptr<core::Compressor> compressor;
  {
    MutexLock lock(shard.mu);
    compressor = std::move(shard.compressor);
  }
  core::SnapshotPtr sealed;
  {
    PPQ_ZONE_SHARD("ingest.seal", index);
    ScopedHistogramTimer timer(shard.seal_hist);
    sealed = compressor->Seal();
  }

  if (!dir_.empty()) {
    PPQ_ZONE_SHARD("ingest.persist", index);
    ScopedHistogramTimer timer(shard.persist_hist);
    // Durability ordering: the WAL must be synced BEFORE the container
    // commit. The container's atomic rename is its commit point; once a
    // container covering tick <= cut is visible, every record that fed it
    // must already be on stable storage — recovery trusts the log as the
    // superset of any container it finds. So when the covering sync fails
    // (or logging already stopped after an earlier rotation failure), the
    // container commit is SKIPPED: recovery then falls back to the
    // previous container plus the retained generations, instead of a
    // container that silently claims ticks whose records never hit disk.
    bool log_covers_cut = false;
    {
      MutexLock lock(shard.mu);
      if (shard.wal != nullptr) {
        const Status synced = shard.wal->Sync();
        shard.wal_unsynced = 0;
        if (synced.ok()) {
          log_covers_cut = true;
        } else {
          RecordDurabilityError(synced);
        }
      }
    }
    if (log_covers_cut) {
      // Persist the shard's container (atomic: tmp + fsync + rename), off
      // the shard lock — appends keep flowing while the file writes. A
      // persist failure is sticky but non-fatal: the retained WAL
      // generations still hold every point, so recovery loses nothing.
      const Status persisted = sealed->Save(
          dir_ + "/" + ShardSnapshotFileName(static_cast<uint32_t>(index)));
      if (!persisted.ok()) RecordDurabilityError(persisted);
    }
  }

  MutexLock lock(shard.mu);
  shard.compressor = std::move(compressor);
  const Tick cut = shard.seal_cut;
  // Declared after `lock`, so `old` dies first: the retired view, its
  // dropped tail chunks and (serving workers hold no strong reference)
  // the retired seal are freed here under shard.mu, before Quiesce() can
  // return — never on a later request's path.
  const core::ShardViewPtr old =
      std::atomic_load_explicit(&shard.view, std::memory_order_acquire);

  // Truncate the tail to ticks the new seal does not cover. Chain ticks
  // are non-increasing newest-first, so the kept chunks are a prefix —
  // rebuilt (the prev links of the prefix reach into dropped chunks),
  // preserving order; O(one watermark of chunks).
  std::vector<const TimeSlice*> kept;
  size_t kept_points = 0;
  for (const core::TailChunk* c = old->tail.get(); c != nullptr;
       c = c->prev.get()) {
    if (c->slice.tick <= cut) break;
    kept.push_back(&c->slice);
    kept_points += c->slice.size();
  }
  core::TailPtr chain;
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
    auto chunk = std::make_shared<core::TailChunk>();
    chunk->slice = **it;
    chunk->prev = std::move(chain);
    chain = std::move(chunk);
  }

  auto next = std::make_shared<core::ShardView>();
  next->sealed = std::move(sealed);
  next->sealed_through = cut;
  next->tail = std::move(chain);
  next->tail_points = kept_points;
  next->seal_epoch = old->seal_epoch + 1;
  shard.epoch = next->seal_epoch;
  std::atomic_store_explicit(&shard.view, core::ShardViewPtr(std::move(next)),
                             std::memory_order_release);

  // Rotate the log under the new epoch: the retired file keeps every
  // record written while the old epoch was active (including ticks past
  // the cut that arrived mid-seal — replay order is preserved across the
  // generation boundary).
  if (shard.wal != nullptr) {
    const Status rotated =
        RotateWalLocked(static_cast<uint32_t>(index), shard, cut);
    if (!rotated.ok()) RecordDurabilityError(rotated);
  }

  // Drain the diverted ticks into the (again active) segment, restoring
  // watermark accounting; a backlog past the watermark rolls again on the
  // next tick advance.
  for (TimeSlice& slice : shard.pending) {
    if (shard.segment_first == kNoTickYet) shard.segment_first = slice.tick;
    shard.segment_points += slice.size();
    shard.compressor->ObserveSlice(slice);
  }
  shard.pending.clear();
  shard.sealing = false;
  shard.seal_done.NotifyAll();
}

void LiveRepository::RollAll() {
  for (uint32_t s = 0; s < map_.num_shards; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    FlushStagingLocked(shard);
    // Let an in-flight seal land first (its drain re-fills the segment
    // from pending), then cut whatever the segment holds.
    while (shard.sealing) shard.seal_done.Wait(shard.mu);
    if (shard.segment_first != kNoTickYet) TriggerSealLocked(s, shard);
  }
}

void LiveRepository::Quiesce() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    while (shard.sealing) shard.seal_done.Wait(shard.mu);
  }
}

core::ShardViewPtr LiveRepository::ShardView(size_t shard) const {
  return std::atomic_load_explicit(&shards_[shard]->view,
                                   std::memory_order_acquire);
}

RepositorySnapshotPtr LiveRepository::SealedSnapshot() const {
  std::vector<core::SnapshotPtr> seals;
  seals.reserve(map_.num_shards);
  for (uint32_t s = 0; s < map_.num_shards; ++s) {
    seals.push_back(ShardView(s)->sealed);
  }
  return std::make_shared<const RepositorySnapshot>(map_, std::move(seals));
}

uint64_t LiveRepository::MinSealEpoch() const {
  uint64_t min_epoch = std::numeric_limits<uint64_t>::max();
  for (uint32_t s = 0; s < map_.num_shards; ++s) {
    min_epoch = std::min(min_epoch, ShardView(s)->seal_epoch);
  }
  return min_epoch;
}

// ---------------------------------------------------------------------------
// Durable mode: WAL plumbing + crash recovery
// ---------------------------------------------------------------------------

namespace {

/// Move the shard's active log to the next free generation slot for the
/// epoch its records were written under. Repeated crash/open cycles at
/// the same epoch each retire another file, hence the seq counter —
/// creation order equals (epoch, seq) order, which is replay order.
Status RetireActiveLog(const std::string& dir, uint32_t index,
                       uint64_t retired_epoch) {
  auto gens = ListWalGenerations(dir, index);
  if (!gens.ok()) return gens.status();
  uint32_t seq = 0;
  for (const WalGenerationFile& gen : *gens) {
    if (gen.epoch == retired_epoch && gen.seq >= seq) seq = gen.seq + 1;
  }
  return RenameFile(
      dir + "/" + WalFileName(index),
      dir + "/" + WalGenerationFileName(index, retired_epoch, seq));
}

}  // namespace

void LiveRepository::RecordDurabilityError(const Status& status) {
  MutexLock lock(durability_mu_);
  if (durability_error_.ok()) {
    durability_error_ = status;
    // Exactly the OK -> error transition: the counter counts repositories
    // going degraded (sticky, so at most once per instance), the gauge is
    // the current "a live repository has lost durability" alarm line.
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("ppq_durability_degraded_total")->Increment();
    registry.GetGauge("ppq_durability_degraded")->Set(1);
  }
}

Status LiveRepository::DurabilityError() const {
  MutexLock lock(durability_mu_);
  return durability_error_;
}

Status LiveRepository::SyncWal() {
  Status first_error = Status::OK();
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    if (shard.wal == nullptr) continue;
    const Status status = shard.wal->Sync();
    shard.wal_unsynced = 0;
    if (!status.ok()) {
      RecordDurabilityError(status);
      if (first_error.ok()) first_error = status;
    }
  }
  return first_error;
}

Status LiveRepository::RotateWalLocked(uint32_t index, Shard& shard,
                                       Tick sealed_through) {
  // Close (final sync), retire to a generation file, restart at the new
  // epoch. On failure the shard stops logging (wal stays null) — the
  // sticky durability error is the operator's signal; in-memory serving
  // is unaffected.
  PPQ_ZONE_SHARD("wal.rotate", index);
  ScopedHistogramTimer timer(shard.rotate_hist);
  PPQ_RETURN_NOT_OK(shard.wal->Close());
  shard.wal.reset();
  shard.wal_unsynced = 0;
  PPQ_RETURN_NOT_OK(RetireActiveLog(dir_, index, shard.epoch - 1));
  WalHeader header;
  header.shard = index;
  header.seal_epoch = shard.epoch;
  header.sealed_through = sealed_through;
  // Create syncs the directory, which also makes the rename durable.
  auto fresh = WriteAheadLog::Create(dir_ + "/" + WalFileName(index), header);
  if (!fresh.ok()) return fresh.status();
  shard.wal = std::move(*fresh);
  return Status::OK();
}

Status LiveRepository::RecoverShard(uint32_t index, core::SnapshotPtr base) {
  namespace fs = std::filesystem;
  Shard& shard = *shards_[index];
  PPQ_ZONE_SHARD("recovery.replay", index);
  ScopedHistogramTimer timer(shard.replay_hist);
  // No concurrent users yet (Open publishes the repository only after
  // every shard recovered), but the locked helpers require mu.
  MutexLock lock(shard.mu);

  // The reopened seal's frontier is authoritative: every tick it covers
  // is served from it, and the proof that its WAL records are on disk is
  // the seal-before-persist sync ordering in SealShard.
  const Tick covered = base != nullptr ? base->MaxCoveredTick() : kNoTickYet;
  shard.base_covered = covered;
  if (base != nullptr) {
    auto view = std::make_shared<core::ShardView>();
    view->sealed = std::move(base);
    view->sealed_through = covered;
    std::atomic_store_explicit(&shard.view, core::ShardViewPtr(std::move(view)),
                               std::memory_order_release);
  }

  // Replay order: rotated generations by (epoch, seq), then the active
  // log. The compressor is cumulative and the encode deterministic, so
  // feeding the full record history through the normal append path
  // rebuilds the exact pre-crash encoder state; ticks <= covered skip
  // tail publication (the seal answers them).
  auto gens = ListWalGenerations(dir_, index);
  if (!gens.ok()) return gens.status();
  std::vector<std::pair<std::string, bool>> files;  // (path, is_active)
  files.reserve(gens->size() + 1);
  for (const WalGenerationFile& gen : *gens) {
    files.emplace_back(dir_ + "/" + gen.name, false);
  }
  const std::string active = dir_ + "/" + WalFileName(index);
  std::error_code ec;
  const bool have_active = fs::exists(active, ec);
  if (have_active) files.emplace_back(active, true);

  uint64_t max_epoch = 0;
  uint64_t active_epoch = 0;
  bool active_torn = false;
  size_t active_valid_bytes = 0;
  Tick last_tick = kNoTickYet;
  for (auto& [path, is_active] : files) {
    auto contents = ReadWalFile(path, index);
    if (!contents.ok()) return contents.status();
    if (contents->torn && !is_active) {
      // Generations are fully synced before their rename: a tear here is
      // bit rot in committed data, not a crash frontier — fail the open
      // rather than silently dropping acknowledged points.
      return Status::IOError(
          "wal: torn record in a rotated generation (synced data "
          "corrupted): " +
          path);
    }
    max_epoch = std::max(max_epoch, contents->header.seal_epoch);
    if (is_active) {
      active_epoch = contents->header.seal_epoch;
      active_torn = contents->torn;
      active_valid_bytes = contents->valid_bytes;
    }
    for (WalRecord& record : contents->records) {
      if (record.slice.tick < last_tick) {
        return Status::Invalid("wal: tick regression across log files: " +
                               path);
      }
      last_tick = record.slice.tick;
      for (TrajId id : record.slice.ids) {
        // A CRC-valid record naming a foreign id would silently serve
        // points from the wrong shard — forgery, not a tear.
        if (map_.ShardOf(id) != index) {
          return Status::Invalid("wal: record routed to the wrong shard: " +
                                 path);
        }
      }
      PPQ_RETURN_NOT_OK(AppendShardLocked(index, shard,
                                          std::move(record.slice),
                                          /*replay=*/true));
    }
  }

  // Restore the pre-crash flush frontier: everything at or below the cut
  // was flushed before the seal, so post-recovery appends at those ticks
  // must be rejected exactly like they were pre-crash.
  if (shard.staging_active && shard.staging.tick <= covered) {
    FlushStagingLocked(shard);
  }
  shard.flushed = std::max(shard.flushed, covered);
  shard.epoch = max_epoch;
  {
    const core::ShardViewPtr old =
        std::atomic_load_explicit(&shard.view, std::memory_order_acquire);
    auto next = std::make_shared<core::ShardView>(*old);
    next->seal_epoch = max_epoch;
    std::atomic_store_explicit(&shard.view, core::ShardViewPtr(std::move(next)),
                               std::memory_order_release);
  }

  // New-log-on-open: retire the crash image of the active log (it
  // replays again if we crash before the next rotation) and start fresh.
  // A torn image is first cut back to its valid record prefix — exactly
  // the bytes replayed above — because generation readers treat a tear as
  // bit rot, and retiring the torn suffix verbatim would fail every
  // subsequent open of the directory.
  if (have_active) {
    if (active_valid_bytes < kWalHeaderBytes) {
      // The create never landed (zero-byte or sub-header crash image): no
      // record can have committed, so there is nothing worth retiring.
      const Status removed = RemoveFile(active);
      if (!removed.ok()) {
        return Status::IOError("cannot remove torn wal create: " +
                               removed.message());
      }
    } else {
      if (active_torn) {
        obs::Registry::Default()
            .GetCounter("ppq_recovery_torn_truncations_total")
            ->Increment();
        PPQ_RETURN_NOT_OK(TruncateFile(active, active_valid_bytes));
      }
      PPQ_RETURN_NOT_OK(RetireActiveLog(dir_, index, active_epoch));
    }
  }
  WalHeader header;
  header.shard = index;
  header.seal_epoch = shard.epoch;
  header.sealed_through = covered;
  auto fresh = WriteAheadLog::Create(active, header);
  if (!fresh.ok()) return fresh.status();
  shard.wal = std::move(*fresh);
  shard.wal_unsynced = 0;
  return Status::OK();
}

Result<std::shared_ptr<LiveRepository>> LiveRepository::Open(
    const std::string& dir, CompressorFactory factory, Options options) {
  namespace fs = std::filesystem;
  if (dir.empty()) {
    return Status::Invalid("LiveRepository::Open: empty directory path");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create repository directory " + dir +
                           ": " + ec.message());
  }

  std::shared_ptr<LiveRepository> live;
  try {
    live.reset(new LiveRepository(std::move(factory), options));
  } catch (const std::invalid_argument& e) {
    return Status::Invalid(e.what());
  }
  // Single-opener discipline: hold the advisory lock before reading or
  // writing ANYTHING in the directory (recovery rewrites WALs; a second
  // concurrent opener replaying the same logs would double-retire them).
  // Released when `live` is destroyed, or by the kernel if we crash.
  PPQ_RETURN_NOT_OK(
      live->dir_lock_.Acquire(dir + "/" + kRepositoryLockFileName));
  live->dir_ = dir;

  // Sweep temp files of atomic saves whose commit never happened (a
  // crash mid-persist leaves `*.tmp`; committed files never do).
  fs::directory_iterator it(dir, ec);
  if (!ec) {
    for (const auto& entry : it) {
      if (entry.path().extension() == ".tmp") {
        (void)RemoveFile(entry.path().string());
      }
    }
  }

  // The sealed base, when a manifest exists. A directory with WALs but no
  // manifest (a first-open that crashed before initialisation finished)
  // recovers from the logs alone.
  RepositorySnapshotPtr base;
  const std::string manifest_path = dir + "/" + kManifestFileName;
  if (fs::exists(manifest_path, ec)) {
    auto opened = OpenRepository(dir, &live->pool_);
    if (!opened.ok()) return opened.status();
    if ((*opened)->num_shards() != live->num_shards()) {
      return Status::Invalid(
          "LiveRepository::Open: directory has " +
          std::to_string((*opened)->num_shards()) +
          " shards but options ask for " +
          std::to_string(live->num_shards()) +
          " (resharding is an offline pass, not an open-time option)");
    }
    base = std::move(*opened);
  }

  // Shards recover independently — fan out on the seal pool.
  std::vector<Status> statuses(live->num_shards());
  live->pool_.ParallelFor(live->num_shards(), [&](size_t, size_t s) {
    statuses[s] =
        live->RecoverShard(static_cast<uint32_t>(s),
                           base != nullptr ? base->shard(s) : nullptr);
  });
  for (const Status& status : statuses) {
    PPQ_RETURN_NOT_OK(status);
  }

  // First open of a fresh directory: write the empty container set and
  // manifest now, so the directory is a valid repository before the
  // first seal and seal-time persists have a manifest naming their file.
  if (base == nullptr) {
    PPQ_RETURN_NOT_OK(live->SealedSnapshot()->Save(dir, &live->pool_));
  }
  return live;
}

Result<std::shared_ptr<LiveRepository>> OpenLiveRepository(
    const std::string& dir, LiveRepository::CompressorFactory factory,
    LiveRepository::Options options) {
  return LiveRepository::Open(dir, std::move(factory), options);
}

}  // namespace ppq::repo
