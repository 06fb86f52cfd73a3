#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fsio.h"
#include "common/serial.h"
#include "core/ppq_trajectory.h"
#include "obs/metrics.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "repo/live_repository.h"
#include "repo/wal.h"
#include "tests/test_util.h"

/// \file live_recovery_test.cc
/// Crash consistency for the durable LiveRepository: kill the process
/// image mid-ingest (by copying the directory without Quiesce — the
/// power-loss snapshot), reopen, and demand exact-mode STRQ/window
/// answers equal to ground truth at the recovered frontier — and once
/// for real, in a child process killed by std::_Exit. Plus the hostile
/// open paths: torn final record, bit-flipped record, stale and future
/// epochs, missing/zero-byte/garbage logs, forged shard routing, and a
/// truncation sweep over every byte boundary of a real log; and the
/// write path's per-shard stage histograms.

namespace ppq::repo {
namespace {

using core::QueryEngine;
using core::QueryResponse;
using core::QuerySpec;
using core::SampleQueries;
using core::StrqMode;
using core::StrqRequest;
using core::WindowRequest;
using core::WindowSpec;

TrajectoryDataset SmallDataset(uint64_t seed = 77, int trajectories = 40) {
  return test::MakePortoDataset({trajectories, 50, 15, 50, seed});
}

LiveRepository::CompressorFactory PpqAFactory() {
  return [](uint32_t) {
    return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
  };
}

double CellSize() { return core::PpqOptions{}.tpi.pi.cell_size; }

std::vector<TrajId> SortedIds(std::vector<TrajId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A fresh scratch directory (unique per test instance, pre-cleaned).
std::string FreshDir(const char* name) {
  const std::string path = test::TempPath(name);
  std::filesystem::remove_all(path);
  return path;
}

/// The power-loss image: copy the backing directory while the source
/// repository is still live (no Quiesce, no shutdown, no WAL close).
/// Recovery must resurrect the copy from whatever on-disk state the
/// crash instant froze. Background seals keep running, but their
/// renames, unlinks, creates and writes wait while the copy runs, so the
/// image is the directory at one instant between two durability steps —
/// a state a crash can leave — never a mix of the states before and
/// after a WAL rotation or a container commit.
std::string CrashImage(const std::string& dir, const char* name) {
  const std::string image = FreshDir(name);
  const DurabilityFreezeForTesting freeze;
  std::error_code ec;
  std::filesystem::copy(dir, image,
                        std::filesystem::copy_options::recursive, ec);
  EXPECT_FALSE(ec) << "copying crash image: " << ec.message();
  return image;
}

/// Ingest every tick in [data.MinTick(), through] (inclusive).
void IngestThrough(LiveRepository& live, const TrajectoryDataset& data,
                   Tick through) {
  for (Tick t = data.MinTick(); t <= through && t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live.Append(batch).ok());
    }
  }
}

size_t PointsThrough(const TrajectoryDataset& data, Tick through) {
  size_t n = 0;
  for (Tick t = data.MinTick(); t <= through && t < data.MaxTick(); ++t) {
    n += data.BatchAt(t).size();
  }
  return n;
}

/// Exact-mode STRQ + window parity against raw ground truth for every
/// sampled query whose tick is at or behind \p frontier.
void ExpectExactParity(const std::shared_ptr<LiveRepository>& live,
                       const std::shared_ptr<const TrajectoryDataset>& data,
                       Tick frontier, uint64_t query_seed) {
  core::QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  core::QueryService service(live, serve);

  Rng rng(query_seed);
  size_t checked = 0;
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    if (q.tick > frontier) continue;
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
        << "STRQ tick " << q.tick << " at recovered frontier " << frontier;
    ++checked;
  }
  for (const WindowSpec& w : test::SampleWindows(*data, 25, &rng)) {
    if (w.tick > frontier) continue;
    const QueryResponse response =
        service.Submit(WindowRequest{w, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(
        SortedIds(response.strq().ids),
        SortedIds(QueryEngine::WindowGroundTruth(*data, w.window, w.tick)))
        << "window tick " << w.tick << " at recovered frontier " << frontier;
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no query landed at or behind the frontier";
}

// -------------------------------------------------------------------------
// Fresh-directory lifecycle
// -------------------------------------------------------------------------

TEST(LiveRecoveryTest, FreshDirectoryInitialisesAndReopensEmpty) {
  const std::string dir = FreshDir("fresh_dir");
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;

  auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ((*opened)->dir(), dir);
  EXPECT_TRUE((*opened)->DurabilityError().ok());
  EXPECT_EQ((*opened)->TotalPointsAppended(), 0u);
  // A fresh open initialises the directory: manifest + per-shard logs.
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + WalFileName(0)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + WalFileName(1)));
  opened->reset();

  auto reopened = OpenLiveRepository(dir, PpqAFactory(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->TotalPointsAppended(), 0u);
  EXPECT_TRUE((*reopened)->DurabilityError().ok());
}

TEST(LiveRecoveryTest, SecondOpenerIsRejectedWhileFirstIsLive) {
  const std::string dir = FreshDir("single_opener_dir");
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;

  auto first = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + kRepositoryLockFileName));

  // A second opener of the SAME live directory must fail cleanly (two
  // writers would interleave WAL records and double-retire generations),
  // and must not have disturbed the first opener's state.
  auto second = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status().message();
  const TrajectoryDataset data = SmallDataset();
  ASSERT_TRUE((*first)->Append(data.BatchAt(data.MinTick())).ok());
  EXPECT_TRUE((*first)->DurabilityError().ok());

  // Closing the first opener releases the flock: the directory reopens.
  first->reset();
  auto third = OpenLiveRepository(dir, PpqAFactory(), options);
  ASSERT_TRUE(third.ok()) << third.status().message();
  EXPECT_TRUE((*third)->DurabilityError().ok());
}

TEST(LiveRecoveryTest, ShardCountMismatchIsRejected) {
  const std::string dir = FreshDir("mismatch_dir");
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  {
    auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
  }
  options.num_shards = 4;
  auto reopened = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------------------
// The headline guarantee: kill without Quiesce, reopen, exact parity
// -------------------------------------------------------------------------

TEST(LiveRecoveryTest, RecoverWithoutQuiesceMidIngestMatchesGroundTruth) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const Tick crash_ticks[] = {
      static_cast<Tick>(data->MinTick() + 2),   // tail-only: no seal yet
      static_cast<Tick>(data->MinTick() + 11),  // past a couple of rolls
      static_cast<Tick>(data->MaxTick() - 3),   // deep stream
  };

  int image = 0;
  for (const Tick crash_at : crash_ticks) {
    const std::string dir =
        FreshDir(("midingest_" + std::to_string(image)).c_str());
    LiveRepository::Options options;
    options.num_shards = 2;
    options.num_threads = 1;
    options.watermark_ticks = 5;  // roll often: crashes straddle seals
    options.watermark_points = 0;
    options.wal_sync_interval = 1;  // every append durable

    auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    const auto live = *opened;
    IngestThrough(*live, *data, crash_at);
    ASSERT_TRUE(live->SyncWal().ok());

    // The crash: image the directory while the repository is still hot —
    // background seals possibly in flight, WAL open, nothing quiesced.
    const std::string crash_dir =
        CrashImage(dir, ("midingest_crash_" + std::to_string(image)).c_str());
    ++image;

    auto recovered = OpenLiveRepository(crash_dir, PpqAFactory(), options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_TRUE((*recovered)->DurabilityError().ok());
    // Every synced record survived — no more, no fewer.
    EXPECT_EQ((*recovered)->TotalPointsAppended(),
              PointsThrough(*data, crash_at))
        << "crash at tick " << crash_at;
    ExpectExactParity(*recovered, data, crash_at, /*query_seed=*/5);

    // Recovery resumes: keep ingesting past the crash tick, cut, and the
    // full stream answers exactly — the replayed encoder state is the
    // pre-crash one, not an approximation of it.
    for (Tick t = crash_at + 1; t < data->MaxTick(); ++t) {
      const PointBatch batch = data->BatchAt(t);
      if (!batch.empty()) {
        ASSERT_TRUE((*recovered)->Append(batch).ok());
      }
    }
    (*recovered)->RollAll();
    (*recovered)->Quiesce();
    EXPECT_EQ((*recovered)->TotalPointsAppended(),
              PointsThrough(*data, data->MaxTick()));
    ExpectExactParity(*recovered, data, data->MaxTick(), /*query_seed=*/6);
  }
}

TEST(LiveRecoveryDeathTest, ProcessKilledMidIngestRecoversTheSyncedPrefix) {
  // The process-kill crash: a child ingests a durable repository through
  // a mid-stream tick, syncs its logs and dies by std::_Exit — no WAL
  // close, no pool drain, background seals killed wherever they are. The
  // parent reopens the directory the child left. The child re-runs this
  // test from the top (threadsafe style), so the statement reports its
  // own failures by exit code rather than through gtest assertions.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const std::string dir = FreshDir("killed_dir");
  LiveRepository::Options options;
  options.num_shards = 4;
  options.num_threads = 2;
  options.watermark_ticks = 4;  // seals in flight at the kill
  options.watermark_points = 0;
  options.wal_sync_interval = 1;
  const Tick crash_at = (data->MinTick() + data->MaxTick()) / 2;

  EXPECT_EXIT(
      {
        auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
        if (!opened.ok()) std::_Exit(1);
        for (Tick t = data->MinTick(); t <= crash_at; ++t) {
          const PointBatch batch = data->BatchAt(t);
          if (!batch.empty() && !(*opened)->Append(batch).ok()) std::_Exit(1);
        }
        if (!(*opened)->SyncWal().ok()) std::_Exit(1);
        std::_Exit(2);
      },
      ::testing::ExitedWithCode(2), "");

  auto recovered = OpenLiveRepository(dir, PpqAFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  const auto live = *recovered;
  EXPECT_TRUE(live->DurabilityError().ok());
  EXPECT_EQ(live->TotalPointsAppended(), PointsThrough(*data, crash_at));
  ExpectExactParity(live, data, crash_at, /*query_seed=*/13);

  // The recovered encoder resumes the stream exactly.
  for (Tick t = crash_at + 1; t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }
  }
  live->RollAll();
  live->Quiesce();
  EXPECT_EQ(live->TotalPointsAppended(),
            PointsThrough(*data, data->MaxTick()));
  ExpectExactParity(live, data, data->MaxTick(), /*query_seed=*/14);
}

// -------------------------------------------------------------------------
// Crash while a background seal is in flight
// -------------------------------------------------------------------------

/// Decorator making Compressor::Seal slow enough that the crash image is
/// provably taken WHILE a seal runs: the on-disk state then has the WAL
/// ahead of any persisted container, the worst-ordered crash.
class SlowSealCompressor : public core::Compressor {
 public:
  explicit SlowSealCompressor(std::unique_ptr<core::Compressor> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void ObserveSlice(const TimeSlice& slice) override {
    inner_->ObserveSlice(slice);
  }
  void Finish() override { inner_->Finish(); }
  Result<Point> Reconstruct(TrajId id, Tick t) const override {
    return inner_->Reconstruct(id, t);
  }
  size_t SummaryBytes() const override { return inner_->SummaryBytes(); }
  size_t NumCodewords() const override { return inner_->NumCodewords(); }
  const index::TemporalPartitionIndex* index() const override {
    return inner_->index();
  }
  double LocalSearchRadius() const override {
    return inner_->LocalSearchRadius();
  }
  std::vector<core::RecordSpan> RecordSpans() const override {
    return inner_->RecordSpans();
  }
  core::SnapshotPtr Seal() const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return inner_->Seal();
  }

 private:
  std::unique_ptr<core::Compressor> inner_;
};

TEST(LiveRecoveryTest, RecoverMidSlowSealReplaysThroughTheCut) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const std::string dir = FreshDir("midseal_dir");
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  options.wal_sync_interval = 1;

  const auto slow_factory = [](uint32_t) {
    return std::make_unique<SlowSealCompressor>(
        std::make_unique<core::PpqTrajectory>(core::MakePpqA()));
  };

  auto opened = LiveRepository::Open(dir, slow_factory, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const auto live = *opened;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }
  }
  ASSERT_TRUE(live->SyncWal().ok());

  // Back-to-back ingest against a 150ms Seal: the last roll's seal is
  // still in flight right now. Image the directory mid-seal.
  const std::string crash_dir = CrashImage(dir, "midseal_crash");

  auto recovered = OpenLiveRepository(crash_dir, PpqAFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->TotalPointsAppended(),
            PointsThrough(*data, data->MaxTick()));
  ExpectExactParity(*recovered, data, data->MaxTick(), /*query_seed=*/7);
}

// -------------------------------------------------------------------------
// Torn and corrupt logs
// -------------------------------------------------------------------------

/// A single-shard durable repository whose whole stream sits in the
/// ACTIVE log (watermarks disabled: no seal, no rotation) — the directly
/// corruptible fixture the torn/bit-flip tests poke at.
struct ActiveLogFixture {
  std::shared_ptr<const TrajectoryDataset> data;
  std::string dir;
  LiveRepository::Options options;
  /// Points per non-empty tick, in append (= record) order.
  std::vector<size_t> record_counts;
  size_t total_points = 0;

  void Build(const char* name) {
    data = std::make_shared<const TrajectoryDataset>(SmallDataset(91, 24));
    dir = FreshDir(name);
    options.num_shards = 1;
    options.num_threads = 1;
    options.watermark_ticks = 0;
    options.watermark_points = 0;
    options.wal_sync_interval = 1;

    auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
      const PointBatch batch = data->BatchAt(t);
      if (batch.empty()) continue;
      ASSERT_TRUE((*opened)->Append(batch).ok());
      record_counts.push_back(batch.size());
      total_points += batch.size();
    }
    ASSERT_TRUE((*opened)->SyncWal().ok());
    // Clean drop: the on-disk log is identical to the crash image (every
    // record synced), and the file is closed for in-place corruption.
  }

  std::string wal_path() const { return dir + "/" + WalFileName(0); }

  /// Byte offset where record \p index starts (header = record 0's base).
  size_t RecordOffset(size_t index) const {
    size_t pos = kWalHeaderBytes;
    for (size_t i = 0; i < index; ++i) {
      pos += 8 + (8 + 4 + 4) + record_counts[i] * (4 + 8 + 8);
    }
    return pos;
  }
};

TEST(LiveRecoveryTest, TornFinalRecordKeepsTheValidPrefix) {
  ActiveLogFixture fx;
  fx.Build("torn_dir");
  ASSERT_GE(fx.record_counts.size(), 2u);

  // Tear mid-way into the LAST record: the classic crash frontier.
  auto bytes = test::ReadFileBytes(fx.wal_path());
  const size_t last = fx.RecordOffset(fx.record_counts.size() - 1);
  ASSERT_LT(last, bytes.size());
  bytes.resize(last + 11);  // frame + a sliver of payload
  test::WriteFileBytes(fx.wal_path(), bytes);

  obs::Counter* torn = obs::Registry::Default().GetCounter(
      "ppq_recovery_torn_truncations_total");
  const uint64_t torn_before = torn->Value();

  auto recovered = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->TotalPointsAppended(),
            fx.total_points - fx.record_counts.back());
  EXPECT_TRUE((*recovered)->DurabilityError().ok());
  // The torn tail was cut back exactly once, and the health counter saw it.
  EXPECT_EQ(torn->Value(), torn_before + 1);

  // The recovery retired the torn log as a generation: it must have been
  // cut back to its valid prefix, or every later open of this directory
  // would reject the generation as bit rot. Close cleanly and reopen.
  recovered->reset();
  auto reopened = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->TotalPointsAppended(),
            fx.total_points - fx.record_counts.back());
  EXPECT_TRUE((*reopened)->DurabilityError().ok());
  // The retired generation is already clean: reopening truncates nothing.
  EXPECT_EQ(torn->Value(), torn_before + 1);
}

TEST(LiveRecoveryTest, BitFlippedRecordStopsReplayAtTheValidPrefix) {
  ActiveLogFixture fx;
  fx.Build("bitflip_dir");
  ASSERT_GE(fx.record_counts.size(), 4u);

  // Flip one payload bit in the middle of record k: the CRC catches it,
  // records [0, k) replay, the corrupt suffix is dropped.
  const size_t k = fx.record_counts.size() / 2;
  auto bytes = test::ReadFileBytes(fx.wal_path());
  const size_t offset = fx.RecordOffset(k) + 8 + 9;  // inside the payload
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x40;
  test::WriteFileBytes(fx.wal_path(), bytes);

  size_t surviving = 0;
  for (size_t i = 0; i < k; ++i) surviving += fx.record_counts[i];

  auto recovered = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->TotalPointsAppended(), surviving);

  // Reopen after the recovery: the corrupt suffix was truncated away when
  // the log was retired, so the directory stays openable forever.
  recovered->reset();
  auto reopened = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->TotalPointsAppended(), surviving);
}

TEST(LiveRecoveryTest, ZeroByteActiveLogIsATolerableTornCreate) {
  ActiveLogFixture fx;
  fx.Build("zerobyte_dir");
  test::WriteFileBytes(fx.wal_path(), {});

  auto recovered = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->TotalPointsAppended(), 0u);

  // The zero-byte crash image holds nothing to retire: recovery drops it
  // instead of minting an unreadable generation, so reopening works.
  recovered->reset();
  auto reopened = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->TotalPointsAppended(), 0u);
}

TEST(LiveRecoveryTest, GarbageActiveLogHeaderIsARealError) {
  ActiveLogFixture fx;
  fx.Build("garbage_dir");
  std::vector<uint8_t> garbage(64);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(0xA5u ^ (i * 37u));
  }
  test::WriteFileBytes(fx.wal_path(), garbage);

  auto recovered = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
}

TEST(LiveRecoveryTest, MissingActiveLogAfterSealLosesOnlyTheTail) {
  // Seal first (container persisted, log rotated to a generation), then
  // delete the fresh active log: the sealed prefix must fully survive.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const std::string dir = FreshDir("missing_active_dir");
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 0;
  options.watermark_points = 0;
  options.wal_sync_interval = 1;

  size_t total = 0;
  {
    auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
      const PointBatch batch = data->BatchAt(t);
      if (batch.empty()) continue;
      ASSERT_TRUE((*opened)->Append(batch).ok());
      total += batch.size();
    }
    (*opened)->RollAll();
    (*opened)->Quiesce();
    EXPECT_TRUE((*opened)->DurabilityError().ok());
  }
  ASSERT_TRUE(std::filesystem::remove(dir + "/" + WalFileName(0)));

  auto recovered = OpenLiveRepository(dir, PpqAFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  // Everything was sealed before the cut; the post-seal active log held
  // no records, so deleting it loses nothing.
  EXPECT_EQ((*recovered)->TotalPointsAppended(), total);
  ExpectExactParity(*recovered, data, data->MaxTick(), /*query_seed=*/8);
}

TEST(LiveRecoveryTest, GenerationListingIgnoresLookalikeNames) {
  const std::string dir = FreshDir("lookalike_dir");
  std::filesystem::create_directories(dir);
  test::WriteFileBytes(dir + "/" + WalGenerationFileName(0, 1, 0), {});
  // Prefix-sharing neighbours that are NOT generations: trailing junk,
  // backup copies, non-canonical digits. Replaying (or renumbering
  // around) any of them would corrupt recovery.
  test::WriteFileBytes(dir + "/wal-0000.gen-1-0.logx", {});
  test::WriteFileBytes(dir + "/wal-0000.gen-1-0.log.bak", {});
  test::WriteFileBytes(dir + "/wal-0000.gen-01-0.log", {});
  test::WriteFileBytes(dir + "/wal-0000.gen-1-0.lo", {});

  auto gens = ListWalGenerations(dir, 0);
  ASSERT_TRUE(gens.ok()) << gens.status().message();
  ASSERT_EQ(gens->size(), 1u);
  EXPECT_EQ((*gens)[0].name, WalGenerationFileName(0, 1, 0));
  EXPECT_EQ((*gens)[0].epoch, 1u);
  EXPECT_EQ((*gens)[0].seq, 0u);
}

TEST(LiveRecoveryTest, FailedWalSyncSkipsTheContainerCommit) {
  // The log must durably cover the cut BEFORE the container commits; a
  // failed covering sync must leave the previous container in place, or a
  // later crash would recover a container claiming ticks whose records
  // never reached disk.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const std::string dir = FreshDir("failed_sync_dir");
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 0;  // manual rolls only
  options.watermark_points = 0;
  options.wal_sync_interval = 1;

  auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto live = *opened;
  const Tick mid = (data->MinTick() + data->MaxTick()) / 2;
  IngestThrough(*live, *data, mid);
  live->RollAll();
  live->Quiesce();
  ASSERT_TRUE(live->DurabilityError().ok());
  const auto before = test::ReadFileBytes(dir + "/" + ShardSnapshotFileName(0));

  for (Tick t = mid + 1; t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }
  }
  obs::Registry& registry = obs::Registry::Default();
  obs::Counter* sync_failures =
      registry.GetCounter("ppq_wal_sync_failures_total");
  obs::Counter* degraded_total =
      registry.GetCounter("ppq_durability_degraded_total");
  const uint64_t sync_failures_before = sync_failures->Value();
  const uint64_t degraded_before = degraded_total->Value();

  SetSyncFaultForTesting(true);
  live->RollAll();
  live->Quiesce();
  SetSyncFaultForTesting(false);

  // The failure is sticky and the container was NOT replaced.
  EXPECT_FALSE(live->DurabilityError().ok());
  EXPECT_EQ(test::ReadFileBytes(dir + "/" + ShardSnapshotFileName(0)), before);

  // Health counters: every failed fdatasync was counted, but the sticky
  // OK -> degraded transition fired exactly once.
  EXPECT_GE(sync_failures->Value(), sync_failures_before + 1);
  EXPECT_EQ(degraded_total->Value(), degraded_before + 1);
  EXPECT_EQ(registry.GetGauge("ppq_durability_degraded")->Value(), 1);

  // Every second-half record was synced before the fault hit (interval 1),
  // so the old container + retained logs still recover the full stream.
  live.reset();
  opened->reset();
  auto recovered = OpenLiveRepository(dir, PpqAFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->TotalPointsAppended(),
            PointsThrough(*data, data->MaxTick()));
  ExpectExactParity(*recovered, data, data->MaxTick(), /*query_seed=*/11);
}

TEST(LiveRecoveryTest, CorruptManifestFailsCleanly) {
  ActiveLogFixture fx;
  fx.Build("manifest_dir");
  auto manifest = test::ReadFileBytes(fx.dir + "/MANIFEST");
  ASSERT_GT(manifest.size(), 8u);
  manifest[manifest.size() / 2] ^= 0xFF;
  test::WriteFileBytes(fx.dir + "/MANIFEST", manifest);

  auto recovered = OpenLiveRepository(fx.dir, PpqAFactory(), fx.options);
  ASSERT_FALSE(recovered.ok());  // a clean Status, not a crash
}

// -------------------------------------------------------------------------
// Epoch discipline and forgery
// -------------------------------------------------------------------------

TimeSlice MakeSlice(Tick tick, std::vector<TrajId> ids) {
  TimeSlice slice;
  slice.tick = tick;
  for (const TrajId id : ids) {
    slice.ids.push_back(id);
    slice.positions.push_back({-8.6 + 0.001 * id, 41.1 + 0.001 * id});
  }
  return slice;
}

TEST(LiveRecoveryTest, StaleEpochRecordsAreSkippedOnRead) {
  const std::string path = test::TempPath("stale_epoch.log");
  WalHeader header;
  header.shard = 3;
  header.seal_epoch = 5;
  header.sealed_through = 10;
  {
    auto wal = WriteAheadLog::Create(path, header);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    ASSERT_TRUE((*wal)->Append(5, MakeSlice(11, {1, 2})).ok());
    ASSERT_TRUE((*wal)->Append(3, MakeSlice(11, {3})).ok());  // stale
    ASSERT_TRUE((*wal)->Append(5, MakeSlice(12, {1})).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto contents = ReadWalFile(path, 3);
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_FALSE(contents->torn);
  EXPECT_EQ(contents->stale_records, 1u);
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[0].slice.tick, 11);
  EXPECT_EQ(contents->records[1].slice.tick, 12);
}

TEST(LiveRecoveryTest, FutureEpochRecordIsCorruptionNotData) {
  const std::string path = test::TempPath("future_epoch.log");
  WalHeader header;
  header.shard = 0;
  header.seal_epoch = 2;
  header.sealed_through = kNoTickYet;
  {
    auto wal = WriteAheadLog::Create(path, header);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    ASSERT_TRUE((*wal)->Append(2, MakeSlice(1, {1})).ok());
    ASSERT_TRUE((*wal)->Append(7, MakeSlice(2, {2})).ok());  // forged future
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto contents = ReadWalFile(path, 0);
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_TRUE(contents->torn);  // parse stops AT the forgery
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].slice.tick, 1);
}

TEST(LiveRecoveryTest, WrongShardHeaderIsRejected) {
  const std::string path = test::TempPath("wrong_shard.log");
  WalHeader header;
  header.shard = 2;
  header.seal_epoch = 0;
  header.sealed_through = kNoTickYet;
  {
    auto wal = WriteAheadLog::Create(path, header);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
  }
  auto contents = ReadWalFile(path, 0);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
}

TEST(LiveRecoveryTest, ForgedForeignIdRecordFailsRecovery) {
  ActiveLogFixture fx;
  fx.Build("foreign_dir");

  // Re-route the fixture as a 2-shard layout is impossible (the log was
  // written single-shard); instead forge a CRC-VALID record directly into
  // a 2-shard repository's shard-0 log carrying an id owned by shard 1.
  const std::string dir = FreshDir("foreign2_dir");
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 0;
  options.watermark_points = 0;
  options.wal_sync_interval = 1;
  ShardMap map;
  {
    auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    map = (*opened)->shard_map();
    PointBatch batch(1);
    batch.Add(1, Point{-8.6, 41.1});
    batch.Add(2, Point{-8.61, 41.11});
    ASSERT_TRUE((*opened)->Append(batch).ok());
    ASSERT_TRUE((*opened)->SyncWal().ok());
  }
  TrajId foreign = 0;
  while (map.ShardOf(foreign) != 1) ++foreign;

  // Hand-frame the forged record (epoch 0, a later tick, one point) and
  // splice it onto shard 0's log. The CRC is honest — only the ROUTING is
  // forged — so the reader accepts it and recovery must catch it.
  ByteWriter payload;
  payload.WriteU64(0);
  payload.WriteI32(5);
  payload.WriteU32(1);
  payload.WriteI32(foreign);
  payload.WriteF64(-8.6);
  payload.WriteF64(41.1);
  ByteWriter frame;
  frame.WriteU32(static_cast<uint32_t>(payload.size()));
  frame.WriteU32(Crc32(payload.buffer().data(), payload.size()));
  frame.WriteBytes(payload.buffer().data(), payload.size());

  const std::string wal0 = dir + "/" + WalFileName(0);
  auto bytes = test::ReadFileBytes(wal0);
  bytes.insert(bytes.end(), frame.buffer().begin(), frame.buffer().end());
  test::WriteFileBytes(wal0, bytes);

  auto recovered = OpenLiveRepository(dir, PpqAFactory(), options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------------------
// Hostile truncation sweep: no prefix length may crash the reader
// -------------------------------------------------------------------------

TEST(LiveRecoveryTest, TruncationAtEveryBoundarySurvivesTheReader) {
  const std::string path = test::TempPath("sweep.log");
  WalHeader header;
  header.shard = 0;
  header.seal_epoch = 1;
  header.sealed_through = 4;
  {
    auto wal = WriteAheadLog::Create(path, header);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    ASSERT_TRUE((*wal)->Append(1, MakeSlice(5, {1, 2, 3})).ok());
    ASSERT_TRUE((*wal)->Append(1, MakeSlice(6, {2})).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  const auto full = test::ReadFileBytes(path);
  ASSERT_GT(full.size(), kWalHeaderBytes);

  const std::string cut = test::TempPath("sweep_cut.log");
  for (size_t len = 0; len <= full.size(); ++len) {
    test::WriteFileBytes(
        cut, std::vector<uint8_t>(full.begin(), full.begin() + len));
    auto contents = ReadWalFile(cut, 0);
    if (len < full.size()) {
      // Every strict prefix is either a tolerated tear (the valid record
      // prefix survives), a clean parse at an exact record boundary, or a
      // clean Status error. Never a crash, never phantom data.
      if (contents.ok()) {
        EXPECT_LE(contents->records.size(), 2u);
        if (!contents->torn) {
          // Untorn strict prefixes can only end at a record boundary, so
          // both records can never materialise from a truncated file.
          EXPECT_LT(contents->records.size(), 2u) << "prefix length " << len;
        }
      }
    } else {
      ASSERT_TRUE(contents.ok()) << contents.status().message();
      EXPECT_FALSE(contents->torn);
      ASSERT_EQ(contents->records.size(), 2u);
      EXPECT_EQ(contents->records[1].slice.ids.size(), 1u);
    }
  }
}

// -------------------------------------------------------------------------
// Concurrent producers on a durable repository (TSan coverage)
// -------------------------------------------------------------------------

TEST(LiveRecoveryTest, ConcurrentDurableAppendsThenRecover) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const std::string dir = FreshDir("concurrent_dir");
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 2;
  options.watermark_ticks = 6;
  options.watermark_points = 0;
  options.wal_sync_interval = 4;  // group commit exercised under contention

  auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const auto live = *opened;

  // Two producers split every tick's batch and append concurrently
  // (same-tick concurrent Append is the documented contract).
  std::atomic<size_t> failures{0};
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (batch.empty()) continue;
    const size_t half = batch.size() / 2;
    PointBatch first(t);
    PointBatch second(t);
    for (size_t i = 0; i < batch.size(); ++i) {
      (i < half ? first : second).Add(batch.ids[i], batch.positions[i]);
    }
    std::thread worker([&live, &failures, second = std::move(second)]() {
      if (!second.empty() && !live->Append(second).ok()) ++failures;
    });
    if (!first.empty() && !live->Append(first).ok()) ++failures;
    worker.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  ASSERT_TRUE(live->SyncWal().ok());
  EXPECT_TRUE(live->DurabilityError().ok());

  const std::string crash_dir = CrashImage(dir, "concurrent_crash");
  auto recovered = OpenLiveRepository(crash_dir, PpqAFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->TotalPointsAppended(),
            PointsThrough(*data, data->MaxTick()));
  ExpectExactParity(*recovered, data, data->MaxTick(), /*query_seed=*/9);
}

// -------------------------------------------------------------------------
// Write-path stage reporting
// -------------------------------------------------------------------------

TEST(LiveRecoveryTest, DurableIngestObservesEveryStage) {
  // Every write-path stage of every shard reports into its histogram:
  // append, flush, seal and persist, and the WAL's append, sync and
  // rotate.
  const TrajectoryDataset data = SmallDataset();
  const std::string dir = FreshDir("stages_dir");
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 8;
  options.watermark_points = 0;
  options.wal_sync_interval = 4;

  const char* const kStages[] = {
      "ppq_ingest_append_micros", "ppq_ingest_flush_micros",
      "ppq_ingest_seal_micros",   "ppq_ingest_persist_micros",
      "ppq_wal_append_micros",    "ppq_wal_sync_micros",
      "ppq_wal_rotate_micros"};
  obs::Registry& registry = obs::Registry::Default();
  const auto counts = [&] {
    std::vector<uint64_t> out;
    for (uint32_t shard = 0; shard < options.num_shards; ++shard) {
      for (const char* stage : kStages) {
        out.push_back(registry.GetHistogram(stage, obs::ShardLabel(shard))
                          ->Snapshot()
                          .count);
      }
    }
    return out;
  };
  const std::vector<uint64_t> before = counts();

  auto opened = LiveRepository::Open(dir, PpqAFactory(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  IngestThrough(**opened, data, data.MaxTick());
  (*opened)->RollAll();
  (*opened)->Quiesce();
  EXPECT_TRUE((*opened)->DurabilityError().ok());

  const std::vector<uint64_t> after = counts();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_GT(after[i], before[i])
        << kStages[i % std::size(kStages)] << " on shard "
        << i / std::size(kStages);
  }
}

}  // namespace
}  // namespace ppq::repo
