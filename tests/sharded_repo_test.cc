#include "repo/sharded_repository.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "repo/repository_snapshot.h"
#include "repo/shard_map.h"
#include "tests/test_util.h"

/// \file sharded_repo_test.cc
/// Writer/persistence side of the sharded repository: the shard map's
/// routing is pinned (it is an on-disk contract), a 1-shard repository is
/// bit-for-bit the unsharded pipeline — including its saved container —
/// SaveAll/OpenRepository round-trips multi-shard repositories (empty
/// shards included, serial and parallel), and every corrupted-manifest
/// shape (truncation at each byte, every single-bit flip, missing shard
/// file, shard-count mismatch, unknown hash kind, future version, path
/// escape) yields a clean Status error.

namespace ppq::repo {
namespace {

using test::ReadFileBytes;
using test::WriteFileBytes;

TrajectoryDataset SmallDataset(uint64_t seed = 77, int trajectories = 40) {
  return test::MakePortoDataset({trajectories, 50, 15, 50, seed});
}

ShardedRepository::CompressorFactory PpqAFactory() {
  return [](uint32_t /*shard*/) {
    return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
  };
}

/// Unique scratch directory per test instance (parallel-ctest safe).
std::string TempDir(const char* name) {
  const std::string dir = test::TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// -------------------------------------------------------------------------
// Shard map
// -------------------------------------------------------------------------

TEST(ShardMapTest, RoutingIsPinnedAcrossPlatformsAndRuns) {
  // These values are the persisted routing contract: a repository saved
  // with them must route identically when reopened anywhere. Changing the
  // hash is a format break and needs a new ShardHashKind value.
  const ShardMap four{4};
  EXPECT_EQ(four.ShardOf(0), 3u);
  EXPECT_EQ(four.ShardOf(1), 1u);
  EXPECT_EQ(four.ShardOf(2), 2u);
  EXPECT_EQ(four.ShardOf(6), 0u);
  const ShardMap two{2};
  EXPECT_EQ(two.ShardOf(0), 1u);
  EXPECT_EQ(two.ShardOf(2), 0u);

  for (const uint32_t n : {1u, 2u, 3u, 4u, 7u, 64u}) {
    const ShardMap map{n};
    for (TrajId id = 0; id < 500; ++id) {
      const uint32_t shard = map.ShardOf(id);
      EXPECT_LT(shard, n);
      EXPECT_EQ(shard, map.ShardOf(id));  // deterministic
    }
  }
}

TEST(ShardMapTest, SpreadsSequentialIdsAcrossAllShards) {
  // Dataset ids are dense 0..N-1; the mixer must not leave a shard cold.
  for (const uint32_t n : {2u, 4u, 8u}) {
    const ShardMap map{n};
    std::set<uint32_t> hit;
    for (TrajId id = 0; id < 256; ++id) hit.insert(map.ShardOf(id));
    EXPECT_EQ(hit.size(), n) << n << " shards";
  }
}

// -------------------------------------------------------------------------
// Ingest / seal
// -------------------------------------------------------------------------

TEST(ShardedRepositoryTest, OneShardIsByteIdenticalToUnsharded) {
  const TrajectoryDataset data = SmallDataset();

  ShardedRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 2;
  ShardedRepository repo(PpqAFactory(), options);
  repo.Compress(data);
  const RepositorySnapshotPtr sealed = repo.SealAll();

  core::PpqOptions ppq = core::MakePpqA();
  core::PpqTrajectory unsharded(ppq);
  unsharded.Compress(data);
  const core::SnapshotPtr reference = unsharded.Seal();

  ASSERT_EQ(sealed->num_shards(), 1u);
  EXPECT_EQ(sealed->NumTrajectories(), reference->NumTrajectories());
  EXPECT_EQ(sealed->SummaryBytes(), reference->SummaryBytes());

  // The strongest equality money can buy: the saved containers are
  // byte-for-byte the same file.
  const std::string shard_path = test::TempPath("one_shard.snapshot");
  const std::string reference_path = test::TempPath("unsharded.snapshot");
  ASSERT_TRUE(sealed->shard(0)->Save(shard_path).ok());
  ASSERT_TRUE(reference->Save(reference_path).ok());
  EXPECT_EQ(ReadFileBytes(shard_path), ReadFileBytes(reference_path));
  std::remove(shard_path.c_str());
  std::remove(reference_path.c_str());
}

TEST(ShardedRepositoryTest, ShardsPartitionTheDataset) {
  const TrajectoryDataset data = SmallDataset(31);
  ShardedRepository::Options options;
  options.num_shards = 4;
  options.num_threads = 4;
  ShardedRepository repo(PpqAFactory(), options);
  repo.Compress(data);
  const RepositorySnapshotPtr sealed = repo.SealAll();

  // Every trajectory landed in exactly its hash shard, and nowhere else.
  size_t total = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    total += sealed->shard(shard)->NumTrajectories();
  }
  EXPECT_EQ(total, data.size());

  // Per-shard content answers for its own ids: a reconstruction probe of
  // each trajectory's first tick succeeds on the owning shard only.
  core::DecodeMemo memo;
  for (const Trajectory& traj : data.trajectories()) {
    const uint32_t owner = sealed->shard_map().ShardOf(traj.id);
    for (uint32_t shard = 0; shard < 4; ++shard) {
      memo.Clear();
      const auto recon =
          sealed->shard(shard)->Reconstruct(traj.id, traj.start_tick, &memo);
      EXPECT_EQ(recon.ok(), shard == owner)
          << "trajectory " << traj.id << " shard " << shard;
    }
  }
}

TEST(ShardedRepositoryTest, MidStreamSealIsImmutable) {
  const TrajectoryDataset data = SmallDataset(41);
  ShardedRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 2;
  ShardedRepository repo(PpqAFactory(), options);

  const Tick mid = (data.MinTick() + data.MaxTick()) / 2;
  for (Tick t = data.MinTick(); t < mid; ++t) {
    const TimeSlice slice = data.SliceAt(t);
    if (!slice.empty()) repo.ObserveSlice(slice);
  }
  const RepositorySnapshotPtr early = repo.SealAll();
  const size_t early_total = early->NumTrajectories();

  for (Tick t = mid; t < data.MaxTick(); ++t) {
    const TimeSlice slice = data.SliceAt(t);
    if (!slice.empty()) repo.ObserveSlice(slice);
  }
  repo.Finish();
  const RepositorySnapshotPtr late = repo.SealAll();

  // The early seal kept its state; the late one saw the whole stream.
  EXPECT_EQ(early->NumTrajectories(), early_total);
  EXPECT_GE(late->NumTrajectories(), early_total);
  EXPECT_EQ(late->NumTrajectories(), data.size());
}

TEST(ShardedRepositoryTest, RejectsInvalidConstruction) {
  ShardedRepository::Options zero;
  zero.num_shards = 0;
  EXPECT_THROW(ShardedRepository(PpqAFactory(), zero), std::invalid_argument);

  // The range check must run BEFORE any member is sized by the count: a
  // hostile value throws the contractual invalid_argument, not bad_alloc
  // from a giant allocation (regression).
  ShardedRepository::Options huge;
  huge.num_shards = kMaxShards + 1;
  EXPECT_THROW(ShardedRepository(PpqAFactory(), huge), std::invalid_argument);

  ShardedRepository::Options two;
  two.num_shards = 2;
  EXPECT_THROW(ShardedRepository(
                   [](uint32_t) { return std::unique_ptr<core::Compressor>(); },
                   two),
               std::invalid_argument);
}

// -------------------------------------------------------------------------
// SaveAll / OpenRepository round trip
// -------------------------------------------------------------------------

/// Compress \p data into \p num_shards shards and SaveAll into \p dir.
RepositorySnapshotPtr SaveRepository(const TrajectoryDataset& data,
                                     uint32_t num_shards,
                                     const std::string& dir) {
  ShardedRepository::Options options;
  options.num_shards = num_shards;
  options.num_threads = 2;
  ShardedRepository repo(PpqAFactory(), options);
  repo.Compress(data);
  const RepositorySnapshotPtr sealed = repo.SealAll();
  EXPECT_TRUE(repo.SaveAll(dir).ok());
  return sealed;
}

/// The opened repository must answer exactly like the sealed one,
/// shard by shard (serial single-query probes; the full service-level
/// parity lives in sharded_serving_test.cc).
void ExpectShardsServeIdentically(const RepositorySnapshotPtr& opened,
                                  const RepositorySnapshotPtr& sealed,
                                  const TrajectoryDataset& data) {
  ASSERT_EQ(opened->num_shards(), sealed->num_shards());
  EXPECT_EQ(opened->shard_map(), sealed->shard_map());
  Rng rng(17);
  const auto queries = core::SampleQueries(data, 25, &rng);
  const double cell = core::PpqOptions{}.tpi.pi.cell_size;
  for (uint32_t shard = 0; shard < sealed->num_shards(); ++shard) {
    const core::QueryEngine want(sealed->shard(shard), &data, cell);
    const core::QueryEngine got(opened->shard(shard), &data, cell);
    for (const core::QuerySpec& q : queries) {
      EXPECT_EQ(got.Strq(q, core::StrqMode::kExact),
                want.Strq(q, core::StrqMode::kExact))
          << "shard " << shard;
      EXPECT_EQ(got.NearestTrajectories(q, 4), want.NearestTrajectories(q, 4))
          << "shard " << shard;
    }
  }
}

TEST(RepositoryPersistenceTest, MultiShardRoundTrip) {
  const TrajectoryDataset data = SmallDataset(51);
  const std::string dir = TempDir("repo_roundtrip");
  const RepositorySnapshotPtr sealed = SaveRepository(data, 3, dir);

  // Serial open and parallel open must agree.
  auto opened = OpenRepository(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectShardsServeIdentically(*opened, sealed, data);

  ThreadPool pool(4);
  auto parallel = OpenRepository(dir, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectShardsServeIdentically(*parallel, sealed, data);

  EXPECT_EQ((*opened)->NumTrajectories(), data.size());
  std::filesystem::remove_all(dir);
}

TEST(RepositoryPersistenceTest, EmptyShardsRoundTrip) {
  // 3 trajectories over 8 shards: most shards never see a point, seal
  // empty, persist empty, and reopen empty.
  const TrajectoryDataset data = SmallDataset(61, /*trajectories=*/3);
  const std::string dir = TempDir("repo_empty_shards");
  const RepositorySnapshotPtr sealed = SaveRepository(data, 8, dir);

  size_t empty = 0;
  for (uint32_t shard = 0; shard < 8; ++shard) {
    if (sealed->shard(shard)->NumTrajectories() == 0) ++empty;
  }
  ASSERT_GE(empty, 5u);  // ids {0,1,2} occupy at most 3 of 8 shards

  auto opened = OpenRepository(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->num_shards(), 8u);
  EXPECT_EQ((*opened)->NumTrajectories(), data.size());
  for (uint32_t shard = 0; shard < 8; ++shard) {
    EXPECT_EQ((*opened)->shard(shard)->NumTrajectories(),
              sealed->shard(shard)->NumTrajectories())
        << "shard " << shard;
  }
  std::filesystem::remove_all(dir);
}

TEST(RepositoryPersistenceTest, FailedResaveNeverLeavesMixedSealOpenable) {
  // Re-saving into an existing repository directory must invalidate the
  // old manifest BEFORE rewriting shard files: a save that dies midway
  // must leave the directory unopenable, never a stale manifest stitching
  // shard containers from two different seals into a "valid" repository
  // (regression).
  const TrajectoryDataset data = SmallDataset(91, /*trajectories=*/10);
  const std::string dir = TempDir("repo_resave_crash");
  const RepositorySnapshotPtr sealed = SaveRepository(data, 2, dir);
  ASSERT_TRUE(OpenRepository(dir).ok());

  // Make one shard's rewrite fail: a directory squatting on its path.
  ASSERT_TRUE(std::filesystem::remove(dir + "/shard-0001.snapshot"));
  ASSERT_TRUE(std::filesystem::create_directory(dir + "/shard-0001.snapshot"));
  const Status resave = sealed->Save(dir);
  EXPECT_FALSE(resave.ok());

  // The old manifest must be gone, so the half-rewritten directory can
  // only fail cleanly — not open as a mix of old and new shards.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + kManifestFileName));
  EXPECT_FALSE(OpenRepository(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(RepositoryPersistenceTest, ResaveOverExistingDirectoryRoundTrips) {
  // The happy path of the same invariant: a re-save over an existing
  // repository fully replaces it and reopens.
  const TrajectoryDataset data = SmallDataset(92);
  const std::string dir = TempDir("repo_resave_ok");
  SaveRepository(data, 2, dir);
  const RepositorySnapshotPtr second = SaveRepository(data, 2, dir);
  auto opened = OpenRepository(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectShardsServeIdentically(*opened, second, data);
  std::filesystem::remove_all(dir);
}

TEST(RepositoryPersistenceTest, SaveIsDeterministic) {
  const TrajectoryDataset data = SmallDataset(71);
  const std::string dir_a = TempDir("repo_det_a");
  const std::string dir_b = TempDir("repo_det_b");
  SaveRepository(data, 2, dir_a);
  SaveRepository(data, 2, dir_b);
  EXPECT_EQ(ReadFileBytes(dir_a + "/" + kManifestFileName),
            ReadFileBytes(dir_b + "/" + kManifestFileName));
  EXPECT_EQ(ReadFileBytes(dir_a + "/shard-0000.snapshot"),
            ReadFileBytes(dir_b + "/shard-0000.snapshot"));
  EXPECT_EQ(ReadFileBytes(dir_a + "/shard-0001.snapshot"),
            ReadFileBytes(dir_b + "/shard-0001.snapshot"));
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// -------------------------------------------------------------------------
// Hostile manifests
// -------------------------------------------------------------------------

/// Manifest prelude offsets (layout in repository_snapshot.cc): magic @0,
/// u32 version @8, u64 payload_len @12, u32 payload_crc @20, payload @24
/// (u32 num_shards @24, u32 hash_kind @28, u64 file_count @32, names).
constexpr size_t kVersionOffset = 8;
constexpr size_t kCrcOffset = 20;
constexpr size_t kPayloadOffset = 24;
constexpr size_t kNumShardsOffset = 24;
constexpr size_t kHashKindOffset = 28;

void PatchU32(std::vector<uint8_t>* bytes, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] = uint8_t(value >> (8 * i));
  }
}

/// Recompute the payload CRC after an intentional payload edit, so the
/// edit reaches the semantic validator instead of the checksum gate.
void FixPayloadCrc(std::vector<uint8_t>* bytes) {
  PatchU32(bytes, kCrcOffset,
           Crc32(bytes->data() + kPayloadOffset,
                 bytes->size() - kPayloadOffset));
}

class HostileManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("repo_hostile");
    SaveRepository(SmallDataset(81, /*trajectories=*/10), 2, dir_);
    manifest_path_ = dir_ + "/" + kManifestFileName;
    pristine_ = ReadFileBytes(manifest_path_);
    ASSERT_GE(pristine_.size(), kPayloadOffset + 16);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Plant \p bytes as the manifest and expect a clean failure whose
  /// message mentions \p expect_substring (empty = any error).
  void ExpectOpenFails(const std::vector<uint8_t>& bytes,
                       const std::string& expect_substring,
                       const std::string& label) {
    WriteFileBytes(manifest_path_, bytes);
    const auto opened = OpenRepository(dir_);
    ASSERT_FALSE(opened.ok()) << label;
    if (!expect_substring.empty()) {
      EXPECT_NE(opened.status().ToString().find(expect_substring),
                std::string::npos)
          << label << ": got " << opened.status().ToString();
    }
  }

  std::string dir_;
  std::string manifest_path_;
  std::vector<uint8_t> pristine_;
};

TEST_F(HostileManifestTest, TruncationAtEveryByteFailsCleanly) {
  for (size_t len = 0; len < pristine_.size(); ++len) {
    ExpectOpenFails(
        std::vector<uint8_t>(pristine_.begin(),
                             pristine_.begin() + static_cast<long>(len)),
        "", "truncated to " + std::to_string(len));
  }
}

TEST_F(HostileManifestTest, EverySingleBitFlipFailsCleanly) {
  // The prelude is structurally validated and the payload is CRC'd: no
  // single-bit flip anywhere in the file may parse.
  for (size_t byte = 0; byte < pristine_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = pristine_;
      flipped[byte] = uint8_t(flipped[byte] ^ (1u << bit));
      ExpectOpenFails(flipped, "",
                      "bit " + std::to_string(bit) + " of byte " +
                          std::to_string(byte));
    }
  }
}

TEST_F(HostileManifestTest, AppendedGarbageFailsCleanly) {
  std::vector<uint8_t> padded = pristine_;
  padded.insert(padded.end(), {0xde, 0xad, 0xbe, 0xef});
  ExpectOpenFails(padded, "size mismatch", "appended garbage");
}

TEST_F(HostileManifestTest, ShardCountMismatchFailsCleanly) {
  // 3 shards claimed, 2 shard files listed — a forged disagreement the
  // checksum cannot catch (the CRC is recomputed to match).
  std::vector<uint8_t> forged = pristine_;
  PatchU32(&forged, kNumShardsOffset, 3);
  FixPayloadCrc(&forged);
  ExpectOpenFails(forged, "shard-count mismatch", "count 3 vs 2 files");
}

TEST_F(HostileManifestTest, UnknownHashKindFailsCleanly) {
  std::vector<uint8_t> forged = pristine_;
  PatchU32(&forged, kHashKindOffset, 999);
  FixPayloadCrc(&forged);
  ExpectOpenFails(forged, "hash kind", "unknown hash kind");
}

TEST_F(HostileManifestTest, FutureVersionFailsCleanly) {
  std::vector<uint8_t> forged = pristine_;
  PatchU32(&forged, kVersionOffset, kManifestVersion + 1);
  ExpectOpenFails(forged, "unsupported version", "future version");
}

TEST_F(HostileManifestTest, BadMagicFailsCleanly) {
  std::vector<uint8_t> forged = pristine_;
  forged[0] = 'X';
  ExpectOpenFails(forged, "bad magic", "bad magic");
}

TEST_F(HostileManifestTest, PathEscapingShardNameFailsCleanly) {
  // A forged manifest must not be able to make OpenRepository read
  // outside the repository directory.
  ByteWriter payload;
  payload.WriteU32(2);
  payload.WriteU32(1);  // kSplitMix64
  payload.WriteU64(2);
  payload.WriteString("shard-0000.snapshot");
  payload.WriteString("../../../etc/hostname");
  ByteWriter out;
  const char magic[8] = {'P', 'P', 'Q', 'M', 'A', 'N', 'I', 'F'};
  out.WriteBytes(magic, sizeof(magic));
  out.WriteU32(kManifestVersion);
  out.WriteU64(payload.size());
  out.WriteU32(Crc32(payload.buffer().data(), payload.size()));
  out.WriteBytes(payload.buffer().data(), payload.size());
  ExpectOpenFails(out.buffer(), "unsafe shard file name", "path escape");
}

TEST_F(HostileManifestTest, MissingShardFileFailsCleanly) {
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/shard-0001.snapshot"));
  const auto opened = OpenRepository(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().ToString().find("cannot open"),
            std::string::npos)
      << opened.status().ToString();
}

TEST_F(HostileManifestTest, CorruptShardFileFailsCleanly) {
  // The shard container has its own CRC armor; the repository open must
  // surface its clean error, not mask or crash.
  const std::string shard_path = dir_ + "/shard-0000.snapshot";
  std::vector<uint8_t> shard_bytes = ReadFileBytes(shard_path);
  ASSERT_GT(shard_bytes.size(), 64u);
  shard_bytes.resize(shard_bytes.size() / 2);
  WriteFileBytes(shard_path, shard_bytes);
  const auto opened = OpenRepository(dir_);
  ASSERT_FALSE(opened.ok());

  // Parallel open reports the same deterministic error.
  ThreadPool pool(4);
  const auto parallel = OpenRepository(dir_, &pool);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().ToString(), opened.status().ToString());
}

TEST_F(HostileManifestTest, MissingManifestFailsCleanly) {
  ASSERT_TRUE(std::filesystem::remove(manifest_path_));
  const auto opened = OpenRepository(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ppq::repo
