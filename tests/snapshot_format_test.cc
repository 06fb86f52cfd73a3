#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/trajstore.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/serialization.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

/// \file snapshot_format_test.cc
/// Durable-snapshot format coverage: golden-file byte-stability (a fresh
/// Save must reproduce the checked-in fixture bit for bit), and the
/// restart guarantee — a snapshot Save'd, then OpenSnapshot'd from the
/// golden written by an earlier process, serves STRQ (all modes), window,
/// and kNN results byte-identical to the in-memory Seal(), at 1 and 4
/// threads.
///
/// Regenerating fixtures after an INTENTIONAL format change:
///   PPQ_UPDATE_GOLDEN=1 ctest --test-dir build -R SnapshotGolden
/// then commit tests/golden/ and bump the relevant format version.

namespace ppq::core {
namespace {

using test::ReadFileBytes;
using test::TempPath;
using test::WriteFileBytes;

std::string GoldenPath(const char* name) {
  return std::string(PPQ_TEST_GOLDEN_DIR) + "/" + name;
}

bool UpdateGolden() { return std::getenv("PPQ_UPDATE_GOLDEN") != nullptr; }

/// The fixed dataset every golden fixture is generated from. Any change
/// here invalidates the fixtures — regenerate via PPQ_UPDATE_GOLDEN.
TrajectoryDataset GoldenDataset() {
  return test::MakePortoDataset({24, 40, 12, 40, 2026});
}

constexpr StrqMode kAllModes[] = {StrqMode::kApproximate,
                                  StrqMode::kLocalSearch, StrqMode::kExact};

/// Serve the full mixed workload from \p snapshot and \p reference (the
/// in-memory seal) and require byte-identical results at 1 and 4 threads.
void ExpectServesIdentically(const SnapshotPtr& loaded,
                             const SnapshotPtr& reference,
                             const TrajectoryDataset& data, double cell_size,
                             const std::string& label) {
  Rng rng(17);
  const auto queries = SampleQueries(data, 50, &rng);
  const auto windows = test::SampleWindows(data, 25, &rng);
  constexpr size_t kK = 5;
  // The serving stack owns its verification data (shared_ptr).
  const auto raw = std::make_shared<const TrajectoryDataset>(data);

  // The full mixed request stream: every request type x StrqMode.
  std::vector<QueryRequest> requests;
  for (const StrqMode mode : kAllModes) {
    for (const QuerySpec& q : queries) requests.push_back(StrqRequest{q, mode});
    for (const WindowSpec& w : windows) {
      requests.push_back(WindowRequest{w, mode});
    }
  }
  for (const QuerySpec& q : queries) requests.push_back(KnnRequest{q, kK});

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    QueryService::Options options;
    options.num_threads = threads;
    options.raw = raw;
    options.cell_size = cell_size;
    QueryService expected(reference, options);
    QueryService actual(loaded, options);
    auto expected_futures = expected.SubmitBatch(requests);
    auto actual_futures = actual.SubmitBatch(requests);
    ASSERT_EQ(expected_futures.size(), actual_futures.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse want = expected_futures[i].get();
      const QueryResponse got = actual_futures[i].get();
      EXPECT_TRUE(got.ok()) << label << ": request " << i;
      EXPECT_EQ(got.result, want.result)
          << label << ": request " << i << " @" << threads << "t";
    }
  }
}

// -------------------------------------------------------------------------
// Golden files
// -------------------------------------------------------------------------

struct GoldenCase {
  const char* file;
  /// Builds the compressor and returns its seal.
  SnapshotPtr (*seal)(const TrajectoryDataset&);
  double cell_size;
};

/// GoogleTest puts the printed parameter into every registered test name.
/// Printed by default, this struct dumps its raw bytes, pointers included,
/// and those change with the binary's layout and with each process's
/// address randomization; the fixture's file name is stable.
void PrintTo(const GoldenCase& test_case, std::ostream* os) {
  *os << test_case.file;
}

SnapshotPtr SealPpqA(const TrajectoryDataset& data) {
  auto method = MakeMethod("PPQ-A", PpqOptions{});
  method->Compress(data);
  return method->Seal();
}

/// A seal cut halfway, before Finish(): its index is not finalized, so
/// the container carries raw id lists — the form every live seal writes.
SnapshotPtr SealPpqAMidStream(const TrajectoryDataset& data) {
  auto method = MakeMethod("PPQ-A", PpqOptions{});
  const Tick mid = (data.MinTick() + data.MaxTick()) / 2;
  for (Tick t = data.MinTick(); t < mid; ++t) {
    const TimeSlice slice = data.SliceAt(t);
    if (!slice.empty()) method->ObserveSlice(slice);
  }
  return method->Seal();
}

SnapshotPtr SealTrajStore(const TrajectoryDataset& data) {
  baselines::TrajStore::Options options;
  options.region = {-9.0, 41.0, -8.0, 41.5};
  baselines::TrajStore method(options);
  method.Compress(data);
  return method.Seal();
}

class SnapshotGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SnapshotGolden, FreshSaveMatchesGoldenByteForByte) {
  const GoldenCase& test_case = GetParam();
  const TrajectoryDataset data = GoldenDataset();
  const SnapshotPtr snapshot = test_case.seal(data);

  const std::string fresh = TempPath(test_case.file);
  ASSERT_TRUE(snapshot->Save(fresh).ok());
  const std::vector<uint8_t> fresh_bytes = ReadFileBytes(fresh);
  std::remove(fresh.c_str());

  if (UpdateGolden()) {
    WriteFileBytes(GoldenPath(test_case.file), fresh_bytes);
    GTEST_SKIP() << "golden updated: " << test_case.file;
  }
  const std::vector<uint8_t> golden_bytes = ReadFileBytes(GoldenPath(test_case.file));
  ASSERT_FALSE(golden_bytes.empty());
  // Byte equality — not just parseability — so accidental format drift
  // (field order, endianness, map iteration order) fails loudly.
  EXPECT_TRUE(fresh_bytes == golden_bytes)
      << test_case.file << ": fresh Save diverges from golden ("
      << fresh_bytes.size() << " vs " << golden_bytes.size()
      << " bytes); if the format change is intentional, regenerate with "
         "PPQ_UPDATE_GOLDEN=1 and bump the format version";
}

TEST_P(SnapshotGolden, GoldenOpensAndServesIdenticallyToSeal) {
  if (UpdateGolden()) GTEST_SKIP();
  const GoldenCase& test_case = GetParam();
  const TrajectoryDataset data = GoldenDataset();
  const SnapshotPtr reference = test_case.seal(data);

  // The golden was written by an earlier process: opening it IS the
  // process-restart path.
  auto loaded = OpenSnapshot(GoldenPath(test_case.file));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), reference->name());
  EXPECT_EQ((*loaded)->NumTrajectories(), reference->NumTrajectories());
  EXPECT_EQ((*loaded)->NumCodewords(), reference->NumCodewords());
  EXPECT_DOUBLE_EQ((*loaded)->LocalSearchRadius(),
                   reference->LocalSearchRadius());
  ExpectServesIdentically(*loaded, reference, data, test_case.cell_size,
                          test_case.file);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, SnapshotGolden,
    ::testing::Values(GoldenCase{"ppq_a.snapshot", &SealPpqA, 0.001},
                      GoldenCase{"trajstore.snapshot", &SealTrajStore,
                                 0.001},
                      GoldenCase{"ppq_a_midstream.snapshot",
                                 &SealPpqAMidStream, 0.001}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.index == 0   ? "PpqA"
             : info.index == 1 ? "TrajStore"
                               : "PpqAMidStream";
    });

// -------------------------------------------------------------------------
// Save / Open round-trip across the method family
// -------------------------------------------------------------------------

class SnapshotRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotRoundTrip, OpenedSnapshotServesIdentically) {
  const TrajectoryDataset data = test::MakePortoDataset({40, 50, 15, 50, 77});
  PpqOptions base;
  auto method = MakeMethod(GetParam(), base);
  method->Compress(data);
  const SnapshotPtr sealed = method->Seal();

  const std::string path = TempPath("roundtrip.snapshot");
  ASSERT_TRUE(sealed->Save(path).ok());
  auto loaded = OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectServesIdentically(*loaded, sealed, data, base.tpi.pi.cell_size,
                          GetParam());
}

INSTANTIATE_TEST_SUITE_P(MakeMethodFamily, SnapshotRoundTrip,
                         ::testing::Values("PPQ-A", "PPQ-A-basic", "PPQ-S",
                                           "PPQ-S-basic", "E-PQ",
                                           "Q-trajectory"));

TEST(SnapshotRoundTripTest, MaterializedSnapshotRoundTrips) {
  const TrajectoryDataset data = test::MakePortoDataset({40, 50, 15, 50, 5});
  baselines::TrajStore::Options options;
  options.region = {-9.0, 41.0, -8.0, 41.5};
  baselines::TrajStore method(options);
  method.Compress(data);
  const SnapshotPtr sealed = method.Seal();

  const std::string path = TempPath("trajstore_rt.snapshot");
  ASSERT_TRUE(sealed->Save(path).ok());
  auto loaded = OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->SummaryBytes(), sealed->SummaryBytes());
  EXPECT_EQ((*loaded)->NumCodewords(), sealed->NumCodewords());
  ExpectServesIdentically(*loaded, sealed, data, options.tpi.pi.cell_size,
                          "TrajStore");
}

TEST(SnapshotRoundTripTest, FixedPerTickModeRoundTrips) {
  const TrajectoryDataset data = test::MakePortoDataset({40, 50, 15, 50, 21});
  PpqOptions options = MakePpqA();
  options.mode = QuantizationMode::kFixedPerTick;
  options.fixed_bits = 6;
  PpqTrajectory method(options);
  method.Compress(data);
  const SnapshotPtr sealed = method.Seal();

  const std::string path = TempPath("fixed_rt.snapshot");
  ASSERT_TRUE(sealed->Save(path).ok());
  auto loaded = OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectServesIdentically(*loaded, sealed, data, options.tpi.pi.cell_size,
                          "PPQ-A fixed");
}

TEST(SnapshotRoundTripTest, NoIndexSnapshotRoundTrips) {
  const TrajectoryDataset data = test::MakePortoDataset({20, 30, 10, 30, 3});
  PpqOptions options = MakePpqS();
  options.enable_index = false;
  PpqTrajectory method(options);
  method.Compress(data);
  const SnapshotPtr sealed = method.Seal();
  ASSERT_EQ(sealed->index(), nullptr);

  const std::string path = TempPath("noindex.snapshot");
  ASSERT_TRUE(sealed->Save(path).ok());
  auto loaded = OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->index(), nullptr);
  // Reconstruction still round-trips exactly.
  DecodeMemo memo;
  for (const Trajectory& traj : data.trajectories()) {
    const Tick t = traj.start_tick;
    const auto a = sealed->Reconstruct(traj.id, t, &memo);
    const auto b = (*loaded)->Reconstruct(traj.id, t, &memo);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->x, b->x);
    EXPECT_EQ(a->y, b->y);
  }
}

TEST(SnapshotRoundTripTest, MidStreamSealRoundTrips) {
  // A seal cut before Finish() has an un-finalized TPI (raw id lists);
  // the container must carry that state too.
  const TrajectoryDataset data = test::MakePortoDataset({40, 50, 15, 50, 31});
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  const Tick mid = (data.MinTick() + data.MaxTick()) / 2;
  for (Tick t = data.MinTick(); t < mid; ++t) {
    const TimeSlice slice = data.SliceAt(t);
    if (!slice.empty()) method.ObserveSlice(slice);
  }
  const SnapshotPtr sealed = method.Seal();

  const std::string path = TempPath("midstream.snapshot");
  ASSERT_TRUE(sealed->Save(path).ok());
  auto loaded = OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectServesIdentically(*loaded, sealed, data, options.tpi.pi.cell_size,
                          "mid-stream");
}

// -------------------------------------------------------------------------
// Loader I/O accounting
// -------------------------------------------------------------------------

TEST(SnapshotIoTest, ColdOpenCostObservableThroughPageManager) {
  const TrajectoryDataset data = test::MakePortoDataset({30, 40, 12, 40, 8});
  const SnapshotPtr sealed = SealPpqA(data);
  const std::string path = TempPath("iostats.snapshot");

  storage::PageManager write_pager(/*page_size_bytes=*/4096);
  ASSERT_TRUE(sealed->Save(path, &write_pager).ok());
  EXPECT_GT(write_pager.io_stats().pages_written, 0u);

  storage::PageManager read_pager(/*page_size_bytes=*/4096);
  auto loaded = OpenSnapshot(path, &read_pager);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Cold open fetches every page the container occupies.
  EXPECT_EQ(read_pager.io_stats().pages_read,
            static_cast<uint64_t>(read_pager.NumPages()));
  EXPECT_GT(read_pager.io_stats().pages_read, 0u);
}

// -------------------------------------------------------------------------
// Cross-format errors
// -------------------------------------------------------------------------

TEST(SnapshotFormatTest, MissingFileIsIOError) {
  EXPECT_EQ(OpenSnapshot("/nonexistent/nope.snapshot").status().code(),
            StatusCode::kIOError);
}

TEST(SnapshotFormatTest, SummaryContainerIsNotASnapshot) {
  // A SaveSummary container parses but has no META section.
  const TrajectoryDataset data = test::MakePortoDataset({10, 20, 8, 20, 1});
  PpqOptions options = MakePpqSBasic();
  options.enable_index = false;
  PpqTrajectory method(options);
  method.Compress(data);
  const std::string path = TempPath("summary_only.container");
  ASSERT_TRUE(SaveSummary(method.summary(), path).ok());
  const auto result = OpenSnapshot(path);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // And the reverse: LoadSummary on a snapshot container works — it holds
  // a SUMM section — so one file format serves both readers.
  const SnapshotPtr sealed = method.Seal();
  ASSERT_TRUE(sealed->Save(path).ok());
  auto summary = LoadSummary(path);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->NumTrajectories(), method.summary().NumTrajectories());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppq::core
