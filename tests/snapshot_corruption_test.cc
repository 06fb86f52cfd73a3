#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/fsio.h"
#include "core/ppq_trajectory.h"
#include "core/serialization.h"
#include "tests/test_util.h"

/// \file snapshot_corruption_test.cc
/// Hostile-input hardening for every load path: truncations at (and
/// around) every section boundary, bit flips at seeded pseudo-random
/// offsets, wrong magics, and future format versions must all yield a
/// clean Status error — never a crash, an out-of-bounds read, or an
/// unbounded allocation. The suite runs under ASan/UBSan in CI, which is
/// what turns "returned an error" into "and touched no memory it
/// shouldn't have".
///
/// Determinism: all "random" offsets come from a fixed-seed LCG — no
/// wall-clock anywhere, so failures replay exactly.

namespace ppq::core {
namespace {

using test::ReadFileBytes;
using test::TempPath;
using test::WriteFileBytes;

/// Minimal deterministic PRNG (64-bit LCG, MMIX constants).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  }
};

/// A small but fully-featured snapshot container: CQC summary + TPI.
std::vector<uint8_t> MakeSnapshotBytes() {
  const TrajectoryDataset data = test::MakePortoDataset({20, 30, 10, 30, 6});
  auto method = MakeMethod("PPQ-A", PpqOptions{});
  method->Compress(data);
  const std::string path = TempPath("corruption_base.snapshot");
  EXPECT_TRUE(method->Seal()->Save(path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

TEST(SnapshotCorruptionTest, TruncationAtEverySectionBoundaryFailsCleanly) {
  const std::vector<uint8_t> intact = MakeSnapshotBytes();
  auto parsed = SectionReader::Parse(intact);
  ASSERT_TRUE(parsed.ok());

  // Candidate cut points: the fixed-header edges, every section edge (and
  // one byte either side), plus a seeded spread through the payloads.
  std::vector<size_t> cuts = {0, 1, 7, 8, 12, 15, 16,
                              parsed->HeaderBytes() - 1,
                              parsed->HeaderBytes()};
  for (const auto& section : parsed->sections()) {
    for (const size_t edge : {section.offset, section.offset + section.length}) {
      if (edge > 0) cuts.push_back(edge - 1);
      cuts.push_back(edge);
      cuts.push_back(edge + 1);
    }
  }
  Lcg rng(0xC0FFEE);
  for (int i = 0; i < 50; ++i) cuts.push_back(rng.Next() % intact.size());

  const std::string path = TempPath("truncated.snapshot");
  for (const size_t cut : cuts) {
    if (cut >= intact.size()) continue;
    WriteFileBytes(path, std::vector<uint8_t>(intact.begin(),
                                          intact.begin() + cut));
    const auto result = OpenSnapshot(path);
    EXPECT_FALSE(result.ok()) << "truncation at byte " << cut
                              << " must not open";
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, EverySingleBitFlipIsDetected) {
  const std::vector<uint8_t> intact = MakeSnapshotBytes();
  ASSERT_FALSE(intact.empty());
  // Every byte of the container is covered by a CRC (payloads by their
  // section entry, header and table by the header CRC, the CRCs by
  // mismatch), so EVERY flip must be rejected, not just most.
  Lcg rng(0xDEADBEEF);
  const std::string path = TempPath("bitflip.snapshot");
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = intact;
    const size_t offset = rng.Next() % mutated.size();
    const int bit = static_cast<int>(rng.Next() % 8);
    mutated[offset] ^= static_cast<uint8_t>(1u << bit);
    WriteFileBytes(path, mutated);
    const auto result = OpenSnapshot(path);
    EXPECT_FALSE(result.ok())
        << "bit " << bit << " at offset " << offset << " went undetected";
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, AppendedGarbageIsRejected) {
  std::vector<uint8_t> bytes = MakeSnapshotBytes();
  ASSERT_FALSE(bytes.empty());
  bytes.push_back(0x00);
  const std::string path = TempPath("padded.snapshot");
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, WrongMagicIsInvalid) {
  std::vector<uint8_t> bytes = MakeSnapshotBytes();
  bytes[0] = 'X';
  const std::string path = TempPath("magic.snapshot");
  WriteFileBytes(path, bytes);
  EXPECT_EQ(OpenSnapshot(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, FutureContainerVersionIsRejected) {
  // Handcraft a structurally valid, correctly checksummed container whose
  // version is from the future: the version gate itself must fire.
  ByteWriter header;
  const char magic[8] = {'P', 'P', 'Q', 'S', 'N', 'A', 'P', '1'};
  header.WriteBytes(magic, sizeof(magic));
  header.WriteU32(kContainerVersion + 1);
  header.WriteU32(0);  // no sections
  ByteWriter file;
  file.WriteBytes(header.buffer().data(), header.size());
  file.WriteU32(Crc32(header.buffer().data(), header.size()));

  const std::string path = TempPath("future.snapshot");
  WriteFileBytes(path, file.buffer());
  const auto result = OpenSnapshot(path);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version"), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, HostilePointTableSpanIsRejected) {
  // A correctly-checksummed container whose PNTS section claims a
  // trajectory starting at INT32_MAX (which would overflow Tick
  // arithmetic in MaterializedSnapshot::Reconstruct) must be rejected at
  // open time — the CRCs protect against flips, not forged field values.
  SectionWriter writer;
  ByteWriter* meta = writer.AddSection(kSectionMeta);
  meta->WriteU32(1);  // META version
  meta->WriteU8(2);   // kind = materialized
  meta->WriteString("forged");
  meta->WriteF64(0.0);  // local-search radius
  meta->WriteU64(0);    // summary bytes
  meta->WriteU64(0);    // codewords
  ByteWriter* pnts = writer.AddSection(kSectionPoints);
  pnts->WriteU64(1);  // one trajectory
  pnts->WriteI32(0);  // id
  pnts->WriteI32(std::numeric_limits<int32_t>::max());  // forged start
  pnts->WriteU64(1);  // one point
  pnts->WriteF64(0.0);
  pnts->WriteF64(0.0);

  const std::string path = TempPath("hostile_span.snapshot");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  const auto result = OpenSnapshot(path);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, EmptyAndTinyFilesFailCleanly) {
  const std::string path = TempPath("tiny.snapshot");
  for (const size_t size : {size_t{0}, size_t{1}, size_t{8}, size_t{15}}) {
    WriteFileBytes(path, std::vector<uint8_t>(size, 0xAB));
    EXPECT_FALSE(OpenSnapshot(path).ok()) << size << "-byte file";
  }
  std::remove(path.c_str());
}

/// A SUMM body (from the prediction order on, as the legacy v1 file and
/// the v2 payload share it) with one one-coefficient set at each of
/// \p ticks, in the given order, and one warm-up point that needs none.
std::vector<uint8_t> SummaryBodyWithCoefficientTicks(
    const std::vector<Tick>& ticks) {
  ByteWriter body;
  body.WriteI32(1);    // prediction order
  body.WriteU8(0);     // no CQC
  body.WriteU64(1);    // one codeword
  body.WriteF64(0.0);
  body.WriteF64(0.0);
  body.WriteU64(0);    // no tick codebooks
  body.WriteU64(ticks.size());
  for (const Tick t : ticks) {
    body.WriteI32(t);
    body.WriteU64(1);  // one partition
    body.WriteU64(1);  // one coefficient
    body.WriteF64(1.0);
  }
  body.WriteU64(1);    // one record
  body.WriteI32(0);    // id
  body.WriteI32(0);    // start tick
  body.WriteU64(1);    // one point
  body.WriteI32(-1);   // warm-up partition
  body.WriteI32(0);    // codeword
  body.WriteU64(0);    // cqc bits
  body.WriteI32(0);    // cqc length
  return body.buffer();
}

TEST(SnapshotCorruptionTest, ForgedCoefficientTickOrderIsRejected) {
  // The coefficient table is tick-sorted and no writer emits a tick twice
  // or out of order, so a CRC-valid SUMM section that does is forged. It
  // must fail in a PPQSNAP1 snapshot, in a summary container and in a
  // legacy v1 file; the ascending row is the control.
  struct Row {
    const char* name;
    std::vector<Tick> ticks;
    bool valid;
  };
  const Row rows[] = {{"ascending", {2, 3, 5}, true},
                      {"repeated", {2, 3, 3}, false},
                      {"descending", {2, 5, 3}, false}};
  const char legacy_magic[8] = {'P', 'P', 'Q', 'S', 'U', 'M', '0', '1'};
  const std::string path = TempPath("forged_coefficients");
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const std::vector<uint8_t> body =
        SummaryBodyWithCoefficientTicks(row.ticks);
    const StatusCode want =
        row.valid ? StatusCode::kOk : StatusCode::kInvalidArgument;

    SectionWriter snapshot;
    ByteWriter* meta = snapshot.AddSection(kSectionMeta);
    meta->WriteU32(1);  // META version
    meta->WriteU8(1);   // kind = PPQ summary
    meta->WriteString("forged");
    meta->WriteF64(0.0);  // local-search radius
    meta->WriteU64(0);    // summary bytes
    meta->WriteU64(1);    // codewords
    ByteWriter* summ = snapshot.AddSection(kSectionSummary);
    summ->WriteU32(kSummaryFormatVersion);
    summ->WriteBytes(body.data(), body.size());
    ASSERT_TRUE(snapshot.WriteFile(path).ok());
    EXPECT_EQ(OpenSnapshot(path).status().code(), want) << "snapshot";

    SectionWriter container;
    ByteWriter* only = container.AddSection(kSectionSummary);
    only->WriteU32(kSummaryFormatVersion);
    only->WriteBytes(body.data(), body.size());
    ASSERT_TRUE(container.WriteFile(path).ok());
    EXPECT_EQ(LoadSummary(path).status().code(), want) << "container";

    ByteWriter legacy;
    legacy.WriteBytes(legacy_magic, sizeof(legacy_magic));
    legacy.WriteU32(kLegacySummaryFormatVersion);
    legacy.WriteBytes(body.data(), body.size());
    WriteFileBytes(path, legacy.buffer());
    EXPECT_EQ(LoadSummary(path).status().code(), want) << "legacy v1";
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------------------------
// Crash-safe saves: a failed re-save must never destroy the valid file
// -------------------------------------------------------------------------

/// Clears the fsio fault hooks on every exit path (including assertion
/// bail-outs) so one failing test cannot poison the rest of the process.
struct FaultHookGuard {
  ~FaultHookGuard() {
    SetWriteFaultBudgetForTesting(-1);
    SetCommitFaultForTesting(false);
  }
};

TEST(SnapshotCorruptionTest, PartialWriteCannotDestroyAValidSnapshot) {
  FaultHookGuard guard;
  const std::vector<uint8_t> intact = MakeSnapshotBytes();
  const std::string path = TempPath("atomic_save.snapshot");
  WriteFileBytes(path, intact);
  ASSERT_TRUE(OpenSnapshot(path).ok());

  // Re-save over the valid file with the write budget exhausted partway:
  // the historical code streamed straight into `path`, so this exact
  // fault left a truncated, unopenable file behind. The atomic protocol
  // (tmp + fsync + rename) must fail the save and leave `path` alone.
  const TrajectoryDataset data = test::MakePortoDataset({20, 30, 10, 30, 6});
  auto method = MakeMethod("PPQ-A", PpqOptions{});
  method->Compress(data);
  for (const long long budget : {0LL, 1LL, 64LL,
                                 static_cast<long long>(intact.size() / 2)}) {
    SetWriteFaultBudgetForTesting(budget);
    const Status save = method->Seal()->Save(path);
    SetWriteFaultBudgetForTesting(-1);
    EXPECT_FALSE(save.ok()) << "budget " << budget;
    EXPECT_EQ(ReadFileBytes(path), intact)
        << "budget " << budget << ": partial save mutated the target";
    EXPECT_TRUE(OpenSnapshot(path).ok());
  }
  // No tmp debris left behind either.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, FailedCloseFlushIsAnErrorNotSilentTruncation) {
  FaultHookGuard guard;
  const std::vector<uint8_t> intact = MakeSnapshotBytes();
  const std::string path = TempPath("enospc_close.snapshot");
  WriteFileBytes(path, intact);

  // The /dev/full shape: every write() succeeds into the page cache, the
  // final flush at close fails. Both writers used to check `if (!out)`
  // BEFORE close, reporting OK over a truncated file.
  const TrajectoryDataset data = test::MakePortoDataset({20, 30, 10, 30, 6});
  auto method = MakeMethod("PPQ-A", PpqOptions{});
  method->Compress(data);
  SetCommitFaultForTesting(true);
  const Status save = method->Seal()->Save(path);
  SetCommitFaultForTesting(false);
  EXPECT_FALSE(save.ok());
  EXPECT_EQ(ReadFileBytes(path), intact) << "failed close mutated the target";
  EXPECT_TRUE(OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

// -------------------------------------------------------------------------
// Legacy v1 summary files (no checksums — truncation must still fail
// cleanly; flips must at worst decode to garbage, never crash)
// -------------------------------------------------------------------------

std::vector<uint8_t> MakeLegacyStyleSummaryBytes() {
  // The current writer frames summaries in the container; to harden the
  // legacy decode path itself we synthesise a v1 flat image: magic,
  // version, then the identical body the v2 payload uses.
  const TrajectoryDataset data = test::MakePortoDataset({15, 25, 8, 25, 9});
  PpqOptions options = MakePpqS();
  options.enable_index = false;
  PpqTrajectory method(options);
  method.Compress(data);

  ByteWriter body;
  EncodeSummary(method.summary(), &body);
  ByteWriter file;
  const char magic[8] = {'P', 'P', 'Q', 'S', 'U', 'M', '0', '1'};
  file.WriteBytes(magic, sizeof(magic));
  file.WriteU32(kLegacySummaryFormatVersion);
  // Strip the v2 payload's leading version word; v1 bodies start at the
  // prediction order.
  file.WriteBytes(body.buffer().data() + 4, body.size() - 4);
  return file.buffer();
}

TEST(LegacySummaryCorruptionTest, RoundTripSanity) {
  const std::vector<uint8_t> intact = MakeLegacyStyleSummaryBytes();
  const std::string path = TempPath("legacy_sane.summary");
  WriteFileBytes(path, intact);
  auto loaded = LoadSummary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->NumTrajectories(), 0u);
  std::remove(path.c_str());
}

TEST(LegacySummaryCorruptionTest, EveryTruncationFailsCleanly) {
  const std::vector<uint8_t> intact = MakeLegacyStyleSummaryBytes();
  ASSERT_FALSE(intact.empty());
  Lcg rng(0xFEEDFACE);
  std::vector<size_t> cuts = {0, 4, 8, 11, 12, 13, 16};
  for (int i = 0; i < 60; ++i) cuts.push_back(rng.Next() % intact.size());
  const std::string path = TempPath("legacy_trunc.summary");
  for (const size_t cut : cuts) {
    if (cut >= intact.size()) continue;
    WriteFileBytes(path, std::vector<uint8_t>(intact.begin(),
                                          intact.begin() + cut));
    EXPECT_FALSE(LoadSummary(path).ok()) << "truncation at byte " << cut;
  }
  std::remove(path.c_str());
}

TEST(LegacySummaryCorruptionTest, BitFlipsNeverCrash) {
  // v1 has no checksums, so a flip may decode into a (wrong) summary —
  // but it must never crash, read out of bounds, or blow up allocation;
  // ASan/UBSan in CI enforce the memory half of that contract.
  const std::vector<uint8_t> intact = MakeLegacyStyleSummaryBytes();
  ASSERT_FALSE(intact.empty());
  Lcg rng(0xB16B00B5);
  const std::string path = TempPath("legacy_flip.summary");
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<uint8_t> mutated = intact;
    const size_t offset = rng.Next() % mutated.size();
    mutated[offset] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
    WriteFileBytes(path, mutated);
    const auto result = LoadSummary(path);  // ok-or-error; just no UB
    (void)result;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppq::core
