#include <gtest/gtest.h>

#include "common/random.h"
#include "index/huffman.h"

namespace ppq::index {
namespace {

TEST(HuffmanTest, EmptyAlphabet) {
  const HuffmanTable table = HuffmanTable::Build({});
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.SizeBytes(), 0u);
}

TEST(HuffmanTest, SingleSymbolGetsOneBit) {
  const HuffmanTable table = HuffmanTable::Build({{7, 100}});
  EXPECT_EQ(table.AlphabetSize(), 1u);
  EXPECT_EQ(table.CodeLength(7), 1);
  BitWriter w;
  ASSERT_TRUE(table.Encode(7, &w).ok());
  EXPECT_EQ(w.BitCount(), 1u);
  BitReader r(w);
  EXPECT_EQ(*table.Decode(&r), 7u);
}

TEST(HuffmanTest, UnknownSymbolRejected) {
  const HuffmanTable table = HuffmanTable::Build({{1, 1}, {2, 1}});
  BitWriter w;
  EXPECT_FALSE(table.Encode(99, &w).ok());
}

TEST(HuffmanTest, FrequentSymbolsGetShorterCodes) {
  const HuffmanTable table =
      HuffmanTable::Build({{0, 1000}, {1, 10}, {2, 10}, {3, 1}});
  EXPECT_LE(table.CodeLength(0), table.CodeLength(1));
  EXPECT_LE(table.CodeLength(1), table.CodeLength(3));
}

TEST(HuffmanTest, KraftInequalityHolds) {
  std::unordered_map<uint32_t, uint64_t> freq;
  Rng rng(4);
  for (uint32_t s = 0; s < 40; ++s) {
    freq[s] = static_cast<uint64_t>(rng.UniformInt(1, 1000));
  }
  const HuffmanTable table = HuffmanTable::Build(freq);
  double kraft = 0.0;
  for (uint32_t s = 0; s < 40; ++s) {
    kraft += std::pow(2.0, -table.CodeLength(s));
  }
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(HuffmanTest, DeterministicBuild) {
  std::unordered_map<uint32_t, uint64_t> freq{{1, 5}, {2, 5}, {3, 9}};
  const HuffmanTable a = HuffmanTable::Build(freq);
  const HuffmanTable b = HuffmanTable::Build(freq);
  for (uint32_t s : {1u, 2u, 3u}) {
    EXPECT_EQ(a.CodeLength(s), b.CodeLength(s));
  }
}

/// Property: encode->decode roundtrips for random symbol streams.
class HuffmanRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HuffmanRoundTrip, RandomStreams) {
  Rng rng(GetParam());
  std::unordered_map<uint32_t, uint64_t> freq;
  std::vector<uint32_t> stream;
  for (int i = 0; i < 2000; ++i) {
    // Zipf-ish skew: small symbols dominate.
    const uint32_t s = static_cast<uint32_t>(
        rng.Exponential(0.5));
    stream.push_back(s);
    ++freq[s];
  }
  const HuffmanTable table = HuffmanTable::Build(freq);
  BitWriter w;
  for (uint32_t s : stream) ASSERT_TRUE(table.Encode(s, &w).ok());
  BitReader r(w);
  for (uint32_t s : stream) {
    const auto decoded = table.Decode(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Delta + Huffman ID lists
// ---------------------------------------------------------------------------

TEST(CompressIdsTest, RoundTrip) {
  const std::vector<int32_t> ids{3, 7, 8, 20, 21, 22, 100};
  std::unordered_map<uint32_t, uint64_t> freq;
  AccumulateDeltaFrequencies(ids, &freq);
  const HuffmanTable table = HuffmanTable::Build(freq);
  const auto packed = CompressIds(ids, table);
  ASSERT_TRUE(packed.ok());
  const auto unpacked = DecompressIds(*packed, table);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, ids);
}

TEST(CompressIdsTest, UnsortedRejected) {
  std::unordered_map<uint32_t, uint64_t> freq{{1, 1}};
  const HuffmanTable table = HuffmanTable::Build(freq);
  EXPECT_FALSE(CompressIds({5, 3}, table).ok());
}

TEST(CompressIdsTest, EmptyList) {
  const HuffmanTable table = HuffmanTable::Build({{0, 1}});
  const auto packed = CompressIds({}, table);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->count, 0u);
  const auto unpacked = DecompressIds(*packed, table);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_TRUE(unpacked->empty());
}

TEST(CompressIdsTest, DenseListsCompressWell) {
  // Consecutive ids have delta 1 everywhere: near 1 bit per id.
  std::vector<int32_t> ids;
  for (int32_t i = 100; i < 1100; ++i) ids.push_back(i);
  std::unordered_map<uint32_t, uint64_t> freq;
  AccumulateDeltaFrequencies(ids, &freq);
  const HuffmanTable table = HuffmanTable::Build(freq);
  const auto packed = CompressIds(ids, table);
  ASSERT_TRUE(packed.ok());
  EXPECT_LT(packed->bytes.size(), ids.size() / 2);
  const auto unpacked = DecompressIds(*packed, table);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, ids);
}

/// Property: shared-table roundtrip over many random lists (the grid-index
/// usage pattern).
class SharedTableRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedTableRoundTrip, ManyLists) {
  Rng rng(GetParam());
  std::vector<std::vector<int32_t>> lists;
  std::unordered_map<uint32_t, uint64_t> freq;
  for (int l = 0; l < 50; ++l) {
    std::vector<int32_t> ids;
    int32_t id = 0;
    const int n = static_cast<int>(rng.UniformInt(0, 30));
    for (int i = 0; i < n; ++i) {
      id += static_cast<int32_t>(rng.UniformInt(1, 50));
      ids.push_back(id);
    }
    AccumulateDeltaFrequencies(ids, &freq);
    lists.push_back(std::move(ids));
  }
  const HuffmanTable table = HuffmanTable::Build(freq);
  for (const auto& ids : lists) {
    const auto packed = CompressIds(ids, table);
    ASSERT_TRUE(packed.ok());
    const auto unpacked = DecompressIds(*packed, table);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(*unpacked, ids);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedTableRoundTrip,
                         ::testing::Values(10, 20, 30));

TEST(CompressedIdListIoTest, RoundTripsThroughByteWriter) {
  std::unordered_map<uint32_t, uint64_t> freq;
  const std::vector<int32_t> ids = {1, 2, 4, 9, 9, 40};
  AccumulateDeltaFrequencies(ids, &freq);
  const HuffmanTable table = HuffmanTable::Build(freq);
  const auto packed = CompressIds(ids, table);
  ASSERT_TRUE(packed.ok());

  ByteWriter out;
  WriteCompressedIds(packed->count, packed->bit_count, packed->bytes.data(),
                     &out);
  ByteReader in(out.buffer());
  CompressedIdList loaded;
  ASSERT_TRUE(
      ReadCompressedIds(&in, &loaded.count, &loaded.bit_count, &loaded.bytes)
          .ok());
  EXPECT_TRUE(in.AtEnd());
  const auto unpacked = DecompressIds(loaded, table);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, ids);
}

TEST(CompressedIdListIoTest, ForgedDeltaOverflowIsRejectedAtDecode) {
  // Regression: a forged table can legally carry any symbol value (only
  // code LENGTHS are validated), so decoding delta INT32_MAX twice used
  // to run the id accumulator into signed int32 overflow — UB. The
  // accumulator is 64-bit now and walks past int32 into a clean error.
  std::unordered_map<uint32_t, uint64_t> freq;
  freq[0x7FFFFFFFu] = 2;
  const HuffmanTable table = HuffmanTable::Build(freq);
  BitWriter bits;
  ASSERT_TRUE(table.Encode(0x7FFFFFFFu, &bits).ok());
  ASSERT_TRUE(table.Encode(0x7FFFFFFFu, &bits).ok());
  CompressedIdList list;
  list.bytes = bits.buffer();
  list.bit_count = static_cast<uint32_t>(bits.BitCount());
  list.count = 2;
  const auto ids = DecompressIds(list, table);
  ASSERT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompressedIdListIoTest, ForgedBitCountNearUint32MaxIsRejected) {
  // Regression: (bit_count + 7) / 8 evaluated in uint32 wraps to 0 for
  // bit_count >= 0xFFFFFFF9, which slipped past the payload bound and
  // left a ~4e9 bit_count backed by zero bytes — an out-of-bounds read
  // (and a multi-GB reserve) at first decode. The length math is 64-bit
  // now, so the forged header must die here, at load.
  ByteWriter out;
  out.WriteU32(0xFFFFFFFAu);  // count
  out.WriteU32(0xFFFFFFFAu);  // bit_count
  ByteReader in(out.buffer());
  uint32_t count = 0;
  uint32_t bit_count = 0;
  std::vector<uint8_t> bytes;
  const Status loaded = ReadCompressedIds(&in, &count, &bit_count, &bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(bytes.empty());
}

}  // namespace
}  // namespace ppq::index
