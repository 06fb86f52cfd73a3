#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitstream.h"
#include "common/serial.h"
#include "common/status.h"

/// \file huffman.h
/// Canonical Huffman coding over 32-bit symbols, used (together with delta
/// encoding) to compress the per-cell trajectory ID lists of the grid index
/// (Section 5.1, following [19, 22, 42]).

namespace ppq::index {

/// \brief A canonical Huffman code table built from symbol frequencies.
///
/// Canonical form keeps the stored table small: only (symbol, code length)
/// pairs are needed to reconstruct the codes.
class HuffmanTable {
 public:
  HuffmanTable() = default;

  /// Build a table for the given frequency map. Empty input yields an
  /// empty table; a single-symbol alphabet gets a 1-bit code.
  static HuffmanTable Build(
      const std::unordered_map<uint32_t, uint64_t>& frequencies);

  bool empty() const { return lengths_.empty(); }
  size_t AlphabetSize() const { return lengths_.size(); }

  /// Append the code for \p symbol. Returns Invalid for unknown symbols.
  Status Encode(uint32_t symbol, BitWriter* writer) const;

  /// Decode one symbol from the reader.
  Result<uint32_t> Decode(BitReader* reader) const;

  /// Code length in bits for \p symbol (0 when absent).
  int CodeLength(uint32_t symbol) const {
    const auto it = lengths_.find(symbol);
    return it == lengths_.end() ? 0 : it->second;
  }

  /// Bytes charged for persisting the table: 4 bytes symbol + 1 byte
  /// length per alphabet entry.
  size_t SizeBytes() const { return lengths_.size() * 5; }

  /// Append the canonical form — sorted (symbol, code length) pairs — to
  /// \p out. Output is byte-deterministic for equal tables.
  void SaveTo(ByteWriter* out) const;

  /// Inverse of SaveTo. Codes are reassigned canonically from the loaded
  /// lengths; malformed input (absurd lengths, counts beyond the buffer)
  /// yields a Status error, never UB.
  static Result<HuffmanTable> LoadFrom(ByteReader* in);

 private:
  struct DecodeEntry {
    uint32_t symbol;
    uint32_t code;
    int length;
  };

  void AssignCanonicalCodes();

  /// symbol -> code length.
  std::unordered_map<uint32_t, int> lengths_;
  /// symbol -> canonical code (MSB-aligned within `length` bits).
  std::unordered_map<uint32_t, uint32_t> codes_;
  /// Sorted by (length, code) for decoding.
  std::vector<DecodeEntry> decode_entries_;
};

/// \brief Delta + Huffman compressed representation of a sorted ID list.
struct CompressedIdList {
  std::vector<uint8_t> bytes;  ///< (bit_count + 7) / 8 bytes
  uint32_t bit_count = 0;
  uint32_t count = 0;
};

/// Append a packed id list in its serialized form: u32 \p count, u32
/// \p bit_count, then the (bit_count + 7) / 8 bytes at \p bytes.
void WriteCompressedIds(uint32_t count, uint32_t bit_count,
                        const uint8_t* bytes, ByteWriter* out);

/// Inverse of WriteCompressedIds, appending the payload to \p bytes.
/// The header is checked before anything is appended: a count beyond
/// bit_count is forged (every id takes at least one bit), and the payload
/// must be in \p in.
Status ReadCompressedIds(ByteReader* in, uint32_t* count,
                         uint32_t* bit_count, std::vector<uint8_t>* bytes);

/// Delta-encode \p sorted_ids (ascending; the first entry is stored as a
/// delta from zero) and Huffman-code the deltas with \p table.
Result<CompressedIdList> CompressIds(const std::vector<int32_t>& sorted_ids,
                                     const HuffmanTable& table);

/// Inverse of CompressIds.
Result<std::vector<int32_t>> DecompressIds(const CompressedIdList& list,
                                           const HuffmanTable& table);

/// Decode the \p count ids packed in the first \p bit_count bits at
/// \p bytes and append them to \p out, the caller's scratch. On a
/// malformed list \p out is left as it was.
Status DecompressIdsInto(const uint8_t* bytes, uint32_t bit_count,
                         uint32_t count, const HuffmanTable& table,
                         std::vector<int32_t>* out);

/// Accumulate the delta frequencies of \p sorted_ids into \p frequencies,
/// for building a shared table over many lists.
void AccumulateDeltaFrequencies(
    const std::vector<int32_t>& sorted_ids,
    std::unordered_map<uint32_t, uint64_t>* frequencies);

}  // namespace ppq::index
