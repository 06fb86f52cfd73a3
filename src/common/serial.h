#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

/// \file serial.h
/// Byte-level serialization primitives shared by every on-disk format in
/// the repository: an append-only little-endian ByteWriter, a
/// bounds-checked ByteReader whose every read returns Status instead of
/// invoking UB on truncated input, and the CRC32 used to checksum
/// container sections. The bit-granular streams of bitstream.h sit below
/// this layer (CQC codes, Huffman-coded ID lists); this layer frames whole
/// structures.
///
/// Safety contract: a ByteReader over attacker-controlled bytes must never
/// crash, read out of bounds, or cause an unbounded allocation. Element
/// counts are validated against the bytes actually available via
/// ReadCount() before any container is resized.

namespace ppq {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of \p size bytes.
/// \p seed allows incremental computation: pass the previous result.
/// Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight table lookups per
/// 8-byte word, the byte-at-a-time loop only for the tail.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Little-endian fixed-width stores and loads at any alignment. Built
/// from shifts, so they hold on any host byte order; compilers fold each
/// into one move on little-endian targets.
inline void StoreU32LE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void StoreU64LE(uint8_t* p, uint64_t v) {
  StoreU32LE(p, static_cast<uint32_t>(v));
  StoreU32LE(p + 4, static_cast<uint32_t>(v >> 32));
}
inline void StoreF64LE(uint8_t* p, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU64LE(p, bits);
}
inline uint32_t LoadU32LE(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}
inline uint64_t LoadU64LE(const uint8_t* p) {
  return uint64_t{LoadU32LE(p)} | uint64_t{LoadU32LE(p + 4)} << 32;
}

/// \brief Append-only little-endian byte sink.
class ByteWriter {
 public:
  void Reserve(size_t size) { buffer_.reserve(size); }

  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU32(uint32_t v) {
    uint8_t bytes[4];
    StoreU32LE(bytes, v);
    WriteBytes(bytes, sizeof(bytes));
  }
  void WriteU64(uint64_t v) {
    uint8_t bytes[8];
    StoreU64LE(bytes, v);
    WriteBytes(bytes, sizeof(bytes));
  }
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteF64(double v) {
    uint8_t bytes[8];
    StoreF64LE(bytes, v);
    WriteBytes(bytes, sizeof(bytes));
  }
  void WriteBytes(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }
  /// Length-prefixed (u32) string.
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(s.data(), s.size());
  }
  /// Append \p size zero bytes and return where they start, for a caller
  /// that fills a block of fixed-width fields with the Store*LE helpers.
  /// The pointer is valid until the next write.
  uint8_t* Extend(size_t size) {
    const size_t offset = buffer_.size();
    buffer_.resize(offset + size);
    return buffer_.data() + offset;
  }

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }

 private:
  std::vector<uint8_t> buffer_;
};

/// \brief Sequential bounds-checked reader over a byte buffer. Does not
/// own the bytes; the caller keeps them alive.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t position() const { return position_; }
  size_t Remaining() const { return size_ - position_; }
  bool AtEnd() const { return position_ == size_; }

  Result<uint8_t> ReadU8() {
    if (Remaining() < 1) return Truncated();
    return data_[position_++];
  }
  Result<uint32_t> ReadU32() {
    if (Remaining() < 4) return Truncated();
    const uint32_t v = LoadU32LE(data_ + position_);
    position_ += 4;
    return v;
  }
  Result<uint64_t> ReadU64() {
    if (Remaining() < 8) return Truncated();
    const uint64_t v = LoadU64LE(data_ + position_);
    position_ += 8;
    return v;
  }
  Result<int32_t> ReadI32() {
    auto v = ReadU32();
    if (!v.ok()) return v.status();
    return static_cast<int32_t>(*v);
  }
  Result<double> ReadF64() {
    auto v = ReadU64();
    if (!v.ok()) return v.status();
    double d = 0.0;
    std::memcpy(&d, &*v, sizeof(d));
    return d;
  }
  Status ReadBytes(void* out, size_t size) {
    if (Remaining() < size) return Truncated();
    if (size > 0) std::memcpy(out, data_ + position_, size);
    position_ += size;
    return Status::OK();
  }
  /// Advance past \p size bytes and return where they start, for a caller
  /// that decodes a block of fixed-width fields with the Load*LE helpers.
  Result<const uint8_t*> Take(size_t size) {
    if (Remaining() < size) return Truncated();
    const uint8_t* block = data_ + position_;
    position_ += size;
    return block;
  }
  Result<std::string> ReadString() {
    auto n = ReadU32();
    if (!n.ok()) return n.status();
    if (*n > Remaining()) {
      return Status::Invalid("serial: string length exceeds available bytes");
    }
    std::string s(reinterpret_cast<const char*>(data_ + position_), *n);
    position_ += *n;
    return s;
  }

  /// Read a u64 element count and validate it against the bytes actually
  /// left in the buffer: with every element at least
  /// \p min_bytes_per_element wide, a count that could not possibly be
  /// backed by the remaining payload is rejected BEFORE the caller sizes
  /// any container — a hostile header can therefore never trigger a
  /// multi-GB allocation.
  Result<uint64_t> ReadCount(size_t min_bytes_per_element) {
    auto n = ReadU64();
    if (!n.ok()) return n.status();
    if (min_bytes_per_element == 0) min_bytes_per_element = 1;
    if (*n > Remaining() / min_bytes_per_element) {
      return Status::Invalid("serial: element count exceeds available bytes");
    }
    return *n;
  }

 private:
  static Status Truncated() {
    return Status::IOError("serial: read past end of buffer");
  }

  const uint8_t* data_;
  size_t size_;
  size_t position_ = 0;
};

}  // namespace ppq
