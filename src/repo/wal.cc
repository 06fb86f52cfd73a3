#include "repo/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/serial.h"
#include "obs/trace.h"

namespace ppq::repo {
namespace {

/// payload = u64 epoch + i32 tick + u32 count (+ 20 bytes per point).
constexpr size_t kRecordFixedPayload = 8 + 4 + 4;
constexpr size_t kBytesPerPoint = 4 + 8 + 8;

uint64_t MicrosSince(const std::chrono::steady_clock::time_point& start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::vector<uint8_t> EncodeHeader(const WalHeader& header) {
  ByteWriter out;
  out.WriteBytes(kWalMagic, sizeof(kWalMagic));
  out.WriteU32(kWalVersion);
  out.WriteU32(header.shard);
  out.WriteU64(header.seal_epoch);
  out.WriteI32(header.sealed_through);
  out.WriteU32(Crc32(out.buffer().data(), out.size()));
  return out.buffer();
}

}  // namespace

std::string WalFileName(uint32_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%04u.log", shard);
  return name;
}

std::string WalGenerationFileName(uint32_t shard, uint64_t epoch,
                                  uint32_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%04u.gen-%llu-%u.log", shard,
                static_cast<unsigned long long>(epoch), seq);
  return name;
}

Result<WalContents> ReadWalFile(const std::string& path,
                                uint32_t expected_shard) {
  auto bytes = ReadAllBytes(path);
  if (!bytes.ok()) return bytes.status();

  WalContents contents;
  contents.header.shard = expected_shard;
  contents.header.sealed_through = std::numeric_limits<Tick>::min();
  if (bytes->size() < kWalHeaderBytes) {
    // A create that never landed (crash between open and header write):
    // no record can have committed, so the file is safely empty.
    contents.torn = true;
    return contents;
  }
  if (std::memcmp(bytes->data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Invalid("wal: bad magic (not a PPQ write-ahead log): " +
                           path);
  }
  const uint32_t header_crc =
      Crc32(bytes->data(), kWalHeaderBytes - 4);

  ByteReader in(bytes->data(), bytes->size());
  uint8_t magic[sizeof(kWalMagic)];
  PPQ_RETURN_NOT_OK(in.ReadBytes(magic, sizeof(magic)));
  auto version = in.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kWalVersion) {
    return Status::Invalid("wal: unsupported version " +
                           std::to_string(*version) + ": " + path);
  }
  auto shard = in.ReadU32();
  if (!shard.ok()) return shard.status();
  auto epoch = in.ReadU64();
  if (!epoch.ok()) return epoch.status();
  auto sealed_through = in.ReadI32();
  if (!sealed_through.ok()) return sealed_through.status();
  auto stored_crc = in.ReadU32();
  if (!stored_crc.ok()) return stored_crc.status();
  if (*stored_crc != header_crc) {
    return Status::Invalid("wal: header checksum mismatch: " + path);
  }
  if (*shard != expected_shard) {
    return Status::Invalid("wal: file claims shard " + std::to_string(*shard) +
                           ", expected " + std::to_string(expected_shard) +
                           ": " + path);
  }
  contents.header.shard = *shard;
  contents.header.seal_epoch = *epoch;
  contents.header.sealed_through = *sealed_through;
  contents.valid_bytes = kWalHeaderBytes;

  // Record loop over raw offsets (the frame length drives the cursor).
  // Anything that fails from here on is a torn/corrupt suffix — keep the
  // valid prefix, flag it, stop.
  const uint8_t* data = bytes->data();
  const size_t size = bytes->size();
  size_t pos = kWalHeaderBytes;
  Tick last_tick = std::numeric_limits<Tick>::min();
  while (pos < size) {
    if (size - pos < 8) {
      contents.torn = true;
      return contents;
    }
    ByteReader frame(data + pos, 8);
    const uint32_t len = *frame.ReadU32();
    const uint32_t crc = *frame.ReadU32();
    if (len < kRecordFixedPayload || len > size - pos - 8 ||
        (len - kRecordFixedPayload) % kBytesPerPoint != 0) {
      contents.torn = true;
      return contents;
    }
    const uint8_t* payload = data + pos + 8;
    if (Crc32(payload, len) != crc) {
      contents.torn = true;
      return contents;
    }
    ByteReader body(payload, len);
    const uint64_t rec_epoch = *body.ReadU64();
    const Tick tick = *body.ReadI32();
    const uint32_t count = *body.ReadU32();
    if (count > kMaxWalRecordPoints ||
        static_cast<size_t>(count) * kBytesPerPoint != body.Remaining()) {
      contents.torn = true;
      return contents;
    }
    if (rec_epoch > contents.header.seal_epoch) {
      // Records are only ever appended under the file's header epoch; a
      // CRC-valid future epoch is corruption or forgery, not a tail tear.
      contents.torn = true;
      return contents;
    }
    pos += 8 + len;
    contents.valid_bytes = pos;
    if (rec_epoch < contents.header.seal_epoch) {
      ++contents.stale_records;
      continue;
    }
    if (tick < last_tick) {
      return Status::Invalid("wal: tick regression inside log: " + path);
    }
    last_tick = tick;

    WalRecord record;
    record.seal_epoch = rec_epoch;
    record.slice.tick = tick;
    record.slice.ids.reserve(count);
    record.slice.positions.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      record.slice.ids.push_back(*body.ReadI32());
      const double x = *body.ReadF64();
      const double y = *body.ReadF64();
      record.slice.positions.push_back({x, y});
    }
    contents.records.push_back(std::move(record));
  }
  return contents;
}

Result<std::vector<WalGenerationFile>> ListWalGenerations(
    const std::string& dir, uint32_t shard) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "wal-%04u.gen-", shard);

  std::vector<WalGenerationFile> files;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list repository directory " + dir + ": " +
                           ec.message());
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    unsigned long long epoch = 0;
    unsigned seq = 0;
    if (std::sscanf(name.c_str() + std::strlen(prefix), "%llu-%u.log", &epoch,
                    &seq) != 2 ||
        name != WalGenerationFileName(shard, epoch, seq)) {
      // The round-trip compare anchors the parse: lookalikes with a
      // trailing suffix (`.logx`, `.log.bak`) or non-canonical digits
      // (`gen-01-0`) are unrelated files, not generations to replay.
      continue;
    }
    files.push_back({static_cast<uint64_t>(epoch), seq, name});
  }
  std::sort(files.begin(), files.end(),
            [](const WalGenerationFile& a, const WalGenerationFile& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              return a.seq < b.seq;
            });
  return files;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Create(
    const std::string& path, const WalHeader& header) {
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog());
  // The shard is known here and only here — resolve the per-shard
  // durability-latency series once, before the log escapes.
  obs::Registry& registry = obs::Registry::Default();
  const std::string label = obs::ShardLabel(header.shard);
  wal->shard_ = header.shard;
  wal->append_hist_ = registry.GetHistogram("ppq_wal_append_micros", label);
  wal->sync_hist_ = registry.GetHistogram("ppq_wal_sync_micros", label);
  wal->sync_failures_ = registry.GetCounter("ppq_wal_sync_failures_total");
  PPQ_RETURN_NOT_OK(wal->file_.Open(path, /*truncate=*/true));
  const std::vector<uint8_t> bytes = EncodeHeader(header);
  PPQ_RETURN_NOT_OK(wal->file_.Append(bytes.data(), bytes.size()));
  // The log's existence (and empty-but-valid header) must itself survive
  // a crash: sync the data, then the directory entry.
  PPQ_RETURN_NOT_OK(wal->file_.Datasync());
  const size_t slash = path.find_last_of('/');
  const std::string parent =
      slash == std::string::npos ? "." : path.substr(0, std::max<size_t>(slash, 1));
  PPQ_RETURN_NOT_OK(SyncDirectory(parent));
  return wal;
}

Status WriteAheadLog::Append(uint64_t seal_epoch, const TimeSlice& slice) {
  PPQ_ZONE_SHARD("wal.append", shard_);
  const auto start = std::chrono::steady_clock::now();
  // Frame (u32 length + u32 payload CRC) and payload in one buffer.
  const size_t count = slice.ids.size();
  const size_t length = kRecordFixedPayload + count * kBytesPerPoint;
  std::vector<uint8_t> frame(8 + length);
  uint8_t* const head = frame.data();
  uint8_t* const payload = head + 8;
  StoreU64LE(payload, seal_epoch);
  StoreU32LE(payload + 8, static_cast<uint32_t>(slice.tick));
  StoreU32LE(payload + 12, static_cast<uint32_t>(count));
  uint8_t* dst = payload + kRecordFixedPayload;
  for (size_t i = 0; i < count; ++i, dst += kBytesPerPoint) {
    StoreU32LE(dst, static_cast<uint32_t>(slice.ids[i]));
    StoreF64LE(dst + 4, slice.positions[i].x);
    StoreF64LE(dst + 12, slice.positions[i].y);
  }
  StoreU32LE(head, static_cast<uint32_t>(length));
  StoreU32LE(head + 4, Crc32(payload, length));
  Status status = file_.Append(head, frame.size());
  append_hist_->Observe(MicrosSince(start));
  return status;
}

Status WriteAheadLog::Sync() {
  PPQ_ZONE_SHARD("wal.sync", shard_);
  const auto start = std::chrono::steady_clock::now();
  Status status = file_.Datasync();
  sync_hist_->Observe(MicrosSince(start));
  if (!status.ok()) sync_failures_->Increment();
  return status;
}

Status WriteAheadLog::Close() { return file_.Close(); }

}  // namespace ppq::repo
