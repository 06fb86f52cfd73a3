#include "repo/repository_snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <utility>

#include "common/fsio.h"
#include "common/serial.h"
#include "core/serialization.h"

namespace ppq::repo {
namespace {

constexpr char kManifestMagic[8] = {'P', 'P', 'Q', 'M', 'A', 'N', 'I', 'F'};
/// Fixed manifest prelude: magic + u32 version + u64 payload_len +
/// u32 payload_crc. The payload is framed exactly (it must tile the rest
/// of the file) and checksummed, so truncation anywhere — inside the
/// prelude or the payload — and any bit flip is a clean Status error.
constexpr size_t kManifestPrelude = sizeof(kManifestMagic) + 4 + 8 + 4;

/// A manifest-listed file name must be a plain basename: a forged
/// manifest must not be able to read or overwrite anything outside the
/// repository directory.
bool SafeShardFileName(const std::string& name) {
  if (name.empty() || name.size() > 255) return false;
  if (name.find('/') != std::string::npos) return false;
  if (name.find('\\') != std::string::npos) return false;
  if (name == "." || name == "..") return false;
  return true;
}

struct Manifest {
  ShardMap map;
  std::vector<std::string> shard_files;
};

std::vector<uint8_t> EncodeManifest(const Manifest& manifest) {
  ByteWriter payload;
  payload.WriteU32(manifest.map.num_shards);
  payload.WriteU32(static_cast<uint32_t>(manifest.map.hash_kind()));
  payload.WriteU64(manifest.shard_files.size());
  for (const std::string& name : manifest.shard_files) {
    payload.WriteString(name);
  }

  ByteWriter out;
  out.WriteBytes(kManifestMagic, sizeof(kManifestMagic));
  out.WriteU32(kManifestVersion);
  out.WriteU64(payload.size());
  out.WriteU32(Crc32(payload.buffer().data(), payload.size()));
  out.WriteBytes(payload.buffer().data(), payload.size());
  return out.buffer();
}

Result<Manifest> DecodeManifest(const std::vector<uint8_t>& bytes,
                                const std::string& path) {
  if (bytes.size() < kManifestPrelude) {
    return Status::IOError("manifest: truncated header: " + path);
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Invalid("manifest: bad magic (not a PPQ repository): " +
                           path);
  }
  ByteReader in(bytes.data(), bytes.size());
  uint8_t magic[sizeof(kManifestMagic)];
  PPQ_RETURN_NOT_OK(in.ReadBytes(magic, sizeof(magic)));
  auto version = in.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kManifestVersion) {
    return Status::Invalid("manifest: unsupported version " +
                           std::to_string(*version));
  }
  auto payload_len = in.ReadU64();
  if (!payload_len.ok()) return payload_len.status();
  auto payload_crc = in.ReadU32();
  if (!payload_crc.ok()) return payload_crc.status();
  // The payload must tile the rest of the file exactly: truncation and
  // appended garbage are both hard errors, never a partial parse.
  if (*payload_len != bytes.size() - kManifestPrelude) {
    return Status::IOError("manifest: size mismatch (truncated or padded): " +
                           path);
  }
  const uint8_t* payload = bytes.data() + kManifestPrelude;
  if (Crc32(payload, static_cast<size_t>(*payload_len)) != *payload_crc) {
    return Status::Invalid("manifest: payload checksum mismatch: " + path);
  }

  ByteReader body(payload, static_cast<size_t>(*payload_len));
  Manifest manifest;
  auto num_shards = body.ReadU32();
  if (!num_shards.ok()) return num_shards.status();
  if (*num_shards == 0 || *num_shards > kMaxShards) {
    return Status::Invalid("manifest: shard count out of range");
  }
  manifest.map.num_shards = *num_shards;
  auto hash_kind = body.ReadU32();
  if (!hash_kind.ok()) return hash_kind.status();
  if (*hash_kind != static_cast<uint32_t>(ShardHashKind::kSplitMix64)) {
    return Status::Invalid("manifest: unknown shard hash kind " +
                           std::to_string(*hash_kind) +
                           " (written by a newer version?)");
  }
  auto file_count = body.ReadCount(4);  // u32 length prefix per name
  if (!file_count.ok()) return file_count.status();
  if (*file_count != *num_shards) {
    return Status::Invalid(
        "manifest: shard-count mismatch (" + std::to_string(*num_shards) +
        " shards, " + std::to_string(*file_count) + " shard files)");
  }
  manifest.shard_files.reserve(static_cast<size_t>(*file_count));
  for (uint64_t i = 0; i < *file_count; ++i) {
    auto name = body.ReadString();
    if (!name.ok()) return name.status();
    if (!SafeShardFileName(*name)) {
      return Status::Invalid("manifest: unsafe shard file name");
    }
    for (const std::string& existing : manifest.shard_files) {
      // A repeated file would alias one shard's snapshot into two routing
      // slots — the partition would no longer be disjoint.
      if (existing == *name) {
        return Status::Invalid("manifest: duplicate shard file name");
      }
    }
    manifest.shard_files.push_back(std::move(*name));
  }
  if (!body.AtEnd()) {
    return Status::Invalid("manifest: trailing bytes in payload");
  }
  return manifest;
}

/// Run fn(i) for i in [0, count) — on \p pool when given, serial
/// otherwise. Shard-granular fan-out for save/open.
void ForEachShard(ThreadPool* pool, size_t count,
                  const std::function<void(size_t)>& fn) {
  if (pool != nullptr && count > 1) {
    pool->ParallelFor(count, [&](size_t /*worker*/, size_t i) { fn(i); });
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

/// The lowest-index non-OK status, so parallel save/open report the same
/// (deterministic) error a serial pass would.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace

std::string ShardSnapshotFileName(uint32_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04u.snapshot", shard);
  return name;
}

RepositorySnapshot::RepositorySnapshot(ShardMap map,
                                       std::vector<core::SnapshotPtr> shards)
    : map_(map), shards_(std::move(shards)) {
  if (map_.num_shards == 0 || shards_.size() != map_.num_shards) {
    throw std::invalid_argument(
        "RepositorySnapshot: shard list does not match the shard map");
  }
  for (const core::SnapshotPtr& shard : shards_) {
    if (shard == nullptr) {
      throw std::invalid_argument(
          "RepositorySnapshot: null shard snapshot (empty shards still seal "
          "to an empty snapshot)");
    }
  }
}

size_t RepositorySnapshot::NumTrajectories() const {
  size_t n = 0;
  for (const core::SnapshotPtr& shard : shards_) n += shard->NumTrajectories();
  return n;
}

size_t RepositorySnapshot::SummaryBytes() const {
  size_t n = 0;
  for (const core::SnapshotPtr& shard : shards_) n += shard->SummaryBytes();
  return n;
}

Status RepositorySnapshot::Save(const std::string& dir,
                                ThreadPool* pool) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create repository directory " + dir +
                           ": " + ec.message());
  }

  // Invalidate any existing manifest BEFORE touching shard files: a save
  // that dies mid-rewrite must leave an unopenable directory, never one
  // whose stale manifest stitches shard containers from two different
  // seals into a "valid" mixed repository.
  const std::string manifest_path = dir + "/" + kManifestFileName;
  const Status removed = RemoveFile(manifest_path);
  if (!removed.ok()) {
    return Status::IOError("cannot invalidate previous manifest: " +
                           removed.message());
  }

  Manifest manifest;
  manifest.map = map_;
  manifest.shard_files.reserve(shards_.size());
  for (uint32_t shard = 0; shard < map_.num_shards; ++shard) {
    manifest.shard_files.push_back(ShardSnapshotFileName(shard));
  }

  // Shard containers first (fan out across the pool; each shard writes
  // its own file, so the writes are independent)...
  std::vector<Status> statuses(shards_.size());
  ForEachShard(pool, shards_.size(), [&](size_t shard) {
    statuses[shard] =
        shards_[shard]->Save(dir + "/" + manifest.shard_files[shard]);
  });
  PPQ_RETURN_NOT_OK(FirstError(statuses));

  // ...manifest last: a save that dies above leaves no manifest, so the
  // directory can never open as a half-written repository. The manifest
  // itself is written atomically (tmp + fsync + rename + parent fsync):
  // a crash mid-manifest-write leaves no manifest, never a torn one.
  const std::vector<uint8_t> bytes = EncodeManifest(manifest);
  return AtomicWriteFile(manifest_path, bytes.data(), bytes.size());
}

Result<RepositorySnapshotPtr> OpenRepository(const std::string& dir,
                                             ThreadPool* pool) {
  auto bytes = ReadAllBytes(dir + "/" + kManifestFileName);
  if (!bytes.ok()) return bytes.status();
  auto manifest = DecodeManifest(*bytes, dir + "/" + kManifestFileName);
  if (!manifest.ok()) return manifest.status();

  const size_t num_shards = manifest->shard_files.size();
  std::vector<core::SnapshotPtr> shards(num_shards);
  std::vector<Status> statuses(num_shards);
  ForEachShard(pool, num_shards, [&](size_t shard) {
    auto opened =
        core::OpenSnapshot(dir + "/" + manifest->shard_files[shard]);
    if (opened.ok()) {
      shards[shard] = std::move(*opened);
    } else {
      statuses[shard] = opened.status();
    }
  });
  PPQ_RETURN_NOT_OK(FirstError(statuses));

  return RepositorySnapshotPtr(std::make_shared<const RepositorySnapshot>(
      manifest->map, std::move(shards)));
}

}  // namespace ppq::repo
