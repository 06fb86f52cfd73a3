#include "core/serialization.h"

#include <cassert>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "common/fsio.h"
#include "index/temporal_index.h"
#include "storage/page_manager.h"

namespace ppq::core {
namespace {

constexpr char kContainerMagic[8] = {'P', 'P', 'Q', 'S', 'N', 'A', 'P', '1'};
constexpr char kLegacyMagic[8] = {'P', 'P', 'Q', 'S', 'U', 'M', '0', '1'};

/// Upper bound on sections per container: generous for the format's four
/// tags, tight enough that a forged count cannot drive a big allocation.
constexpr uint32_t kMaxSections = 64;

/// Bytes per section-table entry: u32 tag + u64 length + u32 crc.
constexpr size_t kTableEntryBytes = 16;

/// Snapshot META payload version.
constexpr uint32_t kSnapshotMetaVersion = 1;

/// Snapshot kinds stored in META.
constexpr uint8_t kKindPpq = 1;
constexpr uint8_t kKindMaterialized = 2;

// -------------------------------------------------------------------------
// Summary payload codec (v2). Field order mirrors the legacy v1 layout so
// the two decoders share their shape; only the framing differs.
// -------------------------------------------------------------------------

/// Bytes per point record: i32 partition, i32 codeword, u64 CQC bits and
/// i32 CQC length.
constexpr size_t kPointRecordBytes = 20;

void EncodeCodebook(const quantizer::Codebook& codebook, ByteWriter* out) {
  out->WriteU64(codebook.size());
  for (const Point& c : codebook.codewords()) {
    out->WriteF64(c.x);
    out->WriteF64(c.y);
  }
}

Status DecodeCodebook(ByteReader* in, quantizer::Codebook* codebook) {
  auto count = in->ReadCount(16);  // two f64 per codeword
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto x = in->ReadF64();
    if (!x.ok()) return x.status();
    auto y = in->ReadF64();
    if (!y.ok()) return y.status();
    codebook->Add(Point{*x, *y});
  }
  return Status::OK();
}

/// Ceiling on decoded prediction orders: the paper's AR orders are tiny
/// (2-4); anything past this is a forged header. The decoder pre-reserves
/// per-trajectory history at this size, so it must stay small.
constexpr int32_t kMaxPredictionOrder = 1024;

/// Validate a decoded (start_tick, point_count) span: the decoder and
/// ActiveAt compute start + count in Tick (int32) arithmetic, so a span
/// that overflows int32 is forged and would be UB at query time.
bool SpanFitsTickRange(int32_t start, uint64_t count) {
  return count <= static_cast<uint64_t>(std::numeric_limits<int32_t>::max()) &&
         static_cast<int64_t>(start) + static_cast<int64_t>(count) <=
             static_cast<int64_t>(std::numeric_limits<int32_t>::max());
}

/// Bytes EncodeSummary appends for \p summary, so the section is sized
/// once.
size_t EncodedSummaryBytes(const TrajectorySummary& summary) {
  constexpr size_t kCodewordBytes = 16;  // two f64
  size_t bytes = 4 + 4 + 1 + (summary.has_cqc() ? 16 : 0);
  bytes += 8 + kCodewordBytes * summary.codebook().size();
  bytes += 8;
  for (const auto& [tick, codebook] : summary.tick_codebooks()) {
    bytes += 4 + 8 + kCodewordBytes * codebook.size();
  }
  const CoefficientTable& table = summary.coefficients();
  bytes += 8 + (4 + 8) * table.NumTicks() + 8 * table.NumValues();
  for (size_t i = 0; i < table.NumTicks(); ++i) bytes += 8 * table.NumSets(i);
  bytes += 8 + (4 + 4 + 8) * summary.NumTrajectories() +
           kPointRecordBytes * summary.TotalPoints();
  return bytes;
}

/// Decode the body shared by the v2 payload and the legacy v1 file (both
/// use the same field order; v1 just lacks framing and this validation).
Result<TrajectorySummary> DecodeSummaryBody(ByteReader* in) {
  auto order = in->ReadI32();
  if (!order.ok()) return order.status();
  // The reconstruction path reserves history buffers of this size per
  // trajectory; a negative or absurd order must not reach it.
  if (*order < 0 || *order > kMaxPredictionOrder) {
    return Status::Invalid("summary: prediction order out of range");
  }
  auto has_cqc = in->ReadU8();
  if (!has_cqc.ok()) return has_cqc.status();
  std::optional<cqc::CqcCodec> codec;
  if (*has_cqc != 0) {
    auto epsilon = in->ReadF64();
    if (!epsilon.ok()) return epsilon.status();
    auto grid_size = in->ReadF64();
    if (!grid_size.ok()) return grid_size.status();
    // The codec grids a 2*epsilon square into grid_size cells; forged
    // parameters must not drive the cell count past int range.
    if (!(*epsilon > 0.0) || !(*grid_size > 0.0) ||
        !(*epsilon / *grid_size < 1e6)) {
      return Status::Invalid("summary: malformed CQC codec parameters");
    }
    codec.emplace(*epsilon, *grid_size);
  }

  TrajectorySummary summary(*order, *has_cqc != 0, std::move(codec));
  PPQ_RETURN_NOT_OK(DecodeCodebook(in, summary.mutable_codebook()));

  auto tick_codebook_count = in->ReadCount(12);  // i32 tick + u64 size
  if (!tick_codebook_count.ok()) return tick_codebook_count.status();
  for (uint64_t i = 0; i < *tick_codebook_count; ++i) {
    auto tick = in->ReadI32();
    if (!tick.ok()) return tick.status();
    PPQ_RETURN_NOT_OK(DecodeCodebook(in, summary.mutable_tick_codebook(*tick)));
  }

  auto coeff_ticks = in->ReadCount(12);  // i32 tick + u64 partitions
  if (!coeff_ticks.ok()) return coeff_ticks.status();
  const CoefficientTable& table = summary.coefficients();
  std::vector<predictor::PredictionCoefficients> sets;  // reused per tick
  for (uint64_t i = 0; i < *coeff_ticks; ++i) {
    auto tick = in->ReadI32();
    if (!tick.ok()) return tick.status();
    // The table is tick-sorted and the encoder writes it in order, so a
    // repeated or descending tick is forged.
    if (table.NumTicks() > 0 && *tick <= table.TickAt(table.NumTicks() - 1)) {
      return Status::Invalid("summary: coefficient ticks out of order");
    }
    auto partitions = in->ReadCount(8);  // u64 coefficient count each
    if (!partitions.ok()) return partitions.status();
    sets.resize(static_cast<size_t>(*partitions));
    for (predictor::PredictionCoefficients& set : sets) {
      auto n = in->ReadCount(8);  // f64 per coefficient
      if (!n.ok()) return n.status();
      set.coefficients.resize(static_cast<size_t>(*n));
      for (double& value : set.coefficients) {
        auto read = in->ReadF64();
        if (!read.ok()) return read.status();
        value = *read;
      }
    }
    summary.SetCoefficients(*tick, sets);
  }

  auto record_count = in->ReadCount(16);  // id + start + point count
  if (!record_count.ok()) return record_count.status();
  for (uint64_t i = 0; i < *record_count; ++i) {
    auto id = in->ReadI32();
    if (!id.ok()) return id.status();
    auto start = in->ReadI32();
    if (!start.ok()) return start.status();
    auto points = in->ReadCount(kPointRecordBytes);
    if (!points.ok()) return points.status();
    if (!SpanFitsTickRange(*start, *points)) {
      return Status::Invalid("summary: record tick span overflows");
    }
    // Records serialize from a map, so a well-formed file never repeats
    // an id. A forged duplicate would make GetOrCreate merge two spans —
    // first record's start, second record's points — re-opening the tick
    // overflow the per-record check above just closed.
    if (summary.Find(*id) != nullptr) {
      return Status::Invalid("summary: duplicate trajectory id");
    }
    auto block = in->Take(static_cast<size_t>(*points) * kPointRecordBytes);
    if (!block.ok()) return block.status();
    TrajectoryRecord& record = summary.GetOrCreate(*id, *start);
    record.points.resize(static_cast<size_t>(*points));
    const uint8_t* src = *block;
    for (PointRecord& pr : record.points) {
      pr.partition = static_cast<int32_t>(LoadU32LE(src));
      pr.codeword = static_cast<int32_t>(LoadU32LE(src + 4));
      pr.cqc.bits = LoadU64LE(src + 8);
      pr.cqc.length = static_cast<int32_t>(LoadU32LE(src + 16));
      src += kPointRecordBytes;
    }
  }
  return summary;
}

// -------------------------------------------------------------------------
// Snapshot payload codecs
// -------------------------------------------------------------------------

void EncodePointTables(
    const std::map<TrajId, MaterializedSnapshot::TrajectoryPoints>& tables,
    ByteWriter* out) {
  out->WriteU64(tables.size());
  for (const auto& [id, traj] : tables) {
    out->WriteI32(id);
    out->WriteI32(traj.start_tick);
    out->WriteU64(traj.points.size());
    for (const Point& p : traj.points) {
      out->WriteF64(p.x);
      out->WriteF64(p.y);
    }
  }
}

Result<std::map<TrajId, MaterializedSnapshot::TrajectoryPoints>>
DecodePointTables(ByteReader* in) {
  std::map<TrajId, MaterializedSnapshot::TrajectoryPoints> tables;
  auto count = in->ReadCount(16);  // id + start + point count
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto id = in->ReadI32();
    if (!id.ok()) return id.status();
    auto start = in->ReadI32();
    if (!start.ok()) return start.status();
    auto points = in->ReadCount(16);  // two f64 per point
    if (!points.ok()) return points.status();
    if (!SpanFitsTickRange(*start, *points)) {
      return Status::Invalid("snapshot: point table tick span overflows");
    }
    MaterializedSnapshot::TrajectoryPoints traj;
    traj.start_tick = *start;
    traj.points.reserve(static_cast<size_t>(*points));
    for (uint64_t p = 0; p < *points; ++p) {
      auto x = in->ReadF64();
      if (!x.ok()) return x.status();
      auto y = in->ReadF64();
      if (!y.ok()) return y.status();
      traj.points.push_back(Point{*x, *y});
    }
    if (!tables.emplace(*id, std::move(traj)).second) {
      return Status::Invalid("snapshot: duplicate trajectory id");
    }
  }
  return tables;
}

struct SnapshotMeta {
  uint8_t kind = 0;
  std::string name;
  double local_search_radius = 0.0;
  uint64_t summary_bytes = 0;
  uint64_t num_codewords = 0;
};

void EncodeMeta(const SnapshotMeta& meta, ByteWriter* out) {
  out->WriteU32(kSnapshotMetaVersion);
  out->WriteU8(meta.kind);
  out->WriteString(meta.name);
  out->WriteF64(meta.local_search_radius);
  out->WriteU64(meta.summary_bytes);
  out->WriteU64(meta.num_codewords);
}

Result<SnapshotMeta> DecodeMeta(ByteReader* in) {
  auto version = in->ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kSnapshotMetaVersion) {
    return Status::Invalid("snapshot: unsupported META version " +
                           std::to_string(*version));
  }
  SnapshotMeta meta;
  auto kind = in->ReadU8();
  if (!kind.ok()) return kind.status();
  meta.kind = *kind;
  auto name = in->ReadString();
  if (!name.ok()) return name.status();
  meta.name = std::move(*name);
  auto radius = in->ReadF64();
  if (!radius.ok()) return radius.status();
  meta.local_search_radius = *radius;
  auto summary_bytes = in->ReadU64();
  if (!summary_bytes.ok()) return summary_bytes.status();
  meta.summary_bytes = *summary_bytes;
  auto num_codewords = in->ReadU64();
  if (!num_codewords.ok()) return num_codewords.status();
  meta.num_codewords = *num_codewords;
  return meta;
}

/// Shared tail of both Save overrides: optional TPI section + write-out.
Status FinishSnapshotSave(SectionWriter* writer,
                          const index::TemporalPartitionIndex* tpi,
                          const std::string& path,
                          storage::PageManager* pager) {
  if (tpi != nullptr) {
    tpi->SaveTo(writer->AddSection(kSectionTpi));
  }
  return writer->WriteFile(path, pager);
}

}  // namespace

// -------------------------------------------------------------------------
// SectionWriter
// -------------------------------------------------------------------------

ByteWriter* SectionWriter::AddSection(uint32_t tag) {
  sections_.emplace_back(tag, ByteWriter());
  return &sections_.back().second;
}

ByteWriter SectionWriter::BuildHeader() const {
  ByteWriter header;
  header.WriteBytes(kContainerMagic, sizeof(kContainerMagic));
  header.WriteU32(kContainerVersion);
  header.WriteU32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [tag, payload] : sections_) {
    header.WriteU32(tag);
    header.WriteU64(payload.size());
    header.WriteU32(Crc32(payload.buffer().data(), payload.size()));
  }
  header.WriteU32(Crc32(header.buffer().data(), header.size()));
  return header;
}

Status SectionWriter::WriteFile(const std::string& path,
                                storage::PageManager* pager) const {
  // Stream header then payloads straight from the per-section buffers:
  // the sections already hold the whole snapshot, so concatenating them
  // first (Serialize) would transiently double peak memory on every save.
  //
  // The write is atomic and durable (common/fsio.h): bytes go to
  // `<path>.tmp`, Commit fsyncs + renames over the target + fsyncs the
  // parent directory. A save that crashes or fails mid-stream — or whose
  // final flush at close fails (ENOSPC) — leaves a previously valid
  // container byte-identical instead of truncating it in place.
  const ByteWriter header = BuildHeader();
  AtomicFileWriter out(path);
  PPQ_RETURN_NOT_OK(out.Open());
  PPQ_RETURN_NOT_OK(out.Append(header.buffer().data(), header.size()));
  for (const auto& [tag, payload] : sections_) {
    PPQ_RETURN_NOT_OK(out.Append(payload.buffer().data(), payload.size()));
  }
  PPQ_RETURN_NOT_OK(out.Commit());
  if (pager != nullptr) {
    // Containers start on fresh pages (a snapshot never shares a page
    // with unrelated records), one record per section mirrors the
    // section-at-a-time write pattern.
    pager->SealCurrentPage();
    pager->AppendRecord(header.size());
    for (const auto& [tag, section] : sections_) {
      pager->AppendRecord(section.size());
    }
  }
  return Status::OK();
}

// -------------------------------------------------------------------------
// SectionReader
// -------------------------------------------------------------------------

Result<SectionReader> SectionReader::Parse(std::vector<uint8_t> bytes) {
  constexpr size_t kFixedHeader = sizeof(kContainerMagic) + 4 + 4;
  if (bytes.size() < kFixedHeader + 4) {
    return Status::IOError("container: truncated header");
  }
  if (std::memcmp(bytes.data(), kContainerMagic, sizeof(kContainerMagic)) !=
      0) {
    return Status::Invalid("container: bad magic (not a PPQ container)");
  }
  ByteReader in(bytes.data(), bytes.size());
  uint8_t magic[sizeof(kContainerMagic)];
  PPQ_RETURN_NOT_OK(in.ReadBytes(magic, sizeof(magic)));
  auto version = in.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kContainerVersion) {
    return Status::Invalid("container: unsupported version " +
                           std::to_string(*version));
  }
  auto section_count = in.ReadU32();
  if (!section_count.ok()) return section_count.status();
  if (*section_count > kMaxSections) {
    return Status::Invalid("container: section count out of range");
  }
  const size_t table_end =
      kFixedHeader + static_cast<size_t>(*section_count) * kTableEntryBytes;
  if (bytes.size() < table_end + 4) {
    return Status::IOError("container: truncated section table");
  }

  SectionReader reader;
  reader.header_bytes_ = table_end + 4;
  size_t offset = reader.header_bytes_;
  std::vector<uint32_t> crcs;
  for (uint32_t i = 0; i < *section_count; ++i) {
    auto tag = in.ReadU32();
    if (!tag.ok()) return tag.status();
    auto length = in.ReadU64();
    if (!length.ok()) return length.status();
    auto crc = in.ReadU32();
    if (!crc.ok()) return crc.status();
    if (*length > bytes.size() - offset) {
      return Status::IOError("container: section extends past end of file");
    }
    for (const SectionInfo& existing : reader.sections_) {
      if (existing.tag == *tag) {
        return Status::Invalid("container: duplicate section tag");
      }
    }
    reader.sections_.push_back(
        SectionInfo{*tag, offset, static_cast<size_t>(*length)});
    crcs.push_back(*crc);
    offset += static_cast<size_t>(*length);
  }

  // The header CRC covers magic, version, count, and the table; a flip in
  // any stored length/tag/crc is caught here even when bounds happen to
  // stay valid.
  auto stored_header_crc = in.ReadU32();
  if (!stored_header_crc.ok()) return stored_header_crc.status();
  const uint32_t header_crc = Crc32(bytes.data(), table_end);
  if (header_crc != *stored_header_crc) {
    return Status::Invalid("container: header checksum mismatch");
  }

  // Payloads must tile the file exactly: any truncation or trailing
  // garbage is a hard error, so a short copy can never half-load.
  if (offset != bytes.size()) {
    return Status::IOError("container: size mismatch (truncated or padded)");
  }

  for (size_t i = 0; i < reader.sections_.size(); ++i) {
    const SectionInfo& section = reader.sections_[i];
    const uint32_t crc = Crc32(bytes.data() + section.offset, section.length);
    if (crc != crcs[i]) {
      return Status::Invalid("container: section checksum mismatch");
    }
  }

  reader.bytes_ = std::move(bytes);
  return reader;
}

Result<SectionReader> SectionReader::Open(const std::string& path,
                                          storage::PageManager* pager) {
  auto bytes = ReadAllBytes(path);
  if (!bytes.ok()) return bytes.status();
  auto reader = Parse(std::move(*bytes));
  if (!reader.ok()) return reader.status();
  if (pager != nullptr) {
    // Register the container's extent, then fetch it: pages_read is the
    // cold-open cost at the pager's page size.
    pager->SealCurrentPage();
    const storage::PageId first = pager->AppendRecord(reader->HeaderBytes());
    for (const SectionInfo& section : reader->sections()) {
      pager->AppendRecord(section.length);
    }
    pager->DropCache();
    PPQ_RETURN_NOT_OK(pager->ReadRange(first, pager->NumPages() - 1));
  }
  return reader;
}

bool SectionReader::Has(uint32_t tag) const {
  for (const SectionInfo& section : sections_) {
    if (section.tag == tag) return true;
  }
  return false;
}

Result<ByteReader> SectionReader::Find(uint32_t tag) const {
  for (const SectionInfo& section : sections_) {
    if (section.tag == tag) {
      return ByteReader(bytes_.data() + section.offset, section.length);
    }
  }
  return Status::Invalid("container: missing section");
}

// -------------------------------------------------------------------------
// Summary payload (public pieces)
// -------------------------------------------------------------------------

void EncodeSummary(const TrajectorySummary& summary, ByteWriter* out) {
  const size_t start = out->size();
  const size_t bytes = EncodedSummaryBytes(summary);
  out->Reserve(start + bytes);
  out->WriteU32(kSummaryFormatVersion);
  out->WriteI32(summary.prediction_order());
  out->WriteU8(summary.has_cqc() ? 1 : 0);
  if (summary.has_cqc()) {
    out->WriteF64(summary.codec()->epsilon());
    out->WriteF64(summary.codec()->grid_size());
  }
  EncodeCodebook(summary.codebook(), out);

  out->WriteU64(summary.tick_codebooks().size());
  for (const auto& [tick, codebook] : summary.tick_codebooks()) {
    out->WriteI32(tick);
    EncodeCodebook(codebook, out);
  }

  const CoefficientTable& table = summary.coefficients();
  out->WriteU64(table.NumTicks());
  for (size_t i = 0; i < table.NumTicks(); ++i) {
    out->WriteI32(table.TickAt(i));
    out->WriteU64(table.NumSets(i));
    for (size_t p = 0; p < table.NumSets(i); ++p) {
      const CoefficientTable::Set set = table.SetAt(i, p);
      out->WriteU64(set.size);
      for (size_t c = 0; c < set.size; ++c) out->WriteF64(set.values[c]);
    }
  }

  out->WriteU64(summary.NumTrajectories());
  for (const auto& [id, record] : summary.records()) {
    out->WriteI32(id);
    out->WriteI32(record.start_tick);
    out->WriteU64(record.points.size());
    uint8_t* dst = out->Extend(record.points.size() * kPointRecordBytes);
    for (const PointRecord& pr : record.points) {
      StoreU32LE(dst, static_cast<uint32_t>(pr.partition));
      StoreU32LE(dst + 4, static_cast<uint32_t>(pr.codeword));
      StoreU64LE(dst + 8, pr.cqc.bits);
      StoreU32LE(dst + 16, static_cast<uint32_t>(pr.cqc.length));
      dst += kPointRecordBytes;
    }
  }
  assert(out->size() - start == bytes);
}

Result<TrajectorySummary> DecodeSummary(ByteReader* in) {
  auto version = in->ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kSummaryFormatVersion) {
    return Status::Invalid("summary: unsupported payload version " +
                           std::to_string(*version));
  }
  return DecodeSummaryBody(in);
}

// -------------------------------------------------------------------------
// SaveSummary / LoadSummary
// -------------------------------------------------------------------------

Status SaveSummary(const TrajectorySummary& summary,
                   const std::string& path) {
  SectionWriter writer;
  EncodeSummary(summary, writer.AddSection(kSectionSummary));
  return writer.WriteFile(path);
}

Result<TrajectorySummary> LoadSummary(const std::string& path) {
  // Probe the 8-byte magic BEFORE slurping the file: pointing the loader
  // at an arbitrary multi-GB non-PPQ file must fail after one tiny read,
  // not after buffering the whole thing. Only the magic decides "not
  // ours"; a recognised container with a bad checksum or structure
  // surfaces its own diagnostic below instead of being misfiled.
  char magic[sizeof(kContainerMagic)] = {};
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Status::IOError("cannot open for reading: " + path);
    probe.read(magic, sizeof(magic));
    if (probe.gcount() != static_cast<std::streamsize>(sizeof(magic))) {
      return Status::Invalid("not a PPQ summary file: " + path);
    }
  }
  const bool legacy =
      std::memcmp(magic, kLegacyMagic, sizeof(kLegacyMagic)) == 0;
  const bool container_format =
      std::memcmp(magic, kContainerMagic, sizeof(kContainerMagic)) == 0;
  if (!legacy && !container_format) {
    return Status::Invalid("not a PPQ summary file: " + path);
  }

  auto bytes = ReadAllBytes(path);
  if (!bytes.ok()) return bytes.status();

  // Version gate on the magic: legacy v1 flat files stay readable. The
  // v1 reader is deliberately lenient about trailing bytes — the old
  // loader was, and compatibility trumps strictness there.
  if (legacy) {
    ByteReader in(bytes->data(), bytes->size());
    PPQ_RETURN_NOT_OK(in.ReadBytes(magic, sizeof(magic)));
    auto version = in.ReadU32();
    if (!version.ok()) return version.status();
    if (*version != kLegacySummaryFormatVersion) {
      return Status::Invalid("unsupported summary format version");
    }
    return DecodeSummaryBody(&in);
  }

  auto container = SectionReader::Parse(std::move(*bytes));
  if (!container.ok()) return container.status();
  auto section = container->Find(kSectionSummary);
  if (!section.ok()) return section.status();
  auto summary = DecodeSummary(&*section);
  if (summary.ok() && !section->AtEnd()) {
    return Status::Invalid("summary: trailing bytes in section");
  }
  return summary;
}

// -------------------------------------------------------------------------
// Snapshot Save / Open
// -------------------------------------------------------------------------

Status PpqSummarySnapshot::Save(const std::string& path,
                                storage::PageManager* pager) const {
  SectionWriter writer;
  SnapshotMeta meta;
  meta.kind = kKindPpq;
  meta.name = name_;
  meta.local_search_radius = local_search_radius_;
  meta.summary_bytes = summary_bytes_;
  meta.num_codewords = NumCodewords();
  EncodeMeta(meta, writer.AddSection(kSectionMeta));
  EncodeSummary(summary_, writer.AddSection(kSectionSummary));
  return FinishSnapshotSave(&writer, tpi_.get(), path, pager);
}

Status MaterializedSnapshot::Save(const std::string& path,
                                  storage::PageManager* pager) const {
  SectionWriter writer;
  SnapshotMeta meta;
  meta.kind = kKindMaterialized;
  meta.name = name_;
  meta.local_search_radius = local_search_radius_;
  meta.summary_bytes = summary_bytes_;
  meta.num_codewords = num_codewords_;
  EncodeMeta(meta, writer.AddSection(kSectionMeta));
  EncodePointTables(points_, writer.AddSection(kSectionPoints));
  return FinishSnapshotSave(&writer, tpi_.get(), path, pager);
}

Result<SnapshotPtr> OpenSnapshot(const std::string& path,
                                 storage::PageManager* pager) {
  auto container = SectionReader::Open(path, pager);
  if (!container.ok()) return container.status();
  if (!container->Has(kSectionMeta)) {
    return Status::Invalid("not a snapshot container (no META section): " +
                           path);
  }
  auto meta_section = container->Find(kSectionMeta);
  if (!meta_section.ok()) return meta_section.status();
  auto meta = DecodeMeta(&*meta_section);
  if (!meta.ok()) return meta.status();
  // Strict sections: a CRC-valid payload with bytes the decoder never
  // consumed is a forgery (or a writer bug), not padding to tolerate.
  if (!meta_section->AtEnd()) {
    return Status::Invalid("snapshot: trailing bytes in META section");
  }

  // TPI presence is the section table's fact, not a META flag — there is
  // no representable "flag says yes, section says no" state.
  std::shared_ptr<const index::TemporalPartitionIndex> tpi;
  if (container->Has(kSectionTpi)) {
    auto tpi_section = container->Find(kSectionTpi);
    if (!tpi_section.ok()) return tpi_section.status();
    auto loaded = index::TemporalPartitionIndex::LoadFrom(&*tpi_section);
    if (!loaded.ok()) return loaded.status();
    if (!tpi_section->AtEnd()) {
      return Status::Invalid("snapshot: trailing bytes in TPI section");
    }
    tpi = std::make_shared<const index::TemporalPartitionIndex>(
        std::move(*loaded));
  }

  switch (meta->kind) {
    case kKindPpq: {
      auto section = container->Find(kSectionSummary);
      if (!section.ok()) return section.status();
      auto summary = DecodeSummary(&*section);
      if (!summary.ok()) return summary.status();
      if (!section->AtEnd()) {
        return Status::Invalid("snapshot: trailing bytes in SUMM section");
      }
      // A reopened summary shares no memo with any live encoder.
      return SnapshotPtr(std::make_shared<PpqSummarySnapshot>(
          meta->name, std::move(*summary), std::move(tpi),
          meta->local_search_radius, NewDecodeLineage()));
    }
    case kKindMaterialized: {
      auto section = container->Find(kSectionPoints);
      if (!section.ok()) return section.status();
      auto points = DecodePointTables(&*section);
      if (!points.ok()) return points.status();
      if (!section->AtEnd()) {
        return Status::Invalid("snapshot: trailing bytes in PNTS section");
      }
      return SnapshotPtr(std::make_shared<MaterializedSnapshot>(
          meta->name, std::move(*points), std::move(tpi),
          meta->local_search_radius,
          static_cast<size_t>(meta->summary_bytes),
          static_cast<size_t>(meta->num_codewords)));
    }
    default:
      return Status::Invalid("snapshot: unknown kind " +
                             std::to_string(meta->kind));
  }
}

}  // namespace ppq::core
