#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/summary.h"
#include "index/temporal_index.h"

/// \file snapshot.h
/// The writer/reader split of the serving path: a SummarySnapshot is an
/// immutable, cheaply shareable (shared_ptr) sealed view of a compressor's
/// queryable state — summary, codebooks, CQC codec, and temporal index —
/// produced by Compressor::Seal(). Encoding can continue after a seal (the
/// snapshot deep-copies what it needs), so a server can re-seal
/// periodically and swap snapshots under live readers, PRESS/compact-index
/// style: writers never touch what readers see.
///
/// Thread-safety contract: every method of a snapshot is safe to call from
/// any number of threads concurrently, PROVIDED each caller passes its own
/// DecodeMemo to Reconstruct(). The snapshot itself holds no mutable
/// state; all decode scratch lives with the caller.
///
/// Persistence: Save() writes the snapshot into the versioned, checksummed
/// container documented in serialization.h; core::OpenSnapshot() is the
/// inverse. A saved snapshot is self-contained — summary (or dense point
/// tables), temporal partition index, and CQC codec parameters all
/// round-trip — so a restarted server cold-opens the file and serves
/// byte-identical results without recompressing anything.

namespace ppq::storage {
class PageManager;
}  // namespace ppq::storage

namespace ppq::core {

class SummarySnapshot;
/// Snapshots are shared by const pointer: readers hold refcounts, the
/// writer drops its reference on re-seal, and the last reader frees it.
using SnapshotPtr = std::shared_ptr<const SummarySnapshot>;

/// A fresh decode lineage: process-unique and non-zero, drawn from one
/// atomic counter (see SummarySnapshot::decode_lineage).
uint64_t NewDecodeLineage();

/// \brief Immutable sealed view of a compressed method, ready to serve
/// queries concurrently.
class SummarySnapshot {
 public:
  virtual ~SummarySnapshot() = default;

  /// \brief The identity of the encoder state this snapshot decodes:
  /// snapshots with equal lineages decode every (id, tick) they share to
  /// the same point, so they may share one DecodeMemo. Every seal of one
  /// PpqTrajectory carries that encoder's lineage; every other snapshot
  /// (a materialized seal, a reopened container) carries a fresh one.
  uint64_t decode_lineage() const { return decode_lineage_; }

  /// Method name as printed in the paper's tables.
  virtual std::string name() const = 0;

  /// Reconstruct T_i^t from the sealed summary. \p scratch must be owned
  /// by the calling thread (one DecodeMemo per reader thread); it carries
  /// the memoised decode prefixes across calls.
  virtual Result<Point> Reconstruct(TrajId id, Tick t,
                                    DecodeMemo* scratch) const = 0;

  /// Batched reconstruction of the span [tick_begin, tick_begin + n),
  /// bit-identical to n Reconstruct calls. Returns the number of points
  /// written to \p out: n when the whole span is decodable, fewer when the
  /// trajectory ends first, 0 for an unknown id or a tick before the
  /// record. Same scratch contract as Reconstruct(). The base
  /// implementation loops per point; summary-backed snapshots override it
  /// with the vectorized span decode.
  virtual size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                                 Point* out, DecodeMemo* scratch) const {
    for (size_t i = 0; i < n; ++i) {
      const auto p =
          Reconstruct(id, tick_begin + static_cast<Tick>(i), scratch);
      if (!p.ok()) return i;
      out[i] = *p;
    }
    return n;
  }

  /// The sealed temporal index, or nullptr when the method was built
  /// without one (queries then return empty, like the live engine).
  virtual const index::TemporalPartitionIndex* index() const = 0;

  /// The method's local-search radius at seal time.
  virtual double LocalSearchRadius() const = 0;

  /// Summary footprint at seal time.
  virtual size_t SummaryBytes() const = 0;
  virtual size_t NumCodewords() const = 0;
  virtual size_t NumTrajectories() const = 0;

  /// The largest tick any sealed record covers (inclusive), or
  /// std::numeric_limits<Tick>::min() for an empty snapshot. Live
  /// recovery derives a reopened shard's sealed_through frontier from
  /// this: WAL records at or below it are already answered by the seal.
  virtual Tick MaxCoveredTick() const = 0;

  /// \brief Persist this snapshot to \p path (overwrites) in the durable
  /// container format (serialization.h). The inverse is
  /// core::OpenSnapshot. When \p pager is non-null the write is routed
  /// through it so pages_written reflects the on-disk footprint.
  virtual Status Save(const std::string& path,
                      storage::PageManager* pager = nullptr) const = 0;

 protected:
  explicit SummarySnapshot(uint64_t decode_lineage)
      : decode_lineage_(decode_lineage) {}

 private:
  uint64_t decode_lineage_;
};

/// \brief Snapshot of a PPQ-family method: deep copies of the decodable
/// summary (codebooks + code streams + coefficients + CQC codes) and the
/// temporal partition index. Reconstruction decodes from the compressed
/// form, using only the caller's scratch — memory stays at summary scale.
class PpqSummarySnapshot final : public SummarySnapshot {
 public:
  /// \p decode_lineage is the sealing encoder's, or NewDecodeLineage()
  /// for a summary of unknown provenance (a reopened container).
  PpqSummarySnapshot(std::string name, TrajectorySummary summary,
                     std::shared_ptr<const index::TemporalPartitionIndex> tpi,
                     double local_search_radius, uint64_t decode_lineage);

  std::string name() const override { return name_; }
  Result<Point> Reconstruct(TrajId id, Tick t,
                            DecodeMemo* scratch) const override;
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n, Point* out,
                         DecodeMemo* scratch) const override;
  const index::TemporalPartitionIndex* index() const override {
    return tpi_.get();
  }
  double LocalSearchRadius() const override { return local_search_radius_; }
  size_t SummaryBytes() const override { return summary_bytes_; }
  size_t NumCodewords() const override { return summary_.NumCodewords(); }
  size_t NumTrajectories() const override {
    return summary_.NumTrajectories();
  }
  Tick MaxCoveredTick() const override;
  Status Save(const std::string& path,
              storage::PageManager* pager = nullptr) const override;

  const TrajectorySummary& summary() const { return summary_; }

 private:
  std::string name_;
  TrajectorySummary summary_;
  std::shared_ptr<const index::TemporalPartitionIndex> tpi_;
  double local_search_radius_;
  size_t summary_bytes_;  ///< cached: Size() walks every record
};

/// \brief Generic snapshot for methods without a scratch-decodable summary
/// (the offline baselines): every reconstructable point is decoded once at
/// seal time into a dense per-trajectory table, making Reconstruct an O(1)
/// array lookup that ignores the scratch.
class MaterializedSnapshot final : public SummarySnapshot {
 public:
  struct TrajectoryPoints {
    Tick start_tick = 0;
    std::vector<Point> points;
  };

  MaterializedSnapshot(std::string name,
                       std::map<TrajId, TrajectoryPoints> points,
                       std::shared_ptr<const index::TemporalPartitionIndex> tpi,
                       double local_search_radius, size_t summary_bytes,
                       size_t num_codewords);

  std::string name() const override { return name_; }
  Result<Point> Reconstruct(TrajId id, Tick t,
                            DecodeMemo* scratch) const override;
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n, Point* out,
                         DecodeMemo* scratch) const override;
  const index::TemporalPartitionIndex* index() const override {
    return tpi_.get();
  }
  double LocalSearchRadius() const override { return local_search_radius_; }
  size_t SummaryBytes() const override { return summary_bytes_; }
  size_t NumCodewords() const override { return num_codewords_; }
  size_t NumTrajectories() const override { return points_.size(); }
  Tick MaxCoveredTick() const override;
  Status Save(const std::string& path,
              storage::PageManager* pager = nullptr) const override;

  /// The dense per-trajectory decode tables (persistence, introspection).
  const std::map<TrajId, TrajectoryPoints>& points() const { return points_; }

 private:
  std::string name_;
  std::map<TrajId, TrajectoryPoints> points_;
  std::shared_ptr<const index::TemporalPartitionIndex> tpi_;
  double local_search_radius_;
  size_t summary_bytes_;
  size_t num_codewords_;
};

}  // namespace ppq::core
