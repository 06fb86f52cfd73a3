#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "index/huffman.h"
#include "index/rectangle.h"

/// \file grid_index.h
/// The per-subregion grid index of Algorithm 3 (after [41, 42]): a
/// rectangle partitioned into gc-sized cells, each cell holding the ids of
/// the trajectories located there, keyed by tick. Finalize() compresses
/// every id list with delta encoding plus a Huffman table shared across
/// the grid (Section 5.1).
///
/// In memory the grid is tick-major, after the occupancy-driven layouts
/// of compact spatio-temporal indexes (de Bernardo et al., arXiv
/// 1611.05247): a tick-sorted array, and for each tick only its occupied
/// cells, in ascending (row-major) key order, in flat per-grid arrays.
/// A local-search scan binary-searches the tick and then walks occupied
/// cells, so it costs what it returns rather than the disc's area. The
/// serialized form is cell-major (SaveTo regroups, LoadFrom transposes).

namespace ppq::index {

/// \brief Grid over one rectangle; maps (cell, tick) -> trajectory ids.
class GridIndex {
 public:
  /// \param region     the rectangle covered by this grid.
  /// \param cell_size  gc, in coordinate units.
  GridIndex(Rect region, double cell_size);

  const Rect& region() const { return region_; }
  double cell_size() const { return cell_size_; }
  int cells_x() const { return cells_x_; }
  int cells_y() const { return cells_y_; }

  bool Contains(const Point& p) const { return region_.Contains(p); }

  /// Index trajectory \p id at position \p p for tick \p t. The caller
  /// guarantees Contains(p). Inserts come before Finalize(), just as a
  /// compressor's Finish() comes after its last slice: a finalized grid
  /// holds only packed lists, so a later insert is a contract violation
  /// (asserted in debug builds; release builds drop the id). Ticks may
  /// arrive in any order, but the newest tick is the cheap case.
  void Insert(Tick t, TrajId id, const Point& p);

  /// Number of ids indexed at tick \p t (the N_{R_i,t} of Definition 5.1).
  size_t CountAt(Tick t) const;

  /// Ids in the cell containing \p p at tick \p t (STRQ primitive).
  std::vector<TrajId> Query(const Point& p, Tick t) const;

  /// Append ids at tick \p t from every cell intersecting the disc around
  /// \p center (the local-search scan of Section 5.2).
  void QueryCircle(const Point& center, double radius, Tick t,
                   std::vector<TrajId>* out) const;

  /// Compress all id lists (delta + shared Huffman) into one byte arena.
  /// Idempotent; see Insert for the ordering contract.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Storage footprint, charged as the cell-major format stores it: the
  /// region, an 8-byte key per occupied cell, a 4-byte tick per (cell,
  /// tick) list plus its ids (compressed with a 12-byte header when
  /// finalized, 4 bytes/id otherwise), and the shared Huffman table.
  size_t SizeBytes() const;

  /// Append the full grid state (region, cell lists — raw or packed — and
  /// the shared Huffman table) to \p out, cell-major: cells in key order,
  /// each with its lists in tick order, so equal grids serialize to equal
  /// bytes.
  void SaveTo(ByteWriter* out) const;

  /// Inverse of SaveTo, transposing to tick-major in its one parsing
  /// pass. Geometry is validated (finite region, positive cell size,
  /// bounded cell counts) before any allocation; input SaveTo never
  /// writes (keys out of order or out of range, raw lists in a finalized
  /// grid or packed lists in a raw one, a repeated or unsorted (cell,
  /// tick), an empty list, per-tick counts that disagree with the lists)
  /// yields kInvalidArgument, other malformed input a Status error.
  static Result<GridIndex> LoadFrom(ByteReader* in);

 private:
  /// One (cell, id) posting of a raw grid; a tick's postings are sorted
  /// by (key, id), so each occupied cell is one run.
  struct RawEntry {
    int64_t key;
    TrajId id;
  };
  /// One occupied cell of a finalized grid: `count` ids packed in
  /// `bit_count` bits at arena_[offset].
  struct PackedCell {
    int64_t key;
    uint32_t count;
    uint32_t bit_count;
    size_t offset;
  };
  /// One indexed tick. Its cells are [begin, next tick's begin) of raw_
  /// before Finalize and of packed_ after.
  struct TickSpan {
    Tick tick;
    size_t begin;
  };

  int64_t CellKey(const Point& p) const;
  /// Index of tick \p t in ticks_, or ticks_.size() when not indexed.
  size_t FindTick(Tick t) const;
  /// One past the last raw_/packed_ position of ticks_[i].
  size_t TickEnd(size_t i) const;
  /// Ids indexed at ticks_[i].
  size_t CountIn(size_t i) const;
  /// Key of the cell at raw_/packed_ position \p pos.
  int64_t KeyAt(size_t pos) const {
    return finalized_ ? packed_[pos].key : raw_[pos].key;
  }
  /// First position in [first, last) whose key is at least \p key.
  size_t LowerKey(size_t first, size_t last, int64_t key) const;
  /// Position of the cell after the one at \p pos, in a tick ending at
  /// \p end.
  size_t NextCell(size_t pos, size_t end) const;
  /// Append the ids of the cell at \p pos (in a tick ending at \p end)
  /// to \p out; returns NextCell(pos, end).
  size_t AppendCellIds(size_t pos, size_t end, std::vector<TrajId>* out) const;

  Rect region_;
  double cell_size_;
  int cells_x_;
  int cells_y_;
  bool finalized_ = false;
  std::vector<TickSpan> ticks_;     ///< ascending tick
  std::vector<RawEntry> raw_;       ///< before Finalize
  std::vector<PackedCell> packed_;  ///< after Finalize
  std::vector<uint8_t> arena_;      ///< packed list bytes
  HuffmanTable table_;
};

}  // namespace ppq::index
