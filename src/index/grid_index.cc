#include "index/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace ppq::index {
namespace {

/// Clamp a fractional cell coordinate to [0, max_index] in the DOUBLE
/// domain, before any int cast: float-to-int conversion of an
/// out-of-range value is UB, so the old cast-then-clamp pattern could
/// trap on extreme coordinates (a far-away query point, or a grid whose
/// region a forged-but-checksummed snapshot placed at 1e300). NaN maps
/// to 0. Equals floor+clamp for every in-range value.
int ClampCellIndex(double cell, int max_index) {
  if (!(cell > 0.0)) return 0;
  if (cell >= static_cast<double>(max_index)) return max_index;
  return static_cast<int>(cell);
}

/// First span of the tick-sorted \p ticks whose tick is at least \p t.
template <typename Spans>
auto LowerBoundByTick(Spans& ticks, Tick t) {
  return std::lower_bound(
      ticks.begin(), ticks.end(), t,
      [](const auto& span, Tick tick) { return span.tick < tick; });
}

/// First element of the key-sorted [first, last) of \p cells whose key is
/// at least \p key.
template <typename Cell>
size_t LowerBoundByKey(const std::vector<Cell>& cells, size_t first,
                       size_t last, int64_t key) {
  const auto it = std::lower_bound(
      cells.begin() + static_cast<std::ptrdiff_t>(first),
      cells.begin() + static_cast<std::ptrdiff_t>(last), key,
      [](const Cell& cell, int64_t k) { return cell.key < k; });
  return static_cast<size_t>(it - cells.begin());
}

}  // namespace

GridIndex::GridIndex(Rect region, double cell_size)
    : region_(region), cell_size_(cell_size) {
  cells_x_ = std::max(1, static_cast<int>(std::ceil(region.width() / cell_size)));
  cells_y_ = std::max(1, static_cast<int>(std::ceil(region.height() / cell_size)));
}

int64_t GridIndex::CellKey(const Point& p) const {
  const int cx =
      ClampCellIndex((p.x - region_.min_x) / cell_size_, cells_x_ - 1);
  const int cy =
      ClampCellIndex((p.y - region_.min_y) / cell_size_, cells_y_ - 1);
  return static_cast<int64_t>(cy) * cells_x_ + cx;
}

size_t GridIndex::FindTick(Tick t) const {
  const auto it = LowerBoundByTick(ticks_, t);
  if (it == ticks_.end() || it->tick != t) return ticks_.size();
  return static_cast<size_t>(it - ticks_.begin());
}

size_t GridIndex::TickEnd(size_t i) const {
  if (i + 1 < ticks_.size()) return ticks_[i + 1].begin;
  return finalized_ ? packed_.size() : raw_.size();
}

size_t GridIndex::CountIn(size_t i) const {
  const size_t end = TickEnd(i);
  if (!finalized_) return end - ticks_[i].begin;
  size_t count = 0;
  for (size_t pos = ticks_[i].begin; pos < end; ++pos) {
    count += packed_[pos].count;
  }
  return count;
}

size_t GridIndex::LowerKey(size_t first, size_t last, int64_t key) const {
  return finalized_ ? LowerBoundByKey(packed_, first, last, key)
                    : LowerBoundByKey(raw_, first, last, key);
}

size_t GridIndex::NextCell(size_t pos, size_t end) const {
  if (finalized_) return pos + 1;
  const int64_t key = raw_[pos].key;
  do {
    ++pos;
  } while (pos < end && raw_[pos].key == key);
  return pos;
}

size_t GridIndex::AppendCellIds(size_t pos, size_t end,
                                std::vector<TrajId>* out) const {
  if (finalized_) {
    const PackedCell& cell = packed_[pos];
    // The table was built from exactly these lists, so decoding cannot
    // fail; on corruption the cell contributes nothing.
    (void)DecompressIdsInto(arena_.data() + cell.offset, cell.bit_count,
                            cell.count, table_, out);
    return pos + 1;
  }
  const size_t next = NextCell(pos, end);
  for (; pos < next; ++pos) out->push_back(raw_[pos].id);
  return next;
}

void GridIndex::Insert(Tick t, TrajId id, const Point& p) {
  assert(!finalized_ && "GridIndex::Insert after Finalize");
  if (finalized_) return;
  auto span = LowerBoundByTick(ticks_, t);
  if (span == ticks_.end() || span->tick != t) {
    const size_t begin = span == ticks_.end() ? raw_.size() : span->begin;
    span = ticks_.insert(span, TickSpan{t, begin});
  }
  const size_t i = static_cast<size_t>(span - ticks_.begin());
  // Keep the tick's postings sorted by (key, id): cells for the scans,
  // ids for delta encoding. Ids of one cell usually arrive ascending.
  const RawEntry entry{CellKey(p), id};
  const auto pos = std::upper_bound(
      raw_.begin() + static_cast<std::ptrdiff_t>(span->begin),
      raw_.begin() + static_cast<std::ptrdiff_t>(TickEnd(i)), entry,
      [](const RawEntry& a, const RawEntry& b) {
        return a.key < b.key || (a.key == b.key && a.id < b.id);
      });
  raw_.insert(pos, entry);
  for (size_t later = i + 1; later < ticks_.size(); ++later) {
    ++ticks_[later].begin;
  }
}

size_t GridIndex::CountAt(Tick t) const {
  const size_t i = FindTick(t);
  return i == ticks_.size() ? 0 : CountIn(i);
}

std::vector<TrajId> GridIndex::Query(const Point& p, Tick t) const {
  std::vector<TrajId> ids;
  const size_t i = FindTick(t);
  if (i == ticks_.size()) return ids;
  const int64_t key = CellKey(p);
  const size_t end = TickEnd(i);
  const size_t pos = LowerKey(ticks_[i].begin, end, key);
  if (pos < end && KeyAt(pos) == key) AppendCellIds(pos, end, &ids);
  return ids;
}

void GridIndex::QueryCircle(const Point& center, double radius, Tick t,
                            std::vector<TrajId>* out) const {
  const size_t i = FindTick(t);
  if (i == ticks_.size()) return;
  const int cx_lo = ClampCellIndex(
      (center.x - radius - region_.min_x) / cell_size_, cells_x_ - 1);
  const int cx_hi = ClampCellIndex(
      (center.x + radius - region_.min_x) / cell_size_, cells_x_ - 1);
  const int cy_lo = ClampCellIndex(
      (center.y - radius - region_.min_y) / cell_size_, cells_y_ - 1);
  const int cy_hi = ClampCellIndex(
      (center.y + radius - region_.min_y) / cell_size_, cells_y_ - 1);
  // Keys are row-major, so the occupied cells of each bounding-box row
  // are one run of the tick's key-sorted cells: binary-search the row's
  // first key, walk to its last, and jump straight past empty rows.
  const size_t end = TickEnd(i);
  size_t pos = ticks_[i].begin;
  int cy = cy_lo;
  while (cy <= cy_hi) {
    const int64_t row_base = static_cast<int64_t>(cy) * cells_x_;
    pos = LowerKey(pos, end, row_base + cx_lo);
    if (pos == end) return;
    const int64_t row = KeyAt(pos) / cells_x_;
    if (row != cy) {
      cy = static_cast<int>(row);  // the next row with an occupied cell
      continue;
    }
    for (int64_t key = KeyAt(pos); key <= row_base + cx_hi;
         key = KeyAt(pos)) {
      // Reject cells whose closest point to the centre is outside the disc.
      const int cx = static_cast<int>(key - row_base);
      const double cell_min_x = region_.min_x + cx * cell_size_;
      const double cell_min_y = region_.min_y + cy * cell_size_;
      const double nearest_x =
          std::clamp(center.x, cell_min_x, cell_min_x + cell_size_);
      const double nearest_y =
          std::clamp(center.y, cell_min_y, cell_min_y + cell_size_);
      const double dx = center.x - nearest_x;
      const double dy = center.y - nearest_y;
      pos = dx * dx + dy * dy > radius * radius ? NextCell(pos, end)
                                                : AppendCellIds(pos, end, out);
      if (pos == end) return;
    }
    ++cy;
  }
}

void GridIndex::Finalize() {
  if (finalized_) return;
  std::unordered_map<uint32_t, uint64_t> frequencies;
  std::vector<TrajId> ids;
  size_t lists = 0;
  for (size_t i = 0; i < ticks_.size(); ++i) {
    const size_t end = TickEnd(i);
    for (size_t pos = ticks_[i].begin; pos < end; ++lists) {
      ids.clear();
      pos = AppendCellIds(pos, end, &ids);
      AccumulateDeltaFrequencies(ids, &frequencies);
    }
  }
  table_ = HuffmanTable::Build(frequencies);

  std::vector<PackedCell> packed;
  packed.reserve(lists);
  for (size_t i = 0; i < ticks_.size(); ++i) {
    const size_t end = TickEnd(i);  // still a raw_ position
    size_t pos = ticks_[i].begin;
    ticks_[i].begin = packed.size();
    while (pos < end) {
      const int64_t key = raw_[pos].key;
      ids.clear();
      pos = AppendCellIds(pos, end, &ids);
      auto list = CompressIds(ids, table_);
      // Cannot fail: the table covers every delta by construction.
      if (!list.ok()) continue;
      packed.push_back({key, list->count, list->bit_count, arena_.size()});
      arena_.insert(arena_.end(), list->bytes.begin(), list->bytes.end());
    }
  }
  packed_ = std::move(packed);
  arena_.shrink_to_fit();
  std::vector<RawEntry>().swap(raw_);
  finalized_ = true;
}

void GridIndex::SaveTo(ByteWriter* out) const {
  out->WriteF64(region_.min_x);
  out->WriteF64(region_.min_y);
  out->WriteF64(region_.max_x);
  out->WriteF64(region_.max_y);
  out->WriteF64(cell_size_);
  out->WriteU8(finalized_ ? 1 : 0);
  table_.SaveTo(out);

  out->WriteU64(ticks_.size());
  for (size_t i = 0; i < ticks_.size(); ++i) {
    out->WriteI32(ticks_[i].tick);
    out->WriteU64(CountIn(i));
  }

  // The format is cell-major: regroup every (cell, tick) list by key,
  // ticks ascending within a cell.
  struct List {
    int64_t key;
    size_t tick;  ///< index into ticks_
    size_t pos;
    size_t next;
  };
  std::vector<List> lists;
  for (size_t i = 0; i < ticks_.size(); ++i) {
    const size_t end = TickEnd(i);
    for (size_t pos = ticks_[i].begin; pos < end;) {
      const size_t next = NextCell(pos, end);
      lists.push_back({KeyAt(pos), i, pos, next});
      pos = next;
    }
  }
  std::sort(lists.begin(), lists.end(), [](const List& a, const List& b) {
    return a.key < b.key || (a.key == b.key && a.tick < b.tick);
  });
  size_t cells = 0;
  for (size_t l = 0; l < lists.size(); ++l) {
    if (l == 0 || lists[l].key != lists[l - 1].key) ++cells;
  }
  out->WriteU64(cells);
  for (size_t first = 0; first < lists.size();) {
    size_t last = first;
    while (last < lists.size() && lists[last].key == lists[first].key) ++last;
    out->WriteU64(static_cast<uint64_t>(lists[first].key));
    if (finalized_) {
      out->WriteU64(0);  // no raw lists
      out->WriteU64(last - first);
      for (size_t l = first; l < last; ++l) {
        const PackedCell& cell = packed_[lists[l].pos];
        out->WriteI32(ticks_[lists[l].tick].tick);
        WriteCompressedIds(cell.count, cell.bit_count,
                           arena_.data() + cell.offset, out);
      }
    } else {
      out->WriteU64(last - first);
      for (size_t l = first; l < last; ++l) {
        out->WriteI32(ticks_[lists[l].tick].tick);
        out->WriteU64(lists[l].next - lists[l].pos);
        uint8_t* dst = out->Extend(4 * (lists[l].next - lists[l].pos));
        for (size_t pos = lists[l].pos; pos < lists[l].next; ++pos, dst += 4) {
          StoreU32LE(dst, static_cast<uint32_t>(raw_[pos].id));
        }
      }
      out->WriteU64(0);  // no packed lists
    }
    first = last;
  }
}

Result<GridIndex> GridIndex::LoadFrom(ByteReader* in) {
  Rect region;
  auto min_x = in->ReadF64();
  auto min_y = in->ReadF64();
  auto max_x = in->ReadF64();
  auto max_y = in->ReadF64();
  auto cell_size = in->ReadF64();
  auto finalized = in->ReadU8();
  if (!min_x.ok() || !min_y.ok() || !max_x.ok() || !max_y.ok() ||
      !cell_size.ok() || !finalized.ok()) {
    return Status::IOError("GridIndex: truncated header");
  }
  region = Rect{*min_x, *min_y, *max_x, *max_y};
  // Validate geometry before the constructor computes cell counts: a
  // forged region/cell_size combination must not overflow the int cast.
  if (!std::isfinite(region.min_x) || !std::isfinite(region.min_y) ||
      !std::isfinite(region.max_x) || !std::isfinite(region.max_y) ||
      !std::isfinite(*cell_size) || *cell_size <= 0.0 ||
      region.max_x < region.min_x || region.max_y < region.min_y) {
    return Status::Invalid("GridIndex: malformed region geometry");
  }
  // Bound each axis (the int cast in the constructor) AND the product:
  // two individually-representable axes can still multiply into a grid
  // whose QueryCircle scan would spin for ~2^60 iterations — a forged
  // file must not buy a CPU-bound hang on the first local-search query.
  constexpr double kMaxCellsPerAxis = 1 << 30;
  constexpr double kMaxTotalCells = 4e9;
  const double cells_wide = region.width() / *cell_size;
  const double cells_high = region.height() / *cell_size;
  if (cells_wide > kMaxCellsPerAxis || cells_high > kMaxCellsPerAxis ||
      std::max(cells_wide, 1.0) * std::max(cells_high, 1.0) >
          kMaxTotalCells) {
    return Status::Invalid("GridIndex: cell count out of range");
  }
  GridIndex grid(region, *cell_size);
  grid.finalized_ = *finalized != 0;

  auto table = HuffmanTable::LoadFrom(in);
  if (!table.ok()) return table.status();
  grid.table_ = std::move(*table);

  // The per-tick counts come first, ticks ascending: they size the
  // tick-major arrays the cell-major lists are transposed into. `owed`
  // counts down the ids each tick's lists must still supply.
  auto tick_count = in->ReadCount(12);  // i32 tick + u64 count
  if (!tick_count.ok()) return tick_count.status();
  grid.ticks_.reserve(*tick_count);
  std::vector<uint64_t> owed;
  owed.reserve(*tick_count);
  uint64_t total_ids = 0;
  for (uint64_t i = 0; i < *tick_count; ++i) {
    auto tick = in->ReadI32();
    if (!tick.ok()) return tick.status();
    auto count = in->ReadU64();
    if (!count.ok()) return count.status();
    if (*count == 0 ||
        (!grid.ticks_.empty() && *tick <= grid.ticks_.back().tick)) {
      return Status::Invalid("GridIndex: tick counts not ascending or empty");
    }
    // Every id takes at least a bit of what is left (4 bytes when raw):
    // bounds the sum, and the raw allocation below, by the input. Checked
    // before adding, so a forged count cannot wrap the sum.
    const uint64_t limit = 8 * static_cast<uint64_t>(in->Remaining());
    if (total_ids > limit || *count > limit - total_ids) {
      return Status::Invalid("GridIndex: tick counts exceed the payload");
    }
    total_ids += *count;
    grid.ticks_.push_back({*tick, static_cast<size_t>(total_ids - *count)});
    owed.push_back(*count);
  }
  if (!grid.finalized_) {
    if (total_ids > in->Remaining() / 4) {
      return Status::Invalid("GridIndex: tick counts exceed the raw payload");
    }
    grid.raw_.resize(total_ids);
  }

  // A finalized grid's cells are staged in file order and then placed by
  // tick; within a tick they stay in file order, which is key order.
  struct StagedCell {
    size_t tick;
    PackedCell cell;
  };
  std::vector<StagedCell> staged;
  auto cell_count = in->ReadCount(24);  // key + two list counts
  if (!cell_count.ok()) return cell_count.status();
  const uint64_t num_cells =
      static_cast<uint64_t>(grid.cells_x_) * static_cast<uint64_t>(grid.cells_y_);
  uint64_t previous_key = 0;
  for (uint64_t c = 0; c < *cell_count; ++c) {
    auto stored_key = in->ReadU64();
    if (!stored_key.ok()) return stored_key.status();
    if ((c > 0 && *stored_key <= previous_key) || *stored_key >= num_cells) {
      return Status::Invalid("GridIndex: cell keys not ascending or in range");
    }
    previous_key = *stored_key;
    const auto key = static_cast<int64_t>(*stored_key);

    // Each list names a counted tick, ticks ascending within the cell (so
    // no (cell, tick) repeats), and holds at most what that tick is owed.
    size_t previous_tick = 0;
    auto tick_of = [&](size_t list, Tick tick) -> Result<size_t> {
      const size_t i = grid.FindTick(tick);
      if (i == grid.ticks_.size()) {
        return Status::Invalid("GridIndex: list at an uncounted tick");
      }
      if (list > 0 && i <= previous_tick) {
        return Status::Invalid("GridIndex: cell ticks repeated or unsorted");
      }
      previous_tick = i;
      return i;
    };
    auto take = [&](size_t i, uint64_t ids) -> Status {
      if (ids == 0) return Status::Invalid("GridIndex: empty list");
      if (ids > owed[i]) {
        return Status::Invalid("GridIndex: lists exceed their tick's count");
      }
      owed[i] -= ids;
      return Status::OK();
    };

    auto raw_lists = in->ReadCount(12);  // i32 tick + u64 id count
    if (!raw_lists.ok()) return raw_lists.status();
    if (*raw_lists > 0 && grid.finalized_) {
      return Status::Invalid("GridIndex: raw list in a finalized grid");
    }
    for (uint64_t r = 0; r < *raw_lists; ++r) {
      auto tick = in->ReadI32();
      if (!tick.ok()) return tick.status();
      auto i = tick_of(r, *tick);
      if (!i.ok()) return i.status();
      auto id_count = in->ReadCount(4);  // i32 per id
      if (!id_count.ok()) return id_count.status();
      // The tick's slots fill front to back, one list per cell in key
      // order, so the postings land sorted by (key, id).
      size_t pos = grid.TickEnd(*i) - owed[*i];
      PPQ_RETURN_NOT_OK(take(*i, *id_count));
      for (uint64_t j = 0; j < *id_count; ++j, ++pos) {
        auto id = in->ReadI32();
        if (!id.ok()) return id.status();
        if (j > 0 && *id < grid.raw_[pos - 1].id) {
          return Status::Invalid("GridIndex: raw ids not ascending");
        }
        grid.raw_[pos] = {key, *id};
      }
    }

    auto packed_lists = in->ReadCount(12);  // i32 tick + 8-byte header
    if (!packed_lists.ok()) return packed_lists.status();
    if (*packed_lists > 0 && !grid.finalized_) {
      return Status::Invalid("GridIndex: packed list in a raw grid");
    }
    for (uint64_t p = 0; p < *packed_lists; ++p) {
      auto tick = in->ReadI32();
      if (!tick.ok()) return tick.status();
      auto i = tick_of(p, *tick);
      if (!i.ok()) return i.status();
      PackedCell cell{key, 0, 0, grid.arena_.size()};
      PPQ_RETURN_NOT_OK(
          ReadCompressedIds(in, &cell.count, &cell.bit_count, &grid.arena_));
      PPQ_RETURN_NOT_OK(take(*i, cell.count));
      staged.push_back({*i, cell});
    }
  }
  for (const uint64_t left : owed) {
    if (left != 0) {
      return Status::Invalid("GridIndex: tick count exceeds its lists");
    }
  }

  if (grid.finalized_) {
    // Counting sort by tick.
    std::vector<size_t> next(grid.ticks_.size(), 0);
    for (const StagedCell& s : staged) ++next[s.tick];
    size_t begin = 0;
    for (size_t i = 0; i < grid.ticks_.size(); ++i) {
      grid.ticks_[i].begin = begin;
      begin += next[i];
      next[i] = grid.ticks_[i].begin;
    }
    grid.packed_.resize(staged.size());
    for (const StagedCell& s : staged) grid.packed_[next[s.tick]++] = s.cell;
    grid.arena_.shrink_to_fit();
  }
  return grid;
}

size_t GridIndex::SizeBytes() const {
  size_t total = sizeof(Rect) + sizeof(double) + 2 * sizeof(int);
  total += table_.SizeBytes();
  std::vector<int64_t> keys;  // one per (cell, tick) list
  for (size_t i = 0; i < ticks_.size(); ++i) {
    const size_t end = TickEnd(i);
    for (size_t pos = ticks_[i].begin; pos < end; pos = NextCell(pos, end)) {
      keys.push_back(KeyAt(pos));
    }
  }
  total += keys.size() * sizeof(Tick);
  total += finalized_ ? packed_.size() * 2 * sizeof(uint32_t) + arena_.size()
                      : raw_.size() * sizeof(TrajId);
  std::sort(keys.begin(), keys.end());
  const auto cells = std::unique(keys.begin(), keys.end()) - keys.begin();
  total += static_cast<size_t>(cells) * sizeof(int64_t);  // cell keys
  return total;
}

}  // namespace ppq::index
