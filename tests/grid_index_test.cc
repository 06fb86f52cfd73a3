#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/grid_index.h"

namespace ppq::index {
namespace {

GridIndex MakeUnitGrid(double cell = 0.1) {
  return GridIndex(Rect{0.0, 0.0, 1.0, 1.0}, cell);
}

std::vector<TrajId> Sorted(std::vector<TrajId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// An independent model of a grid's (cell, tick) lists, built from the
/// same inserts, that answers QueryCircle with the bounding-box walk the
/// grid used before its tick-major layout: probe every cell of the
/// disc's clamped bounding box and keep those whose closest point lies
/// within the radius.
class BoundingBoxWalk {
 public:
  explicit BoundingBoxWalk(const GridIndex& grid)
      : region_(grid.region()),
        cell_(grid.cell_size()),
        cells_x_(grid.cells_x()),
        cells_y_(grid.cells_y()) {}

  void Insert(Tick t, TrajId id, const Point& p) {
    const int cx = Clamp((p.x - region_.min_x) / cell_, cells_x_ - 1);
    const int cy = Clamp((p.y - region_.min_y) / cell_, cells_y_ - 1);
    lists_[{static_cast<int64_t>(cy) * cells_x_ + cx, t}].push_back(id);
  }

  std::vector<TrajId> Circle(const Point& center, double radius,
                             Tick t) const {
    std::vector<TrajId> out;
    const int cx_lo =
        Clamp((center.x - radius - region_.min_x) / cell_, cells_x_ - 1);
    const int cx_hi =
        Clamp((center.x + radius - region_.min_x) / cell_, cells_x_ - 1);
    const int cy_lo =
        Clamp((center.y - radius - region_.min_y) / cell_, cells_y_ - 1);
    const int cy_hi =
        Clamp((center.y + radius - region_.min_y) / cell_, cells_y_ - 1);
    for (int cy = cy_lo; cy <= cy_hi; ++cy) {
      for (int cx = cx_lo; cx <= cx_hi; ++cx) {
        const double cell_min_x = region_.min_x + cx * cell_;
        const double cell_min_y = region_.min_y + cy * cell_;
        const double nearest_x =
            std::clamp(center.x, cell_min_x, cell_min_x + cell_);
        const double nearest_y =
            std::clamp(center.y, cell_min_y, cell_min_y + cell_);
        const double dx = center.x - nearest_x;
        const double dy = center.y - nearest_y;
        if (dx * dx + dy * dy > radius * radius) continue;
        const auto it =
            lists_.find({static_cast<int64_t>(cy) * cells_x_ + cx, t});
        if (it == lists_.end()) continue;
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
    return out;
  }

 private:
  static int Clamp(double cell, int max_index) {
    if (!(cell > 0.0)) return 0;
    if (cell >= static_cast<double>(max_index)) return max_index;
    return static_cast<int>(cell);
  }

  Rect region_;
  double cell_;
  int cells_x_;
  int cells_y_;
  std::map<std::pair<int64_t, Tick>, std::vector<TrajId>> lists_;
};

/// Fill \p grid and \p model alike: several ticks in shuffled order,
/// repeated (tick, id) pairs, and points on the region's edges, which
/// clamp into the last row or column when the cell size divides it.
void FillAlike(GridIndex* grid, BoundingBoxWalk* model, uint64_t seed) {
  Rng rng(seed);
  const Point edges[] = {{0.0, 0.0}, {1.0, 1.0}, {1.0, 0.0}, {0.0, 1.0},
                         {1.0, 0.37}, {0.62, 1.0}};
  for (int i = 0; i < 600; ++i) {
    const Tick t = static_cast<Tick>(rng.UniformInt(0, 6));
    const TrajId id = static_cast<TrajId>(rng.UniformInt(0, 150));
    const Point p = i % 25 == 0
                        ? edges[static_cast<size_t>(i / 25) % 6]
                        : Point{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    grid->Insert(t, id, p);
    model->Insert(t, id, p);
    if (i % 7 == 0) {  // the same id again, in the same or another cell
      const Point q = i % 2 == 0 ? p : Point{rng.Uniform(0.0, 1.0), p.y};
      grid->Insert(t, id, q);
      model->Insert(t, id, q);
    }
  }
}

/// Random discs near the grid, far away, tiny and huge; every tick
/// indexed or not.
void ExpectCirclesMatch(const GridIndex& grid, const BoundingBoxWalk& model,
                        uint64_t seed, const char* label) {
  Rng rng(seed);
  std::vector<std::pair<Point, double>> discs;
  for (int i = 0; i < 300; ++i) {
    discs.push_back({{rng.Uniform(-0.5, 1.5), rng.Uniform(-0.5, 1.5)},
                     std::pow(10.0, rng.Uniform(-4.0, 0.5))});
  }
  discs.push_back({{1e6, -1e6}, 1.0});
  discs.push_back({{1e6, -1e6}, 2e6});
  discs.push_back({{-1e300, 1e300}, 1e280});
  discs.push_back({{0.5, 0.5}, 1e6});
  discs.push_back({{0.5, 0.5}, 1e300});  // radius squared overflows
  discs.push_back({{1.0, 1.0}, 0.0});
  for (const auto& [center, radius] : discs) {
    for (Tick t = -1; t <= 7; ++t) {
      std::vector<TrajId> got;
      grid.QueryCircle(center, radius, t, &got);
      ASSERT_EQ(Sorted(got), Sorted(model.Circle(center, radius, t)))
          << label << ": centre (" << center.x << ", " << center.y
          << ") radius " << radius << " tick " << t;
    }
  }
}

/// The cell-major bytes of \p grid.
std::vector<uint8_t> Saved(const GridIndex& grid) {
  ByteWriter out;
  grid.SaveTo(&out);
  return out.buffer();
}

TEST(GridIndexTest, CellCounts) {
  const GridIndex g = MakeUnitGrid(0.1);
  EXPECT_EQ(g.cells_x(), 10);
  EXPECT_EQ(g.cells_y(), 10);
  // A cell size wider than the region collapses to a single cell.
  const GridIndex one(Rect{0.0, 0.0, 0.5, 0.5}, 2.0);
  EXPECT_EQ(one.cells_x(), 1);
  EXPECT_EQ(one.cells_y(), 1);
}

TEST(GridIndexTest, InsertAndQuerySameCell) {
  GridIndex g = MakeUnitGrid();
  g.Insert(5, 1, {0.15, 0.15});
  g.Insert(5, 2, {0.16, 0.14});
  g.Insert(5, 3, {0.85, 0.85});
  const auto ids = g.Query({0.12, 0.18}, 5);
  EXPECT_EQ(ids, (std::vector<TrajId>{1, 2}));
  EXPECT_TRUE(g.Query({0.12, 0.18}, 6).empty());  // different tick
  EXPECT_TRUE(g.Query({0.5, 0.5}, 5).empty());    // empty cell
}

TEST(GridIndexTest, CountAtTracksInserts) {
  GridIndex g = MakeUnitGrid();
  g.Insert(1, 1, {0.1, 0.1});
  g.Insert(1, 2, {0.9, 0.9});
  g.Insert(2, 3, {0.5, 0.5});
  EXPECT_EQ(g.CountAt(1), 2u);
  EXPECT_EQ(g.CountAt(2), 1u);
  EXPECT_EQ(g.CountAt(3), 0u);
}

TEST(GridIndexTest, BoundaryPointsClampIntoGrid) {
  GridIndex g = MakeUnitGrid();
  g.Insert(0, 7, {1.0, 1.0});  // exactly on the max corner
  EXPECT_EQ(g.Query({0.999, 0.999}, 0), (std::vector<TrajId>{7}));
}

TEST(GridIndexTest, UnsortedInsertsKeptSorted) {
  GridIndex g = MakeUnitGrid();
  g.Insert(0, 9, {0.05, 0.05});
  g.Insert(0, 3, {0.05, 0.05});
  g.Insert(0, 5, {0.05, 0.05});
  EXPECT_EQ(g.Query({0.05, 0.05}, 0), (std::vector<TrajId>{3, 5, 9}));
}

TEST(GridIndexTest, FinalizePreservesQueries) {
  GridIndex g = MakeUnitGrid();
  Rng rng(3);
  std::vector<std::tuple<Tick, TrajId, Point>> inserted;
  for (int i = 0; i < 500; ++i) {
    const Tick t = static_cast<Tick>(rng.UniformInt(0, 5));
    const Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    g.Insert(t, static_cast<TrajId>(i), p);
    inserted.push_back({t, static_cast<TrajId>(i), p});
  }
  // Snapshot queries before finalizing.
  std::vector<std::vector<TrajId>> before;
  for (const auto& [t, id, p] : inserted) before.push_back(g.Query(p, t));
  g.Finalize();
  EXPECT_TRUE(g.finalized());
  for (size_t i = 0; i < inserted.size(); ++i) {
    const auto& [t, id, p] = inserted[i];
    EXPECT_EQ(g.Query(p, t), before[i]);
  }
}

TEST(GridIndexTest, FinalizeShrinksDenseIndex) {
  GridIndex g = MakeUnitGrid(1.0);  // single cell: maximal list sharing
  for (int t = 0; t < 10; ++t) {
    for (TrajId id = 0; id < 200; ++id) {
      g.Insert(t, id, {0.5, 0.5});
    }
  }
  const size_t before = g.SizeBytes();
  g.Finalize();
  EXPECT_LT(g.SizeBytes(), before);
}

TEST(GridIndexTest, QueryCircleMatchesBruteForce) {
  GridIndex g = MakeUnitGrid(0.07);
  Rng rng(9);
  std::vector<std::pair<TrajId, Point>> points;
  for (int i = 0; i < 300; ++i) {
    const Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    g.Insert(0, static_cast<TrajId>(i), p);
    points.push_back({static_cast<TrajId>(i), p});
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Point center{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    const double radius = rng.Uniform(0.01, 0.3);
    std::vector<TrajId> got;
    g.QueryCircle(center, radius, 0, &got);
    std::sort(got.begin(), got.end());
    // Everything within the radius must be returned (cells are a
    // superset of the disc).
    for (const auto& [id, p] : points) {
      if (p.DistanceTo(center) <= radius) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "missing id " << id;
      }
    }
    // And nothing farther than the disc's cell cover can reach.
    const double slack = radius + 0.07 * std::sqrt(2.0);
    for (TrajId id : got) {
      EXPECT_LE(points[static_cast<size_t>(id)].second.DistanceTo(center),
                slack);
    }
  }
}

TEST(GridIndexTest, QueryCircleEqualsBoundingBoxWalk) {
  // Exact equality (as a multiset) with the old scan, on raw and
  // finalized grids, for a cell size that divides the region (edge
  // points clamp) and one that does not.
  for (const double cell : {0.125, 0.07}) {
    GridIndex grid = MakeUnitGrid(cell);
    BoundingBoxWalk model(grid);
    FillAlike(&grid, &model, 41);
    ExpectCirclesMatch(grid, model, 5, "raw");
    grid.Finalize();
    ExpectCirclesMatch(grid, model, 6, "finalized");
  }
}

TEST(GridIndexTest, SaveLoadSaveIsByteIdentical) {
  for (const bool finalize : {false, true}) {
    GridIndex grid = MakeUnitGrid(0.07);
    BoundingBoxWalk model(grid);
    FillAlike(&grid, &model, 8);
    if (finalize) grid.Finalize();
    const std::vector<uint8_t> bytes = Saved(grid);
    ByteReader in(bytes);
    auto loaded = GridIndex::LoadFrom(&in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(in.AtEnd());
    EXPECT_EQ(loaded->finalized(), finalize);
    EXPECT_TRUE(Saved(*loaded) == bytes) << "finalized=" << finalize;
    EXPECT_EQ(loaded->SizeBytes(), grid.SizeBytes());
    for (Tick t = 0; t <= 6; ++t) EXPECT_EQ(loaded->CountAt(t), grid.CountAt(t));
    ExpectCirclesMatch(*loaded, model, 12, "loaded");
  }
}

TEST(GridIndexTest, InsertBelongsBeforeFinalize) {
  GridIndex g = MakeUnitGrid();
  g.Insert(0, 1, {0.5, 0.5});
  g.Finalize();
  // Debug builds assert; release builds drop the id.
  EXPECT_DEBUG_DEATH(g.Insert(0, 2, {0.5, 0.5}), "Insert after Finalize");
  EXPECT_EQ(g.CountAt(0), 1u);
  EXPECT_EQ(g.Query({0.5, 0.5}, 0), (std::vector<TrajId>{1}));
}

TEST(GridIndexTest, SizeBytesGrowsWithContent) {
  GridIndex g = MakeUnitGrid();
  const size_t empty = g.SizeBytes();
  g.Insert(0, 1, {0.5, 0.5});
  EXPECT_GT(g.SizeBytes(), empty);
}

TEST(GridIndexTest, ForgedCellProductIsRejectedAtLoad) {
  // Regression: each axis below passes the per-axis 2^30 bound, but the
  // grid would hold ~10^18 cells — enough for QueryCircle's scan to hang
  // a serving thread. The load-time validator bounds the product too.
  ByteWriter out;
  out.WriteF64(0.0);
  out.WriteF64(0.0);
  out.WriteF64(1e6);   // 1e9 cells wide at gc = 1e-3
  out.WriteF64(1e6);   // 1e9 cells high
  out.WriteF64(1e-3);
  out.WriteU8(0);      // not finalized
  out.WriteU32(0);     // empty huffman table
  out.WriteU64(0);     // no per-tick counts
  out.WriteU64(0);     // no cells
  ByteReader in(out.buffer());
  const auto grid = GridIndex::LoadFrom(&in);
  ASSERT_FALSE(grid.ok());
  EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument);
}

/// A (tick, ids) list of a forged cell.
using ForgedList = std::pair<Tick, std::vector<TrajId>>;

/// Bytes of a forged unit grid (gc = 0.1, so 100 cells) in the format
/// SaveTo writes, with an empty Huffman table: per-tick counts, then
/// cells of raw lists and of packed lists (ids written as one byte each,
/// never decoded).
std::vector<uint8_t> ForgedGrid(
    bool finalized, const std::vector<std::pair<Tick, uint64_t>>& counts,
    const std::vector<std::tuple<uint64_t, std::vector<ForgedList>,
                                 std::vector<ForgedList>>>& cells) {
  ByteWriter out;
  out.WriteF64(0.0);
  out.WriteF64(0.0);
  out.WriteF64(1.0);
  out.WriteF64(1.0);
  out.WriteF64(0.1);
  out.WriteU8(finalized ? 1 : 0);
  out.WriteU32(0);  // empty huffman table
  out.WriteU64(counts.size());
  for (const auto& [tick, count] : counts) {
    out.WriteI32(tick);
    out.WriteU64(count);
  }
  out.WriteU64(cells.size());
  for (const auto& [key, raw, packed] : cells) {
    out.WriteU64(key);
    out.WriteU64(raw.size());
    for (const auto& [tick, ids] : raw) {
      out.WriteI32(tick);
      out.WriteU64(ids.size());
      for (const TrajId id : ids) out.WriteI32(id);
    }
    out.WriteU64(packed.size());
    for (const auto& [tick, ids] : packed) {
      out.WriteI32(tick);
      out.WriteU32(static_cast<uint32_t>(ids.size()));
      out.WriteU32(static_cast<uint32_t>(8 * ids.size()));
      for (const TrajId id : ids) out.WriteU8(static_cast<uint8_t>(id));
    }
  }
  return out.buffer();
}

Status LoadStatus(const std::vector<uint8_t>& bytes) {
  ByteReader in(bytes);
  return GridIndex::LoadFrom(&in).status();
}

/// Forged bytes that break one rule of SaveTo's output, beside a control
/// that differs only in keeping it. \p reason is part of the message of
/// the check that must reject the forgery.
struct Forgery {
  const char* name;
  const char* reason;
  std::vector<uint8_t> control;
  std::vector<uint8_t> forged;
};

TEST(GridIndexTest, ForgedGridsAreRejectedAtLoad) {
  const std::vector<ForgedList> one{{0, {1}}};
  std::vector<TrajId> sixty(60);
  for (size_t i = 0; i < sixty.size(); ++i) sixty[i] = static_cast<TrajId>(i);
  // 100 + (2^64 - 51) wraps to 49 in uint64: the sum would size a raw
  // array of 49 while tick 1 began at 100.
  const uint64_t wraps = ~uint64_t{0} - 50;
  const std::vector<Forgery> forgeries = {
      {"cell keys descending", "cell keys not ascending",
       ForgedGrid(false, {{0, 2}}, {{3, one, {}}, {5, one, {}}}),
       ForgedGrid(false, {{0, 2}}, {{5, one, {}}, {3, one, {}}})},
      {"cell key repeated", "cell keys not ascending",
       ForgedGrid(false, {{0, 1}, {1, 1}},
                  {{3, {{0, {1}}}, {}}, {5, {{1, {1}}}, {}}}),
       ForgedGrid(false, {{0, 1}, {1, 1}},
                  {{3, {{0, {1}}}, {}}, {3, {{1, {1}}}, {}}})},
      {"cell key beyond the grid", "in range",
       ForgedGrid(false, {{0, 1}}, {{99, one, {}}}),
       ForgedGrid(false, {{0, 1}}, {{100, one, {}}})},
      {"raw list in a finalized grid", "raw list in a finalized grid",
       ForgedGrid(false, {{0, 1}}, {{7, {{0, {4}}}, {}}}),
       ForgedGrid(true, {{0, 1}}, {{7, {{0, {4}}}, {}}})},
      {"packed list in a raw grid", "packed list in a raw grid",
       ForgedGrid(true, {{0, 1}}, {{7, {}, {{0, {4}}}}}),
       ForgedGrid(false, {{0, 1}}, {{7, {}, {{0, {4}}}}})},
      {"(cell, tick) repeated", "cell ticks repeated",
       ForgedGrid(false, {{0, 1}, {1, 1}}, {{7, {{0, {4}}, {1, {5}}}, {}}}),
       ForgedGrid(false, {{0, 2}}, {{7, {{0, {4}}, {0, {5}}}, {}}})},
      {"cell ticks descending", "cell ticks repeated or unsorted",
       ForgedGrid(true, {{0, 1}, {1, 1}}, {{7, {}, {{0, {4}}, {1, {5}}}}}),
       ForgedGrid(true, {{0, 1}, {1, 1}}, {{7, {}, {{1, {5}}, {0, {4}}}}})},
      {"tick count of zero", "tick counts not ascending or empty",
       ForgedGrid(false, {{1, 1}}, {{7, {{1, {4}}}, {}}}),
       ForgedGrid(false, {{0, 0}, {1, 1}}, {{7, {{1, {4}}}, {}}})},
      {"tick counts descending", "tick counts not ascending",
       ForgedGrid(false, {{0, 1}, {1, 1}}, {{3, one, {}}, {5, {{1, {2}}}, {}}}),
       ForgedGrid(false, {{1, 1}, {0, 1}}, {{3, one, {}}, {5, {{1, {2}}}, {}}})},
      {"tick count repeated", "tick counts not ascending",
       ForgedGrid(false, {{0, 2}}, {{3, one, {}}, {5, one, {}}}),
       ForgedGrid(false, {{0, 1}, {0, 1}}, {{3, one, {}}, {5, one, {}}})},
      {"list at an uncounted tick", "uncounted tick",
       ForgedGrid(false, {{0, 1}, {2, 1}}, {{3, one, {}}, {5, {{2, {2}}}, {}}}),
       ForgedGrid(false, {{0, 1}, {2, 1}}, {{3, one, {}}, {5, {{1, {2}}}, {}}})},
      {"empty raw list", "empty list",
       ForgedGrid(false, {{0, 1}}, {{8, {{0, {4}}}, {}}}),
       ForgedGrid(false, {{0, 1}}, {{7, {{0, {}}}, {}}, {8, {{0, {4}}}, {}}})},
      {"empty packed list", "empty list",
       ForgedGrid(true, {{0, 1}}, {{8, {}, {{0, {4}}}}}),
       ForgedGrid(true, {{0, 1}}, {{7, {}, {{0, {}}}}, {8, {}, {{0, {4}}}}})},
      {"raw ids descending", "raw ids not ascending",
       ForgedGrid(false, {{0, 3}}, {{7, {{0, {4, 4, 5}}}, {}}}),
       ForgedGrid(false, {{0, 3}}, {{7, {{0, {4, 5, 4}}}, {}}})},
      {"raw lists beyond their tick's count", "exceed their tick's count",
       ForgedGrid(false, {{0, 2}}, {{3, one, {}}, {5, one, {}}}),
       ForgedGrid(false, {{0, 1}}, {{3, one, {}}, {5, one, {}}})},
      {"packed list beyond its tick's count", "exceed their tick's count",
       ForgedGrid(true, {{0, 2}}, {{7, {}, {{0, {4, 5}}}}}),
       ForgedGrid(true, {{0, 1}}, {{7, {}, {{0, {4, 5}}}}})},
      {"tick owed ids no list supplies", "tick count exceeds its lists",
       ForgedGrid(false, {{0, 1}}, {{7, {{0, {4}}}, {}}}),
       ForgedGrid(false, {{0, 2}}, {{7, {{0, {4}}}, {}}})},
      {"counted tick with no list", "tick count exceeds its lists",
       ForgedGrid(true, {{0, 1}, {1, 1}}, {{7, {}, {{0, {4}}, {1, {5}}}}}),
       ForgedGrid(true, {{0, 1}, {1, 1}}, {{7, {}, {{0, {4}}}}})},
      {"tick counts beyond the payload", "exceed the payload",
       ForgedGrid(true, {{0, 1}}, {{7, {}, {{0, {4}}}}}),
       ForgedGrid(true, {{0, uint64_t{1} << 40}}, {{7, {}, {{0, {4}}}}})},
      // 20 ids could be packed in what follows the counts, but not raw.
      {"raw tick counts beyond the payload", "exceed the raw payload",
       ForgedGrid(false, {{0, 1}}, {{7, {{0, {4}}}, {}}}),
       ForgedGrid(false, {{0, 20}}, {{7, {{0, {4}}}, {}}})},
      {"tick counts that wrap", "exceed the payload",
       ForgedGrid(false, {{0, 60}, {1, 1}},
                  {{3, {{0, sixty}}, {}}, {5, {{1, {7}}}, {}}}),
       ForgedGrid(false, {{0, 100}, {1, wraps}},
                  {{3, {{0, sixty}}, {}}, {5, {{1, {7}}}, {}}})},
  };
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.name);
    EXPECT_TRUE(LoadStatus(forgery.control).ok())
        << LoadStatus(forgery.control).ToString();
    const Status status = LoadStatus(forgery.forged);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(forgery.reason), std::string::npos)
        << status.ToString();
  }
}

TEST(GridIndexTest, ExtremeCoordinatesDoNotOverflowCellMath) {
  // Regression: a grid whose region sits at astronomical coordinates (as
  // a forged-but-checksummed snapshot can produce), queried at normal
  // coordinates — or vice versa — used to push the float-to-int cell
  // cast out of int range, which is UB (UBSan trap). The cell coordinate
  // is now clamped in the double domain before any cast.
  GridIndex far(Rect{-1e300, -1e300, -1e300 + 1.0, -1e300 + 1.0}, 1e-3);
  EXPECT_TRUE(far.Query({0.0, 0.0}, 0).empty());
  std::vector<TrajId> out;
  far.QueryCircle({0.0, 0.0}, 1.0, 0, &out);
  EXPECT_TRUE(out.empty());

  // The far-away probe clamps into the edge cell; surviving the calls
  // (especially under UBSan) is the point, whatever they return.
  GridIndex unit = MakeUnitGrid();
  unit.Insert(0, 7, {0.5, 0.5});
  (void)unit.Query({1e300, 1e300}, 0);
  out.clear();
  unit.QueryCircle({-1e300, 1e300}, 1e280, 0, &out);
}

}  // namespace
}  // namespace ppq::index
