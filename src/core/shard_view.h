#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/types.h"
#include "core/snapshot.h"

/// \file shard_view.h
/// What one served request pins per shard, and where those views come
/// from. The serving engine (query_service.h) answers every request from
/// one ShardView per shard: the seal answers ticks <= sealed_through, the
/// raw tail holds every appended point with a newer tick. The two sides
/// are disjoint by construction (the cut moves, points do not), so the
/// engine's union of them counts each point exactly once.
///
/// A fixed seal is a view with no tail whose cut is the largest Tick; a
/// live repository shard publishes a fresh view on every append and seal.
/// Views are immutable and shared by const pointer, so a reader that
/// pinned one scans a frozen (seal, cut, tail) triple while the writer
/// moves on.

namespace ppq::core {

/// \brief One immutable link of a shard's raw tail: the points of one
/// append (one tick), chained newest-first. Chains are persistent —
/// publishing a new chunk never mutates older ones.
struct TailChunk {
  TimeSlice slice;
  std::shared_ptr<const TailChunk> prev;
};
using TailPtr = std::shared_ptr<const TailChunk>;

/// \brief One shard as a request sees it.
struct ShardView {
  /// Never null once served.
  SnapshotPtr sealed;
  /// Inclusive: every tick <= sealed_through is answered by `sealed`.
  Tick sealed_through = std::numeric_limits<Tick>::min();
  /// Newest-first chunk chain; ticks non-increasing along the chain and
  /// all > sealed_through. Null when the tail is empty.
  TailPtr tail;
  size_t tail_points = 0;
  /// Freshness stamp reported in QueryStats::seal_epoch: a live shard's
  /// seal generation, or the engine's swap count for a fixed seal.
  uint64_t seal_epoch = 0;
};
using ShardViewPtr = std::shared_ptr<const ShardView>;

/// \brief Anything that publishes one view per shard. Both calls are safe
/// from any thread; ShardView(s) never returns null for s < num_shards().
class ShardViewSource {
 public:
  virtual ~ShardViewSource() = default;
  virtual uint32_t num_shards() const = 0;
  virtual ShardViewPtr ShardView(size_t shard) const = 0;
};

}  // namespace ppq::core
