#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

/// \file metrics.h
/// Process-wide metrics registry: named counters, gauges, and log2-bucketed
/// latency histograms, designed for the serve/ingest hot paths.
///
/// Hot-path contract: once a caller holds a `Counter*` / `Histogram*`
/// (registration is a one-time, mutex-guarded lookup), every increment and
/// observation is a relaxed atomic add on a per-thread stripe — no locks, no
/// shared cache line between concurrently recording threads. Snapshots read
/// the stripes with relaxed loads and never block writers, so an exporter
/// racing a recording thread sees a slightly stale but internally monotone
/// view (TSan-clean; tests/obs_test.cc races them deliberately).
///
/// Histograms use fixed log2 buckets: bucket 0 holds the value 0, bucket i
/// (i >= 1) holds values v with bit_width(v) == i, i.e. [2^(i-1), 2^i).
/// Because the bucket boundaries are fixed, any two snapshots merge by
/// adding bucket counts, and p50/p95/p99/max are derivable from any merge
/// (per-shard series sum into one distribution).
///
/// Exporters: RenderPrometheus() emits Prometheus text exposition format;
/// RenderJson() emits the same snapshot as one JSON object.
///
/// Metric naming scheme (see README "Observability"):
///   ppq_<layer>_<stage>_micros   latency histograms (serve / ingest / wal /
///                                recovery), optionally labelled {shard="N"}
///   ppq_<what>_total             monotone counters
namespace ppq::obs {

/// Number of cache-line-padded stripes per metric. Threads hash onto
/// stripes by a process-wide thread slot, so up to kStripes concurrently
/// recording threads never share a cache line.
inline constexpr size_t kStripes = 16;

/// Log2 histogram buckets. Bucket 39 holds everything >= 2^38 (~76 hours
/// in microseconds) — effectively an overflow bucket.
inline constexpr size_t kHistogramBuckets = 40;

/// Process-wide small-integer slot for the calling thread; used to pick an
/// uncontended stripe. Slots are assigned on first use and recycled never —
/// two threads share a stripe only when more than kStripes threads record.
size_t ThreadStripeSlot();

/// \brief Monotone counter, striped for uncontended concurrent increments.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    stripes_[ThreadStripeSlot() % kStripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over stripes. Racing increments may or may not be included.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// \brief Last-write-wins gauge (a single atomic — Set has no meaningful
/// striped form). Add/Sub are relaxed atomic adds.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one histogram (or a merge of several).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Add another snapshot's buckets into this one. Valid because every
  /// histogram shares the same fixed bucket boundaries.
  void Merge(const HistogramSnapshot& other);

  /// Upper bound (inclusive) of the bucket containing the q-quantile,
  /// i.e. the smallest fixed boundary >= the true quantile. q in [0, 1].
  /// Returns 0 for an empty snapshot.
  uint64_t Quantile(double q) const;

  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};

/// \brief Log2-bucketed latency histogram with striped atomic buckets.
class Histogram {
 public:
  /// Bucket index for a value: 0 for 0, else bit_width(v) clamped to the
  /// last (overflow) bucket.
  static size_t BucketOf(uint64_t value) {
    if (value == 0) return 0;
    size_t width = 0;
    while (value != 0) {
      value >>= 1;
      ++width;
    }
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }

  /// Inclusive upper bound of bucket i: 0, 1, 3, 7, ... (2^i - 1).
  static uint64_t BucketUpperBound(size_t bucket) {
    if (bucket >= kHistogramBuckets - 1) return UINT64_MAX;
    return (uint64_t{1} << bucket) - 1;
  }

  void Observe(uint64_t value) {
    Stripe& s = stripes_[ThreadStripeSlot() % kStripes];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    s.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (seen < value &&
           !s.max.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }

  /// Lock-free (for writers) stripe sum; racing Observe calls may or may
  /// not be included, but count/sum/buckets never go backwards.
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// One exported metric in a registry snapshot, in registration order.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::string labels;  ///< e.g. `shard="3"`, or empty
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::string labels;
    int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::string labels;
    HistogramSnapshot snapshot;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
};

/// \brief Named metric registry. Registration (GetCounter/GetGauge/
/// GetHistogram) is mutex-guarded and returns a pointer that stays valid
/// for the registry's lifetime — resolve once, record forever, lock-free.
///
/// `labels` is a raw Prometheus label body (`shard="3"`); (name, labels)
/// pairs are distinct time series of the same metric family.
class Registry {
 public:
  /// The process-wide registry every built-in instrumentation site uses.
  static Registry& Default();

  Counter* GetCounter(const std::string& name, const std::string& labels = "")
      PPQ_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& labels = "")
      PPQ_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "") PPQ_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const PPQ_EXCLUDES(mu_);

  /// Prometheus text exposition format (one # TYPE line per family,
  /// cumulative `le` buckets + _sum/_count for histograms).
  std::string RenderPrometheus() const PPQ_EXCLUDES(mu_);

  /// JSON object: {"counters":[...],"gauges":[...],"histograms":[...]}
  /// with p50/p95/p99/max per histogram.
  std::string RenderJson() const PPQ_EXCLUDES(mu_);

 private:
  template <typename T>
  struct Family {
    std::string name;
    std::string labels;
    std::unique_ptr<T> metric;
  };

  mutable Mutex mu_;
  std::vector<Family<Counter>> counters_ PPQ_GUARDED_BY(mu_);
  std::vector<Family<Gauge>> gauges_ PPQ_GUARDED_BY(mu_);
  std::vector<Family<Histogram>> histograms_ PPQ_GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> counter_index_ PPQ_GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> gauge_index_ PPQ_GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> histogram_index_ PPQ_GUARDED_BY(mu_);
};

/// Label body for a per-shard time series: `shard="3"`.
std::string ShardLabel(size_t shard);

}  // namespace ppq::obs
