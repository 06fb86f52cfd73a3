#pragma once

#include <cstdint>
#include <string>

/// \file trace.h
/// Zone tracing: `PPQ_ZONE(name)` / `PPQ_ZONE_SHARD(name, shard)` RAII
/// macros that record a named interval into a per-thread ring buffer,
/// drained on demand into chrome://tracing-compatible JSON
/// (`obs::trace::WriteChromeTrace`). Open the file at chrome://tracing or
/// https://ui.perfetto.dev to see per-thread flame charts of the serve and
/// ingest paths.
///
/// Zero-overhead-by-default guarantee: unless the build defines PPQ_TRACE
/// (CMake `-DPPQ_TRACE=ON`), both macros expand to NOTHING — zero tokens,
/// zero symbols, zero branches in the hot path. tests/obs_test.cc proves
/// the expansion is empty by stringifying it. The drain API below is always
/// compiled (so its callers link in either mode); in an untraced build it
/// writes an empty-but-valid trace.
///
/// Names passed to PPQ_ZONE must be string literals (or otherwise outlive
/// the drain) — the ring stores the pointer, not a copy.
namespace ppq::obs::trace {

/// One completed zone. Times are nanoseconds on the steady clock, relative
/// to the process-wide trace epoch.
struct ZoneEvent {
  const char* name = nullptr;
  int32_t shard = -1;  ///< -1: no shard label
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Nanoseconds since the process-wide trace epoch (first use).
uint64_t NowNanos();

/// Record a completed zone into the calling thread's ring buffer. The ring
/// keeps the most recent events (fixed capacity, oldest overwritten).
void Record(const char* name, int32_t shard, uint64_t start_ns,
            uint64_t end_ns);

/// Drain every thread's ring into a chrome://tracing JSON file
/// ({"traceEvents":[{"name","ph":"X","ts","dur","pid","tid","args"}]}).
/// Events recorded while the drain runs may be missed. Returns false if
/// the file could not be written.
bool WriteChromeTrace(const std::string& path);

/// Drop all recorded events (all threads). Mainly for tests.
void Reset();

/// Total events currently buffered across all threads (capped by the
/// per-thread ring capacity).
size_t BufferedEventCount();

/// \brief RAII interval: records [construction, destruction) under `name`.
/// Use through the PPQ_ZONE macros, which compile this out by default.
class Zone {
 public:
  explicit Zone(const char* name, int32_t shard = -1)
      : name_(name), shard_(shard), start_ns_(NowNanos()) {}
  ~Zone() { Record(name_, shard_, start_ns_, NowNanos()); }

  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;

 private:
  const char* name_;
  int32_t shard_;
  uint64_t start_ns_;
};

}  // namespace ppq::obs::trace

// Two-level paste so __COUNTER__/__LINE__ expand before concatenation.
#define PPQ_ZONE_CAT2(a, b) a##b
#define PPQ_ZONE_CAT(a, b) PPQ_ZONE_CAT2(a, b)

#if defined(PPQ_TRACE)
#define PPQ_ZONE(name) \
  ::ppq::obs::trace::Zone PPQ_ZONE_CAT(ppq_zone_, __COUNTER__)(name)
#define PPQ_ZONE_SHARD(name, shard)                          \
  ::ppq::obs::trace::Zone PPQ_ZONE_CAT(ppq_zone_, __COUNTER__)( \
      name, static_cast<int32_t>(shard))
#else
// Expand to nothing — not `(void)0`, nothing. tests/obs_test.cc
// static_asserts that the stringified expansion is the empty string.
#define PPQ_ZONE(name)
#define PPQ_ZONE_SHARD(name, shard)
#endif
