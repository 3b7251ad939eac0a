//===- support/Metrics.h - Metrics registry, spans, clocks ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability primitives of the pipeline (docs/OBSERVABILITY.md):
///
///  * MetricsRegistry — named counters with exact-value accessors for
///    tests, plus a timeline of spans and counter samples that serializes
///    to Chrome `trace_event` JSON (`herd --trace-json=<f>`, loadable in
///    chrome://tracing or Perfetto).
///  * Span — an RAII timer recording a complete ("ph":"X") trace event.
///  * MetricsClock — the injectable time source; SteadyClock for real
///    runs, VirtualClock for deterministic tests and golden files.
///
/// Everything is opt-in by pointer: the pipeline threads a
/// `MetricsRegistry *` that defaults to null, and every recording call
/// no-ops on null (`Span` degrades to a zero-cost guard, counter updates
/// sit behind one predictable branch).  Per-event hot paths keep
/// using the exact counters of detect/DetectorStats.h — the registry is
/// for phase- and batch-granularity signals, so disabled observability
/// costs nothing measurable (the `bench_hotpath` ≤2% gate).
///
/// Metric objects are thread-safe (relaxed atomics) and the registry's
/// name tables and timeline are mutex-protected: shard workers record
/// batch spans concurrently with producer-side phase spans.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_METRICS_H
#define HERD_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace herd {

//===----------------------------------------------------------------------===
// Clocks
//===----------------------------------------------------------------------===

/// Injectable monotonic time source for all observability timing.
class MetricsClock {
public:
  virtual ~MetricsClock();
  virtual uint64_t nowNanos() = 0;
};

/// Wall-clock time from std::chrono::steady_clock.
class SteadyClock final : public MetricsClock {
public:
  uint64_t nowNanos() override;
};

/// Deterministic clock for tests: starts at zero and advances only when
/// told to — either explicitly via advance(), or by \p TickNanos on every
/// nowNanos() read (so consecutive span begin/end pairs get distinct,
/// reproducible timestamps without any test bookkeeping).
class VirtualClock final : public MetricsClock {
public:
  explicit VirtualClock(uint64_t TickNanos = 0) : Tick(TickNanos) {}

  uint64_t nowNanos() override {
    uint64_t V = Now;
    Now += Tick;
    return V;
  }
  void advance(uint64_t Nanos) { Now += Nanos; }

private:
  uint64_t Now = 0;
  uint64_t Tick = 0;
};

//===----------------------------------------------------------------------===
// Metric kinds
//===----------------------------------------------------------------------===

/// Monotonic counter.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

//===----------------------------------------------------------------------===
// Timeline events
//===----------------------------------------------------------------------===

/// One event on the trace timeline; maps 1:1 onto the Chrome trace_event
/// format's "X" (complete span), "C" (counter sample) and "M" (metadata)
/// phases.
struct TraceEvent {
  std::string Name;
  std::string Category;
  char Phase = 'X';
  uint32_t Tid = 0;        ///< trace row; 0 = the pipeline (host) thread
  uint64_t StartNanos = 0;
  uint64_t DurNanos = 0;   ///< spans only
  int64_t Value = 0;       ///< counter samples only
};

//===----------------------------------------------------------------------===
// Registry
//===----------------------------------------------------------------------===

/// The per-run registry: named metrics plus the span/counter timeline.
/// Counter references returned by counter() are stable for the registry's
/// lifetime (deque storage), so call sites can cache them and skip the
/// name lookup.
class MetricsRegistry {
public:
  /// \p Clock is borrowed and must outlive the registry; null uses a
  /// process-wide SteadyClock.
  explicit MetricsRegistry(MetricsClock *Clock = nullptr);

  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  uint64_t nowNanos() { return Clock->nowNanos(); }

  Counter &counter(std::string_view Name);

  /// Records one complete span on the timeline.
  void recordSpan(std::string_view Name, std::string_view Category,
                  uint32_t Tid, uint64_t StartNanos, uint64_t DurNanos);

  /// Records a timestamped counter sample (a "C" event: Perfetto renders
  /// these as a stepped area chart, e.g. per-shard queue depth).
  void recordCounterSample(std::string_view Name, uint32_t Tid,
                           int64_t Value);

  /// Names a trace row; emitted as thread_name metadata so chrome://tracing
  /// shows "shard 0" instead of "tid 1".
  void nameThread(uint32_t Tid, std::string_view Name);

  /// Snapshot of the timeline, in recording order.
  std::vector<TraceEvent> traceEvents() const;

  /// Name-sorted snapshot of every registered counter (deterministic
  /// serialization order, independent of registration order).
  std::vector<std::pair<std::string, uint64_t>> counterValues() const;

private:
  MetricsClock *Clock;
  mutable std::mutex M;
  std::map<std::string, Counter *, std::less<>> CounterIndex;
  std::deque<Counter> Counters;
  std::vector<TraceEvent> Timeline;
};

//===----------------------------------------------------------------------===
// Span
//===----------------------------------------------------------------------===

/// RAII span: records a complete trace event from construction to
/// destruction.  A null registry makes every operation a no-op, which is
/// how "observability off" compiles down to a pointer test.
class Span {
public:
  Span(MetricsRegistry *Reg, std::string_view Name,
       std::string_view Category = "phase", uint32_t Tid = 0)
      : Reg(Reg), Name(Name), Category(Category), Tid(Tid),
        Start(Reg ? Reg->nowNanos() : 0) {}

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  ~Span() { end(); }

  /// Ends the span early (idempotent).
  void end() {
    if (!Reg)
      return;
    uint64_t End = Reg->nowNanos();
    Reg->recordSpan(Name, Category, Tid, Start,
                    End >= Start ? End - Start : 0);
    Reg = nullptr;
  }

private:
  MetricsRegistry *Reg;
  std::string_view Name;
  std::string_view Category;
  uint32_t Tid;
  uint64_t Start;
};

/// Serializes the registry's timeline as Chrome trace_event JSON
/// ({"traceEvents":[...]}, the JSON Object Format), with counters and
/// metric totals attached.  Timestamps are microseconds with nanosecond
/// fraction, as chrome://tracing / Perfetto expect.
std::string renderChromeTraceJson(const MetricsRegistry &Reg);

} // namespace herd

#endif // HERD_SUPPORT_METRICS_H
