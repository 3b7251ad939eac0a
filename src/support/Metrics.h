//===- support/Metrics.h - Metrics registry, spans, clocks ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability primitives of the pipeline (docs/OBSERVABILITY.md):
///
///  * MetricsRegistry — named counters, gauges and log2-bucketed
///    histograms with exact-value accessors for tests, plus a timeline of
///    spans and counter samples that serializes to Chrome `trace_event`
///    JSON (`herd --trace-json=<f>`, loadable in chrome://tracing or
///    Perfetto).
///  * Span — an RAII timer recording a complete ("ph":"X") trace event.
///  * MetricsClock — the injectable time source; SteadyClock for real
///    runs, VirtualClock for deterministic tests and golden files.
///
/// Everything is opt-in by pointer: the pipeline threads a
/// `MetricsRegistry *` that defaults to null, and every recording call
/// no-ops on null (`Span` degrades to a zero-cost guard, gauge/counter
/// updates sit behind one predictable branch).  Per-event hot paths keep
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

/// Point-in-time value with a high-water mark.
class Gauge {
public:
  void set(int64_t NewValue) {
    V.store(NewValue, std::memory_order_relaxed);
    int64_t Prev = Max.load(std::memory_order_relaxed);
    while (NewValue > Prev &&
           !Max.compare_exchange_weak(Prev, NewValue,
                                      std::memory_order_relaxed))
      ;
  }
  void add(int64_t Delta) {
    set(V.load(std::memory_order_relaxed) + Delta);
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  int64_t maxSeen() const { return Max.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
  std::atomic<int64_t> Max{0};
};

/// Histogram over log2 buckets: bucket B counts recorded values V with
/// log2Bucket(V) == B, i.e. bucket 0 holds {0}, bucket B>0 holds
/// [2^(B-1), 2^B).  Exact count/sum/min/max ride along so tests can assert
/// precise values, not just shapes.
class Histogram {
public:
  static constexpr size_t NumBuckets = 65; ///< {0} plus one per bit of 2^64

  /// The bucket index \p V lands in.
  static size_t log2Bucket(uint64_t V) {
    size_t B = 0;
    while (V != 0) {
      ++B;
      V >>= 1;
    }
    return B;
  }

  void record(uint64_t V) {
    Buckets[log2Bucket(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    updateMin(V);
    updateMax(V);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const {
    return count() ? MinV.load(std::memory_order_relaxed) : 0;
  }
  uint64_t max() const { return MaxV.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t B) const {
    return Buckets[B].load(std::memory_order_relaxed);
  }

private:
  void updateMin(uint64_t V) {
    uint64_t Prev = MinV.load(std::memory_order_relaxed);
    while (V < Prev &&
           !MinV.compare_exchange_weak(Prev, V, std::memory_order_relaxed))
      ;
  }
  void updateMax(uint64_t V) {
    uint64_t Prev = MaxV.load(std::memory_order_relaxed);
    while (V > Prev &&
           !MaxV.compare_exchange_weak(Prev, V, std::memory_order_relaxed))
      ;
  }

  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> MinV{UINT64_MAX};
  std::atomic<uint64_t> MaxV{0};
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
/// Metric references returned by counter()/gauge()/histogram() are stable
/// for the registry's lifetime (deque storage), so call sites can cache
/// them and skip the name lookup.
class MetricsRegistry {
public:
  /// \p Clock is borrowed and must outlive the registry; null uses a
  /// process-wide SteadyClock.
  explicit MetricsRegistry(MetricsClock *Clock = nullptr);

  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  uint64_t nowNanos() { return Clock->nowNanos(); }

  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

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

  /// Name-sorted snapshots of every registered metric (deterministic
  /// serialization order, independent of registration order).
  std::vector<std::pair<std::string, uint64_t>> counterValues() const;
  struct GaugeValue {
    std::string Name;
    int64_t Value;
    int64_t Max;
  };
  std::vector<GaugeValue> gaugeValues() const;
  struct HistogramValue {
    std::string Name;
    uint64_t Count, Sum, Min, Max;
    /// (log2 bucket index, count) for every non-empty bucket.
    std::vector<std::pair<uint32_t, uint64_t>> Buckets;
  };
  std::vector<HistogramValue> histogramValues() const;

private:
  template <typename T>
  T &named(std::map<std::string, T *, std::less<>> &Index,
           std::deque<T> &Storage, std::string_view Name);

  MetricsClock *Clock;
  mutable std::mutex M;
  std::map<std::string, Counter *, std::less<>> CounterIndex;
  std::map<std::string, Gauge *, std::less<>> GaugeIndex;
  std::map<std::string, Histogram *, std::less<>> HistogramIndex;
  std::deque<Counter> Counters;
  std::deque<Gauge> Gauges;
  std::deque<Histogram> Histograms;
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
