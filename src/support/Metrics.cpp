//===- support/Metrics.cpp - Metrics registry, spans, clocks --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Json.h"

#include <algorithm>
#include <chrono>

using namespace herd;

MetricsClock::~MetricsClock() = default;

uint64_t SteadyClock::nowNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

static SteadyClock &processSteadyClock() {
  static SteadyClock C;
  return C;
}

MetricsRegistry::MetricsRegistry(MetricsClock *Clock)
    : Clock(Clock ? Clock : &processSteadyClock()) {}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = CounterIndex.find(Name);
  if (It != CounterIndex.end())
    return *It->second;
  Counters.emplace_back();
  CounterIndex.emplace(std::string(Name), &Counters.back());
  return Counters.back();
}

void MetricsRegistry::recordSpan(std::string_view Name,
                                 std::string_view Category, uint32_t Tid,
                                 uint64_t StartNanos, uint64_t DurNanos) {
  TraceEvent E;
  E.Name = std::string(Name);
  E.Category = std::string(Category);
  E.Phase = 'X';
  E.Tid = Tid;
  E.StartNanos = StartNanos;
  E.DurNanos = DurNanos;
  std::lock_guard<std::mutex> Lock(M);
  Timeline.push_back(std::move(E));
}

void MetricsRegistry::recordCounterSample(std::string_view Name, uint32_t Tid,
                                          int64_t Value) {
  TraceEvent E;
  E.Name = std::string(Name);
  E.Category = "counter";
  E.Phase = 'C';
  E.Tid = Tid;
  E.StartNanos = Clock->nowNanos();
  E.Value = Value;
  std::lock_guard<std::mutex> Lock(M);
  Timeline.push_back(std::move(E));
}

void MetricsRegistry::nameThread(uint32_t Tid, std::string_view Name) {
  TraceEvent E;
  E.Name = std::string(Name);
  E.Category = "__metadata";
  E.Phase = 'M';
  E.Tid = Tid;
  std::lock_guard<std::mutex> Lock(M);
  Timeline.push_back(std::move(E));
}

std::vector<TraceEvent> MetricsRegistry::traceEvents() const {
  std::lock_guard<std::mutex> Lock(M);
  return Timeline;
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::counterValues() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(CounterIndex.size());
  for (const auto &[Name, C] : CounterIndex)
    Out.emplace_back(Name, C->value());
  return Out; // std::map iteration is already name-sorted
}

namespace {

/// Microsecond timestamp with nanosecond fraction, as a JSON number
/// ("12.345"); trace_event "ts"/"dur" are microsecond-valued.
void microsValue(JsonWriter &W, uint64_t Nanos) {
  W.value(double(Nanos) / 1000.0);
}

} // namespace

std::string herd::renderChromeTraceJson(const MetricsRegistry &Reg) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("displayTimeUnit", "ms");
  W.key("traceEvents");
  W.beginArray();

  // Stable order: metadata first, then the timeline sorted by start time
  // (ties keep recording order, so nested spans stay parent-first).
  std::vector<TraceEvent> Events = Reg.traceEvents();
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     bool AMeta = A.Phase == 'M', BMeta = B.Phase == 'M';
                     if (AMeta != BMeta)
                       return AMeta;
                     if (AMeta)
                       return false; // metadata keeps recording order
                     return A.StartNanos < B.StartNanos;
                   });
  for (const TraceEvent &E : Events) {
    W.beginObject();
    if (E.Phase == 'M') {
      W.member("name", "thread_name");
      W.member("ph", "M");
      W.member("pid", 1);
      W.member("tid", E.Tid);
      W.key("args");
      W.beginObject();
      W.member("name", E.Name);
      W.endObject();
      W.endObject();
      continue;
    }
    W.member("name", E.Name);
    W.member("cat", E.Category);
    W.member("ph", std::string_view(&E.Phase, 1));
    W.member("pid", 1);
    W.member("tid", E.Tid);
    W.key("ts");
    microsValue(W, E.StartNanos);
    if (E.Phase == 'X') {
      W.key("dur");
      microsValue(W, E.DurNanos);
    } else if (E.Phase == 'C') {
      W.key("args");
      W.beginObject();
      W.member("value", E.Value);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();

  // Final metric totals, so a trace file alone carries the run's counters
  // (chrome://tracing ignores unknown top-level keys).
  W.key("metrics");
  W.beginObject();
  W.key("counters");
  W.beginObject();
  for (const auto &[Name, Value] : Reg.counterValues())
    W.member(Name, Value);
  W.endObject();
  W.endObject();

  W.endObject();
  Out += '\n';
  return Out;
}
