//===- herd/StatsJson.h - Machine-readable run statistics -------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes one pipeline run — RaceRuntimeStats, the per-shard
/// breakdown, registry metrics, the interpreter profile, and the formatted
/// race reports — as a single JSON document (`herd --stats=json`), so CI
/// and scripts consume run results without scraping the human output.
///
/// The document carries a stable, versioned envelope:
///
///   { "schema": "herd-stats", "version": 2, ... }
///
/// Consumers check the pair and refuse what they don't understand
/// (scripts/check_schema.py is the in-tree reference consumer).
/// Within a version, fields are only ever added, never renamed or
/// repurposed; key order is fixed so byte-level diffs are meaningful
/// (the golden-file tests in tests/stats_test.cpp rely on this).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_HERD_STATSJSON_H
#define HERD_HERD_STATSJSON_H

#include "herd/Pipeline.h"

#include <string>

namespace herd {

class InterpProfiler;
class MetricsRegistry;

/// The schema identity this build emits.
inline constexpr const char *StatsSchemaName = "herd-stats";
inline constexpr int StatsSchemaVersion = 3;

/// Renders \p Result as one herd-stats JSON document (trailing newline
/// included).  \p Metrics and \p Prof are optional sections: when given,
/// the document carries a "metrics" object (the registry's counters
/// with exact values) and a "profile" object (the opcode table behind
/// `herd --profile`, machine-readable).
std::string renderStatsJson(const PipelineResult &Result,
                            const MetricsRegistry *Metrics = nullptr,
                            const InterpProfiler *Prof = nullptr);

} // namespace herd

#endif // HERD_HERD_STATSJSON_H
