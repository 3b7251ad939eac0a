//===- herd/ReportExport.h - Exportable race report documents ---*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders one pipeline run's deduplicated findings (PipelineResult::
/// Entries) as a machine-readable document (docs/REPORTS.md):
///
///   - `herd --report=json`: a versioned "herd-report" document, the
///     native export.  Fingerprints are 16-digit hex strings (64-bit
///     values do not survive JSON number parsers), occurrence counts make
///     deduplication lossless, and a summary block carries the bounded
///     reporter's totals — including droppedRecords(), so truncation is
///     never silent.
///
///   - `herd --report=sarif`: a SARIF 2.1.0 document for code-scanning
///     UIs.  Results carry partialFingerprints ("herdRace/v1": the same
///     stable fingerprint), and physical locations whenever the frontend
///     recorded source lines (Program::SourceName + SourceSite::Line);
///     workload and replay runs degrade to message-only results.
///
/// Both renderers are pure functions of the already-computed result — no
/// pipeline re-run, no detector access — so every backend (lockset trie,
/// sharded, epoch, replay) exports through the same path.  Consumers check
/// schema/version and refuse what they don't understand
/// (scripts/check_schema.py is the in-tree reference consumer);
/// within a version fields are only added, never renamed.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_HERD_REPORTEXPORT_H
#define HERD_HERD_REPORTEXPORT_H

#include "herd/Pipeline.h"

#include <string>

namespace herd {

/// The native document's schema identity.
inline constexpr const char *ReportSchemaName = "herd-report";
inline constexpr int ReportSchemaVersion = 1;

/// The SARIF version the SARIF renderer emits.
inline constexpr const char *ReportSarifVersion = "2.1.0";

/// Renders \p Result as one herd-report JSON document (trailing newline
/// included).  \p P supplies the source artifact name.
std::string renderReportJson(const Program &P, const PipelineResult &Result);

/// Renders \p Result as one SARIF 2.1.0 document (trailing newline
/// included).
std::string renderReportSarif(const Program &P, const PipelineResult &Result);

} // namespace herd

#endif // HERD_HERD_REPORTEXPORT_H
