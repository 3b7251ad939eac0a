//===- herd/HerdOptions.h - herd CLI argument parsing -----------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `herd` tool's command line, factored out of tools/herd.cpp into a
/// unit that parses a vector of argument strings and returns either a
/// validated HerdOptions or a one-line diagnostic — so every flag's error
/// path is unit-testable (tests/cli_test.cpp) instead of only reachable by
/// spawning the binary.
///
/// Parsing preserves the tool's long-standing rules: presets (`--config`)
/// are applied first and never clobber explicit `--cache-size` / `--plan`
/// flags regardless of order; `--replay` excludes `--sweep` and
/// `--record`; `--detector` requires `--replay`; numeric flags are
/// validated eagerly with the same messages the tool always printed.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_HERD_HERDOPTIONS_H
#define HERD_HERD_HERDOPTIONS_H

#include "herd/Pipeline.h"

#include <string>
#include <vector>

namespace herd {

/// Everything the `herd` tool needs to know after argv is parsed.
struct HerdOptions {
  std::string Path;         ///< MiniJ source file (or empty with a workload)
  std::string WorkloadName; ///< built-in workload (`--workload=`)
  std::string RecordPath;   ///< trace output (`--record=`)
  std::string ReplayPath;   ///< trace input (`--replay=`)
  std::string Detector = "herd"; ///< replay detector (`--detector=`)
  std::string TraceJsonPath;     ///< Chrome trace output (`--trace-json=`)
  std::string Report = "human";  ///< report rendering (`--report=`)

  ToolConfig Config = ToolConfig::full();
  uint64_t Seed = 1;
  int Sweep = 0;

  bool Stats = false;     ///< `--stats` / `--stats=human`
  bool StatsJson = false; ///< `--stats=json`: print only the JSON document
  bool DumpIR = false;
  bool Deadlocks = false;
  bool Profile = false;   ///< `--profile`: interpreter sampling profiler
};

/// Outcome of one parse.
struct HerdParse {
  enum class Status : uint8_t {
    Run,   ///< Opts is valid; run the tool
    Help,  ///< `--help`: print usage, exit 0
    Error, ///< bad command line: print Error (and usage if ShowUsage), exit 2
  };

  Status St = Status::Error;
  std::string Error;      ///< one-line diagnostic, no trailing newline
  bool ShowUsage = false; ///< print the usage text after the diagnostic
  HerdOptions Opts;
};

/// Parses the argv tail (everything after argv[0]).  Never prints; the
/// caller owns stderr.
HerdParse parseHerdCommandLine(const std::vector<std::string> &Args);

/// The usage text `herd --help` prints.
const char *herdUsageText();

/// Maps a `--config=` preset name onto \p Out; false for unknown names.
bool pickToolConfig(const std::string &Name, ToolConfig &Out);

/// parseCount's verdict on its text.
enum class CountParse : uint8_t { Ok, NotDigits, OutOfRange };

/// Parses \p Text, which must be plain decimal digits, as a count in
/// [\p Min, \p Max] into \p Out (untouched unless Ok).  Every numeric
/// `herd` flag and the paper grid's scale go through it.
CountParse parseCount(const std::string &Text, uint64_t Min, uint64_t Max,
                      uint64_t &Out);

} // namespace herd

#endif // HERD_HERD_HERDOPTIONS_H
