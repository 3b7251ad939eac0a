//===- tests/cli_test.cpp - herd command-line parsing tests ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the `herd` tool's argument grammar (herd/HerdOptions.h):
/// every flag's happy path, every validation message, the cross-flag
/// conflict rules, and the preset-vs-flag ordering guarantees that the
/// CLI integration tests cannot pin without spawning one process per case.
///
//===----------------------------------------------------------------------===//

#include "herd/HerdOptions.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace herd;

namespace {

HerdParse parse(std::vector<std::string> Args) {
  return parseHerdCommandLine(Args);
}

/// Expects an Error outcome carrying exactly \p Message.
void expectError(const HerdParse &P, const std::string &Message) {
  EXPECT_EQ(P.St, HerdParse::Status::Error);
  EXPECT_EQ(P.Error, Message);
}

//===----------------------------------------------------------------------===
// Happy paths
//===----------------------------------------------------------------------===

TEST(CliTest, DefaultsForPlainRun) {
  HerdParse P = parse({"prog.mj"});
  ASSERT_EQ(P.St, HerdParse::Status::Run);
  EXPECT_EQ(P.Opts.Path, "prog.mj");
  EXPECT_TRUE(P.Opts.WorkloadName.empty());
  EXPECT_EQ(P.Opts.Seed, 1u);
  EXPECT_EQ(P.Opts.Sweep, 0);
  EXPECT_EQ(P.Opts.Detector, "herd");
  EXPECT_EQ(P.Opts.Config.Shards, 0u);
  EXPECT_EQ(P.Opts.Config.CacheEntries, 256u);
  EXPECT_EQ(P.Opts.Config.Plan, ToolConfig::PlanMode::Auto);
  EXPECT_FALSE(P.Opts.Stats);
  EXPECT_FALSE(P.Opts.StatsJson);
  EXPECT_FALSE(P.Opts.Profile);
  EXPECT_FALSE(P.Opts.Deadlocks);
  EXPECT_FALSE(P.Opts.DumpIR);
  EXPECT_TRUE(P.Opts.TraceJsonPath.empty());
}

TEST(CliTest, AllFlagsLand) {
  HerdParse P = parse({"--workload=mtrt", "--seed=9", "--shards=4",
                       "--cache-size=512", "--plan=1000", "--deadlocks",
                       "--stats", "--trace-json=t.json", "--profile"});
  ASSERT_EQ(P.St, HerdParse::Status::Run) << P.Error;
  EXPECT_EQ(P.Opts.WorkloadName, "mtrt");
  EXPECT_EQ(P.Opts.Seed, 9u);
  EXPECT_EQ(P.Opts.Config.Seed, 9u);
  EXPECT_EQ(P.Opts.Config.Shards, 4u);
  EXPECT_EQ(P.Opts.Config.CacheEntries, 512u);
  EXPECT_EQ(P.Opts.Config.Plan, ToolConfig::PlanMode::Explicit);
  EXPECT_EQ(P.Opts.Config.PlanLocations, 1000u);
  EXPECT_TRUE(P.Opts.Config.DetectDeadlocks);
  EXPECT_TRUE(P.Opts.Stats);
  EXPECT_EQ(P.Opts.TraceJsonPath, "t.json");
  EXPECT_TRUE(P.Opts.Profile);
}

TEST(CliTest, StatsVariants) {
  EXPECT_TRUE(parse({"p.mj", "--stats"}).Opts.Stats);
  EXPECT_TRUE(parse({"p.mj", "--stats=human"}).Opts.Stats);
  HerdParse Json = parse({"p.mj", "--stats=json"});
  ASSERT_EQ(Json.St, HerdParse::Status::Run);
  EXPECT_TRUE(Json.Opts.StatsJson);
  EXPECT_FALSE(Json.Opts.Stats);
  expectError(parse({"p.mj", "--stats=csv"}),
              "herd: --stats expects human or json, got 'csv'");
}

TEST(CliTest, HelpShortCircuits) {
  EXPECT_EQ(parse({"--help"}).St, HerdParse::Status::Help);
  EXPECT_EQ(parse({"-h"}).St, HerdParse::Status::Help);
  // --help wins even on an otherwise-broken command line.
  EXPECT_EQ(parse({"--plan=bogus", "--help"}).St, HerdParse::Status::Error);
  EXPECT_EQ(parse({"--help", "--plan=bogus"}).St, HerdParse::Status::Help);
}

TEST(CliTest, UsageTextMentionsEveryFlag) {
  std::string Usage = herdUsageText();
  for (const char *Flag :
       {"--config=", "--seed=", "--shards=", "--cache-size=", "--plan=",
        "--sweep=", "--record=", "--replay=", "--detector=", "--deadlocks",
        "--stats", "--trace-json=", "--profile", "--dispatch=",
        "--report=", "--provenance=", "--dump-ir", "--workload="})
    EXPECT_NE(Usage.find(Flag), std::string::npos) << Flag;
}

TEST(CliTest, DispatchModes) {
  // The build's default stands when the flag is absent...
#ifdef HERD_DEFAULT_DISPATCH_SWITCH
  EXPECT_EQ(parse({"p.mj"}).Opts.Config.Dispatch, DispatchMode::Switch);
#else
  EXPECT_EQ(parse({"p.mj"}).Opts.Config.Dispatch, DispatchMode::Threaded);
#endif
  // ...and both explicit spellings override it.
  EXPECT_EQ(parse({"p.mj", "--dispatch=switch"}).Opts.Config.Dispatch,
            DispatchMode::Switch);
  EXPECT_EQ(parse({"p.mj", "--dispatch=threaded"}).Opts.Config.Dispatch,
            DispatchMode::Threaded);
  expectError(parse({"p.mj", "--dispatch=goto"}),
              "herd: --dispatch expects switch or threaded, got 'goto'");
  expectError(parse({"p.mj", "--dispatch="}),
              "herd: --dispatch expects switch or threaded, got ''");
}

TEST(CliTest, DispatchSurvivesPreset) {
  // Like --shards/--plan, an explicit --dispatch must survive a later
  // --config preset (which rebuilds the whole ToolConfig).
  HerdParse P = parse({"p.mj", "--dispatch=switch", "--config=base"});
  ASSERT_EQ(P.St, HerdParse::Status::Run) << P.Error;
  EXPECT_EQ(P.Opts.Config.Dispatch, DispatchMode::Switch);
  EXPECT_FALSE(P.Opts.Config.Instrument); // the preset still applied
}

TEST(CliTest, ReportFormats) {
  // Default is human; all three spellings parse; anything else dies at
  // parse time with the accepted list, like --detector.
  EXPECT_EQ(parse({"p.mj"}).Opts.Report, "human");
  EXPECT_EQ(parse({"p.mj", "--report=human"}).Opts.Report, "human");
  EXPECT_EQ(parse({"p.mj", "--report=json"}).Opts.Report, "json");
  EXPECT_EQ(parse({"p.mj", "--report=sarif"}).Opts.Report, "sarif");
  expectError(parse({"p.mj", "--report=xml"}),
              "herd: --report expects human, json, or sarif, got 'xml'");
  expectError(parse({"p.mj", "--report="}),
              "herd: --report expects human, json, or sarif, got ''");
  expectError(parse({"p.mj", "--report=JSON"}),
              "herd: --report expects human, json, or sarif, got 'JSON'");
}

TEST(CliTest, ReportDocumentOwnsStdout) {
  // The machine-readable documents own stdout, exactly like --stats=json:
  // no sweeps, no competing stdout writers, no baseline detectors.
  expectError(parse({"p.mj", "--report=json", "--sweep=3"}),
              "herd: --report=json/--report=sarif cannot be combined with "
              "--sweep");
  expectError(parse({"p.mj", "--report=sarif", "--stats"}),
              "herd: --report=json/--report=sarif own stdout and cannot be "
              "combined with --stats/--profile");
  expectError(parse({"p.mj", "--report=json", "--stats=json"}),
              "herd: --report=json/--report=sarif own stdout and cannot be "
              "combined with --stats/--profile");
  expectError(parse({"p.mj", "--report=json", "--profile"}),
              "herd: --report=json/--report=sarif own stdout and cannot be "
              "combined with --stats/--profile");
  expectError(parse({"p.mj", "--report=json", "--dump-ir"}),
              "herd: --report=json/--report=sarif own stdout and cannot be "
              "combined with --dump-ir");
  expectError(
      parse({"p.mj", "--replay=t.trace", "--detector=eraser",
             "--report=json"}),
      "herd: --report only applies to the herd and epoch detectors");
  // The herd and epoch pipelines both export.
  EXPECT_EQ(parse({"p.mj", "--replay=t.trace", "--report=sarif"}).St,
            HerdParse::Status::Run);
  EXPECT_EQ(parse({"p.mj", "--replay=t.trace", "--detector=epoch",
                   "--report=json"})
                .St,
            HerdParse::Status::Run);
}

TEST(CliTest, ProvenanceModes) {
  // Default is off (zero-cost-when-off); both spellings parse; anything
  // else is an error, not a silently different run.
  EXPECT_FALSE(parse({"p.mj"}).Opts.Config.Provenance);
  EXPECT_TRUE(parse({"p.mj", "--provenance=on"}).Opts.Config.Provenance);
  EXPECT_FALSE(parse({"p.mj", "--provenance=off"}).Opts.Config.Provenance);
  expectError(parse({"p.mj", "--provenance=maybe"}),
              "herd: --provenance expects on or off, got 'maybe'");
  expectError(parse({"p.mj", "--provenance="}),
              "herd: --provenance expects on or off, got ''");
  expectError(parse({"p.mj", "--provenance=ON"}),
              "herd: --provenance expects on or off, got 'ON'");
}

TEST(CliTest, ProvenanceSurvivesPreset) {
  // An explicit --provenance must survive a later --config preset (which
  // rebuilds the whole ToolConfig), like --dispatch.
  HerdParse P = parse({"p.mj", "--provenance=on", "--config=full"});
  ASSERT_EQ(P.St, HerdParse::Status::Run) << P.Error;
  EXPECT_TRUE(P.Opts.Config.Provenance);
}

//===----------------------------------------------------------------------===
// Preset-vs-flag ordering
//===----------------------------------------------------------------------===

TEST(CliTest, PresetAfterFlagDoesNotClobber) {
  // --config resets the whole ToolConfig; explicit --shards/--cache-size/
  // --plan must survive no matter where the preset sits.
  HerdParse P = parse({"p.mj", "--shards=3", "--cache-size=64", "--plan=500",
                       "--config=nocache"});
  ASSERT_EQ(P.St, HerdParse::Status::Run) << P.Error;
  EXPECT_EQ(P.Opts.Config.Shards, 3u);
  EXPECT_EQ(P.Opts.Config.CacheEntries, 64u);
  EXPECT_EQ(P.Opts.Config.Plan, ToolConfig::PlanMode::Explicit);
  EXPECT_EQ(P.Opts.Config.PlanLocations, 500u);
  EXPECT_FALSE(P.Opts.Config.UseCache); // the preset still applied
}

TEST(CliTest, EveryPresetNameResolves) {
  for (const char *Name : {"full", "nostatic", "nodominators", "nopeeling",
                           "nocache", "fieldsmerged", "noownership", "base"}) {
    ToolConfig C;
    EXPECT_TRUE(pickToolConfig(Name, C)) << Name;
  }
  ToolConfig C;
  EXPECT_FALSE(pickToolConfig("notaconfig", C));
  expectError(parse({"p.mj", "--config=notaconfig"}),
              "herd: unknown config 'notaconfig'");
}

//===----------------------------------------------------------------------===
// Per-flag validation
//===----------------------------------------------------------------------===

TEST(CliTest, MissingInputShowsUsage) {
  HerdParse P = parse({"--stats"});
  EXPECT_EQ(P.St, HerdParse::Status::Error);
  EXPECT_TRUE(P.Error.empty());
  EXPECT_TRUE(P.ShowUsage);
}

TEST(CliTest, UnknownOptionShowsUsage) {
  HerdParse P = parse({"p.mj", "--frobnicate"});
  expectError(P, "herd: unknown option '--frobnicate'");
  EXPECT_TRUE(P.ShowUsage);
}

TEST(CliTest, BadShards) {
  expectError(parse({"p.mj", "--shards=abc"}),
              "herd: --shards expects a number, got 'abc'");
  expectError(parse({"p.mj", "--shards="}),
              "herd: --shards expects a number, got ''");
  expectError(parse({"p.mj", "--shards=4x"}),
              "herd: --shards expects a number, got '4x'");
  // strtoul would wrap -1 to 2^32 - 1 and skip the space: threads each.
  expectError(parse({"p.mj", "--shards=-1"}),
              "herd: --shards expects a number, got '-1'");
  expectError(parse({"p.mj", "--shards= 2"}),
              "herd: --shards expects a number, got ' 2'");
  expectError(parse({"p.mj", "--shards=65"}),
              "herd: --shards expects at most 64 shards, got '65'");
  expectError(parse({"p.mj", "--shards=100000"}),
              "herd: --shards expects at most 64 shards, got '100000'");
  expectError(parse({"p.mj", "--shards=99999999999999999999"}),
              "herd: --shards expects at most 64 shards, got "
              "'99999999999999999999'");
  EXPECT_EQ(parse({"p.mj", "--shards=64"}).Opts.Config.Shards, 64u);
}

TEST(CliTest, BadCacheSize) {
  const std::string Msg =
      "herd: --cache-size expects a power of two in [1, 2^20], got '";
  expectError(parse({"p.mj", "--cache-size=0"}), Msg + "0'");
  expectError(parse({"p.mj", "--cache-size=3"}), Msg + "3'");
  expectError(parse({"p.mj", "--cache-size=2097152"}), Msg + "2097152'");
  expectError(parse({"p.mj", "--cache-size=abc"}), Msg + "abc'");
  // strtoul skips blanks and accepts a sign: only digits are a size.
  for (std::string Size : {"+64", " 64", "-64"})
    expectError(parse({"p.mj", "--cache-size=" + Size}), Msg + Size + "'");
  EXPECT_EQ(parse({"p.mj", "--cache-size=1"}).St, HerdParse::Status::Run);
  EXPECT_EQ(parse({"p.mj", "--cache-size=1048576"}).St,
            HerdParse::Status::Run);
}

TEST(CliTest, BadPlan) {
  const std::string Msg =
      "herd: --plan expects auto or a positive location count, got '";
  expectError(parse({"p.mj", "--plan=maybe"}), Msg + "maybe'");
  expectError(parse({"p.mj", "--plan=0"}), Msg + "0'");
  expectError(parse({"p.mj", "--plan="}), Msg + "'");
  expectError(parse({"p.mj", "--plan=12x"}), Msg + "12x'");
  // The unplanned reference (PlanMode::Off) is not a CLI value, and
  // strtoull wraps a negative to a huge count, skips blanks and accepts a
  // sign: only digits are a count.
  for (std::string Plan : {"off", "-5", "+5", " 7"})
    expectError(parse({"p.mj", "--plan=" + Plan}), Msg + Plan + "'");
  EXPECT_EQ(parse({"p.mj", "--plan=auto"}).Opts.Config.Plan,
            ToolConfig::PlanMode::Auto);
}

TEST(CliTest, BadSweep) {
  // --sweep went through raw atoi for five PRs: '--sweep=5x' silently ran
  // 5 seeds and '--sweep=-3' / '--sweep=abc' silently ran NO sweep at
  // all.  Every malformed count is now a hard CLI error.
  const std::string Msg =
      "herd: --sweep expects a seed count in [1, 1000000], got '";
  expectError(parse({"p.mj", "--sweep=5x"}), Msg + "5x'");
  expectError(parse({"p.mj", "--sweep=-3"}), Msg + "-3'");
  expectError(parse({"p.mj", "--sweep=abc"}), Msg + "abc'");
  expectError(parse({"p.mj", "--sweep="}), Msg + "'");
  expectError(parse({"p.mj", "--sweep=0"}), Msg + "0'");
  expectError(parse({"p.mj", "--sweep= 5"}), Msg + " 5'");
  expectError(parse({"p.mj", "--sweep=+5"}), Msg + "+5'");
  expectError(parse({"p.mj", "--sweep=1000001"}), Msg + "1000001'");
  HerdParse Ok = parse({"p.mj", "--sweep=17"});
  ASSERT_EQ(Ok.St, HerdParse::Status::Run) << Ok.Error;
  EXPECT_EQ(Ok.Opts.Sweep, 17);
  EXPECT_EQ(parse({"p.mj", "--sweep=1000000"}).St, HerdParse::Status::Run);
}

TEST(CliTest, BadSeed) {
  // Same sweep for --seed, which used an unchecked strtoull: junk became
  // seed 0, and a negative wrapped to a huge value — both silently
  // changed which schedule ran.
  const std::string Msg = "herd: --seed expects a non-negative number, got '";
  expectError(parse({"p.mj", "--seed=abc"}), Msg + "abc'");
  expectError(parse({"p.mj", "--seed=7q"}), Msg + "7q'");
  expectError(parse({"p.mj", "--seed=-1"}), Msg + "-1'");
  expectError(parse({"p.mj", "--seed="}), Msg + "'");
  HerdParse Ok = parse({"p.mj", "--seed=0"});
  ASSERT_EQ(Ok.St, HerdParse::Status::Run) << Ok.Error;
  EXPECT_EQ(Ok.Opts.Seed, 0u);
  EXPECT_EQ(parse({"p.mj", "--seed=18446744073709551615"}).Opts.Seed,
            18446744073709551615ull);
}

TEST(CliTest, EmptyPathFlags) {
  expectError(parse({"p.mj", "--record="}),
              "herd: --record expects a file path");
  expectError(parse({"p.mj", "--replay="}),
              "herd: --replay expects a file path");
  expectError(parse({"p.mj", "--trace-json="}),
              "herd: --trace-json expects a file path");
}

TEST(CliTest, UnknownDetector) {
  // Rejected at parse time with the accepted-values list, before any
  // program or trace is touched.
  expectError(parse({"p.mj", "--detector=tsan"}),
              "herd: unknown detector 'tsan' "
              "(accepted: herd, epoch, eraser, vectorclock, naive)");
  expectError(parse({"p.mj", "--detector=fasttrack"}),
              "herd: unknown detector 'fasttrack' "
              "(accepted: herd, epoch, eraser, vectorclock, naive)");
  expectError(parse({"p.mj", "--detector="}),
              "herd: unknown detector '' "
              "(accepted: herd, epoch, eraser, vectorclock, naive)");
  // Misspellings of valid names are still unknown names, even with
  // --replay present.
  expectError(parse({"p.mj", "--replay=t.trace", "--detector=Epoch"}),
              "herd: unknown detector 'Epoch' "
              "(accepted: herd, epoch, eraser, vectorclock, naive)");
}

//===----------------------------------------------------------------------===
// Cross-flag conflicts
//===----------------------------------------------------------------------===

TEST(CliTest, ReplayExcludesSweepAndRecord) {
  expectError(parse({"p.mj", "--replay=t.trace", "--sweep=5"}),
              "herd: --replay cannot be combined with --sweep/--record");
  expectError(parse({"p.mj", "--replay=t.trace", "--record=u.trace"}),
              "herd: --replay cannot be combined with --sweep/--record");
  expectError(parse({"p.mj", "--record=t.trace", "--sweep=5"}),
              "herd: --record cannot be combined with --sweep");
}

TEST(CliTest, DetectorRequiresReplay) {
  expectError(parse({"p.mj", "--detector=eraser"}),
              "herd: --detector requires --replay");
  EXPECT_EQ(parse({"p.mj", "--detector=eraser", "--replay=t.trace"}).St,
            HerdParse::Status::Run);
}

TEST(CliTest, EpochDetectorRunsLiveAndReplay) {
  // Unlike the comparison baselines, the epoch backend is a first-class
  // detector: it runs live (serial) as well as under --replay.
  HerdParse Live = parse({"p.mj", "--detector=epoch"});
  ASSERT_EQ(Live.St, HerdParse::Status::Run) << Live.Error;
  EXPECT_EQ(Live.Opts.Config.Backend, ToolConfig::DetectorBackend::Epoch);
  HerdParse Replay = parse({"p.mj", "--replay=t.trace", "--detector=epoch"});
  ASSERT_EQ(Replay.St, HerdParse::Status::Run) << Replay.Error;
  EXPECT_EQ(Replay.Opts.Config.Backend, ToolConfig::DetectorBackend::Epoch);
  // The default stays on the herd backend.
  EXPECT_EQ(parse({"p.mj"}).Opts.Config.Backend,
            ToolConfig::DetectorBackend::Herd);
}

TEST(CliTest, EpochDetectorExcludesShards) {
  expectError(parse({"p.mj", "--detector=epoch", "--shards=2"}),
              "herd: --detector=epoch runs the serial happens-before "
              "backend and cannot be combined with --shards");
}

TEST(CliTest, ObservabilityExcludesSweep) {
  const std::string Msg =
      "herd: --profile/--stats=json/--trace-json cannot be combined with "
      "--sweep";
  expectError(parse({"p.mj", "--sweep=5", "--profile"}), Msg);
  expectError(parse({"p.mj", "--sweep=5", "--stats=json"}), Msg);
  expectError(parse({"p.mj", "--sweep=5", "--trace-json=t.json"}), Msg);
  // Human stats still sweep fine.
  EXPECT_EQ(parse({"p.mj", "--sweep=5", "--stats"}).St,
            HerdParse::Status::Run);
}

TEST(CliTest, ProfileRequiresLiveRun) {
  expectError(parse({"p.mj", "--replay=t.trace", "--profile"}),
              "herd: --profile requires a live run, not --replay");
}

TEST(CliTest, BaselineDetectorsHaveNoJsonOutputs) {
  const std::string Msg =
      "herd: --stats=json/--trace-json only apply to the herd detector";
  expectError(
      parse({"p.mj", "--replay=t.trace", "--detector=naive", "--stats=json"}),
      Msg);
  expectError(parse({"p.mj", "--replay=t.trace", "--detector=vectorclock",
                     "--trace-json=t.json"}),
              Msg);
  // The herd detector replay supports both, and so does epoch — it runs
  // through the full pipeline with its own stats section.
  EXPECT_EQ(
      parse({"p.mj", "--replay=t.trace", "--stats=json"}).St,
      HerdParse::Status::Run);
  EXPECT_EQ(parse({"p.mj", "--replay=t.trace", "--detector=epoch",
                   "--stats=json"})
                .St,
            HerdParse::Status::Run);
  EXPECT_EQ(parse({"p.mj", "--detector=epoch", "--trace-json=t.json"}).St,
            HerdParse::Status::Run);
}

} // namespace
