#!/usr/bin/env python3
"""Validates herd's JSON documents against their stable schemas.

Usage: check_schema.py DOCUMENT...

Each document picks its own table:

  "schema": "herd-stats"   `herd --stats=json` (src/herd/StatsJson.h)
  "schema": "herd-report"  `herd --report=json` (src/herd/ReportExport.h)
  "traceEvents": [...]     a `--trace-json` timeline
  "version": "2.1.0"       a `--report=sarif` document

This is the reference consumer of those contracts.  The envelope
("schema", "version") is checked first and documents this checker does not
understand are refused; within a version, required keys may gain siblings
but never disappear or change type.  Fingerprints must be 16-digit
lowercase hex strings: JSON number parsers are doubles and would silently
corrupt 64-bit values.  CI runs this on the observability job's artifacts,
so a field rename, a type change, a numeric fingerprint or an unknown
result kind fails the build instead of breaking downstream consumers.

Exit status: 0 when every document validates, 1 on any violation (each is
printed), 2 on usage or I/O errors.
"""

import json
import re
import sys

STATS_VERSION = 2
REPORT_VERSION = 1
SARIF_VERSION = "2.1.0"

NUM = (int, float)

# herd-stats: required key -> type (or tuple of types) per section.
DETECTOR_KEYS = {
    "events_in": int, "owned_filtered": int, "weaker_filtered": int,
    "races_reported": int, "locations_tracked": int,
    "locations_shared": int, "trie_nodes": int,
}
STATS_KEYS = {
    "schema": str, "version": int, "run": dict, "timings": dict,
    "static": dict, "instrumentation": dict, "dispatch": dict,
    "runtime": dict, "shards": list, "races": list, "deadlocks": list,
    "trace": dict, "report": dict,
}
STATS_SECTIONS = {
    "run": {"ok": bool, "error": str, "instructions": int,
            "access_events": int, "context_switches": int,
            "threads_created": int, "output_values": int},
    "timings": {"analysis_seconds": NUM, "exec_seconds": NUM},
    "static": {"reachable_access_statements": int,
               "thread_local_filtered": int, "thread_specific_filtered": int,
               "same_thread_filtered": int, "common_sync_filtered": int,
               "race_set_size": int, "may_race_pairs": int},
    "instrumentation": {"traces_inserted": int, "traces_removed": int,
                        "loops_peeled": int},
    "dispatch": {"mode": str, "fused_sites": dict, "fused_exec": dict,
                 "batch_retirement": dict},
    "runtime": {"events_seen": int, "cache_hits": int, "cache_misses": int,
                "cache_evictions": int, "detector": dict,
                "per_thread_cache": list},
    "trace": {"ok": bool, "error": str, "records": int, "bytes": int},
    "report": {"entries": int, "total_reported": int,
               "distinct_fingerprints": int, "dropped_records": int,
               "reporter_capacity": int, "provenance_enabled": bool,
               "provenance_threads": int, "provenance_locks": int,
               "provenance_accesses": int},
}
FUSED_KEYS = {k: int for k in (
    "const_binop", "const_putfield", "get_binop_put", "binop_branch",
    "getfield_binop", "binop_putfield", "binop_move", "access_trace",
    "total")}
BATCH_KEYS = {"planned_blocks": int, "planned_steps": int, "hits": int,
              "retired_steps": int}
SHARD_KEYS = {"events_ingested": int, "batches_ingested": int,
              "max_queue_depth_batches": int, "detector": dict}
EPOCH_KEYS = {k: int for k in (
    "events", "reads", "writes", "same_epoch_reads", "same_epoch_writes",
    "read_inflations", "shared_collapses", "races_reported",
    "locations_tracked", "threads_seen", "clock_rows_fresh",
    "clock_rows_reused")}
PROFILE_KEYS = {"sample_every": int, "total_dispatches": int,
                "instrumented_dispatches": int, "total_samples": int,
                "sampled_nanos": int, "hook_nanos": int, "opcodes": list,
                "pairs": list}

# herd-report and SARIF.
FINGERPRINT_RE = re.compile(r"^[0-9a-f]{16}$")
RESULT_KINDS = {"race", "racy-location", "deadlock", "deadlock-candidate"}
RULE_IDS = {"herd/datarace", "herd/racy-location", "herd/deadlock",
            "herd/deadlock-candidate"}
REPORT_KEYS = {"schema": str, "version": int, "tool": dict, "source": str,
               "summary": dict, "results": list, "provenance": dict}
SUMMARY_KEYS = {"distinct_races": int, "racy_locations": int,
                "deadlock_cycles": int, "deadlock_candidates": int,
                "total_reported": int, "dropped_records": int,
                "reporter_capacity": int}
RESULT_KEYS = {"kind": str, "rule": str, "fingerprint": str,
               "occurrences": int, "message": str}
# summary key counting each result kind.
SUMMARY_OF_KIND = {"race": "distinct_races",
                   "racy-location": "racy_locations",
                   "deadlock": "deadlock_cycles",
                   "deadlock-candidate": "deadlock_candidates"}

errors = []


def fail(msg):
    errors.append(msg)


def check_keys(obj, spec, where):
    for key, types in spec.items():
        if key not in obj:
            fail(f"{where}: missing required key '{key}'")
        elif not isinstance(obj[key], types):
            fail(f"{where}.{key}: expected {types}, got "
                 f"{type(obj[key]).__name__}")
        elif types is int and isinstance(obj[key], bool):
            # bool is an int subclass in Python; True must not pass as int.
            fail(f"{where}.{key}: expected int, got bool")


def check_subsections(doc, section, subs):
    """check_keys on each dict-valued doc[section][name] in subs."""
    parent = doc.get(section)
    if not isinstance(parent, dict):
        return
    for name, spec in subs.items():
        if isinstance(parent.get(name), dict):
            check_keys(parent[name], spec, f"{section}.{name}")


def check_envelope(doc, name, version):
    if doc.get("version") != version:
        fail(f"version: this checker understands {name} version {version}, "
             f"got {doc.get('version')!r}")
        return False
    return True


def check_stats(doc):
    if not check_envelope(doc, "herd-stats", STATS_VERSION):
        return
    check_keys(doc, STATS_KEYS, "$")
    for section, spec in STATS_SECTIONS.items():
        if isinstance(doc.get(section), dict):
            check_keys(doc[section], spec, section)
    dispatch = doc.get("dispatch", {})
    if isinstance(dispatch, dict):
        if dispatch.get("mode") not in ("switch", "threaded"):
            fail(f"dispatch.mode: expected 'switch' or 'threaded', got "
                 f"{dispatch.get('mode')!r}")
        # Every fused access+trace execution delivered one access event.
        fused, run = dispatch.get("fused_exec"), doc.get("run")
        if (isinstance(fused, dict) and isinstance(run, dict)
                and isinstance(fused.get("access_trace"), int)
                and isinstance(run.get("access_events"), int)
                and fused["access_trace"] > run["access_events"]):
            fail(f"dispatch.fused_exec.access_trace "
                 f"({fused['access_trace']}) exceeds run.access_events "
                 f"({run['access_events']})")
    check_subsections(doc, "dispatch", {"fused_sites": FUSED_KEYS,
                                        "fused_exec": FUSED_KEYS,
                                        "batch_retirement": BATCH_KEYS})
    check_subsections(doc, "runtime", {"detector": DETECTOR_KEYS})
    check_runtime_identities(doc)
    for i, shard in enumerate(doc.get("shards", [])):
        where = f"shards[{i}]"
        if not isinstance(shard, dict):
            fail(f"{where}: expected object")
            continue
        check_keys(shard, SHARD_KEYS, where)
        if isinstance(shard.get("detector"), dict):
            check_keys(shard["detector"], DETECTOR_KEYS, f"{where}.detector")
    for section in ("races", "deadlocks"):
        for i, entry in enumerate(doc.get(section, [])):
            if not isinstance(entry, str):
                fail(f"{section}[{i}]: expected string report")
    # Optional sections, validated when present.
    if "epoch" in doc:
        check_keys(doc["epoch"], EPOCH_KEYS, "epoch")
    if "metrics" in doc:
        check_keys(doc["metrics"], {"counters": dict, "gauges": dict,
                                    "histograms": dict}, "metrics")
    if "profile" in doc:
        check_keys(doc["profile"], PROFILE_KEYS, "profile")
        for i, pair in enumerate(doc["profile"].get("pairs", [])):
            if isinstance(pair, dict):
                check_keys(pair, {"first": str, "second": str, "count": int},
                           f"profile.pairs[{i}]")


def int_at(obj, *path):
    """The int at obj[path[0]][path[1]]..., or None."""
    for key in path:
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj if isinstance(obj, int) and not isinstance(obj, bool) else None


def check_runtime_identities(doc):
    """docs/HOOKPATH.md: every access reaching the runtime is a cache hit
    or goes to the detector, and a successful lockset run's runtime sees
    every access the run produced, live or replayed."""
    seen = int_at(doc, "runtime", "events_seen")
    hits = int_at(doc, "runtime", "cache_hits")
    into = int_at(doc, "runtime", "detector", "events_in")
    accesses = int_at(doc, "run", "access_events")
    if None not in (seen, hits, into) and seen != hits + into:
        fail(f"runtime.events_seen ({seen}) != runtime.cache_hits ({hits}) "
             f"+ runtime.detector.events_in ({into})")
    if None not in (seen, accesses) and doc["run"].get("ok") is True \
            and "epoch" not in doc and seen != accesses:
        fail(f"runtime.events_seen ({seen}) != run.access_events "
             f"({accesses})")


def check_trace(doc):
    if not isinstance(doc.get("traceEvents"), list):
        fail("trace: missing traceEvents array")
        return
    if not doc["traceEvents"]:
        fail("trace: traceEvents is empty")
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: expected object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing '{key}'")
        if ev.get("ph") not in ("X", "C", "M"):
            fail(f"{where}: unexpected phase {ev.get('ph')!r}")
        if ev.get("ph") == "X" and ("ts" not in ev or "dur" not in ev):
            fail(f"{where}: complete span without ts/dur")


def check_fingerprint(value, where):
    if not isinstance(value, str) or not FINGERPRINT_RE.match(value):
        fail(f"{where}: expected 16-digit lowercase hex string, got "
             f"{value!r}")


def check_site(value, where):
    if value is None:
        return
    if not isinstance(value, dict):
        fail(f"{where}: expected object or null")
        return
    check_keys(value, {"label": str, "line": int}, where)


def check_report(doc):
    if not check_envelope(doc, "herd-report", REPORT_VERSION):
        return
    check_keys(doc, REPORT_KEYS, "$")
    if isinstance(doc.get("tool"), dict):
        check_keys(doc["tool"], {"name": str, "detector": str}, "tool")
        if doc["tool"].get("detector") not in ("herd", "epoch"):
            fail(f"tool.detector: expected 'herd' or 'epoch', got "
                 f"{doc['tool'].get('detector')!r}")
    if isinstance(doc.get("summary"), dict):
        check_keys(doc["summary"], SUMMARY_KEYS, "summary")
    for i, result in enumerate(doc.get("results", [])):
        where = f"results[{i}]"
        if not isinstance(result, dict):
            fail(f"{where}: expected object")
            continue
        check_keys(result, RESULT_KEYS, where)
        if result.get("kind") not in RESULT_KINDS:
            fail(f"{where}.kind: unknown kind {result.get('kind')!r}")
        if result.get("rule") not in RULE_IDS:
            fail(f"{where}.rule: unknown rule {result.get('rule')!r}")
        check_fingerprint(result.get("fingerprint"), f"{where}.fingerprint")
        if result.get("occurrences") == 0:
            fail(f"{where}.occurrences: must be at least 1")
        check_site(result.get("site"), f"{where}.site")
        check_site(result.get("prior_site"), f"{where}.prior_site")
    if isinstance(doc.get("provenance"), dict):
        check_keys(doc["provenance"],
                   {"enabled": bool, "threads_tracked": int,
                    "locks_tracked": int, "accesses_observed": int},
                   "provenance")
    # Cross-field consistency: the summary must count the results.
    summary, results = doc.get("summary"), doc.get("results")
    if isinstance(summary, dict) and isinstance(results, list):
        for kind, key in SUMMARY_OF_KIND.items():
            counted = sum(1 for r in results
                          if isinstance(r, dict) and r.get("kind") == kind)
            if summary.get(key) != counted:
                fail(f"summary.{key}: says {summary.get(key)!r} but results "
                     f"contain {counted} of kind '{kind}'")
        # The reporter's counting identity (docs/REPORTS.md): every report
        # lands in one race group's occurrences or in dropped_records.
        occurrences = sum(r["occurrences"] for r in results
                          if isinstance(r, dict) and r.get("kind") == "race"
                          and isinstance(r.get("occurrences"), int))
        dropped = summary.get("dropped_records")
        total = summary.get("total_reported")
        if isinstance(dropped, int) and isinstance(total, int) and \
                occurrences + dropped != total:
            fail(f"summary.total_reported: says {total} but the race "
                 f"results' occurrences ({occurrences}) plus "
                 f"dropped_records ({dropped}) make {occurrences + dropped}")


def check_sarif_location(loc, where):
    phys = loc.get("physicalLocation") if isinstance(loc, dict) else None
    if not isinstance(phys, dict):
        fail(f"{where}.physicalLocation: missing")
        return
    art = phys.get("artifactLocation")
    if not isinstance(art, dict) or not isinstance(art.get("uri"), str):
        fail(f"{where}.physicalLocation.artifactLocation.uri: missing")
    region = phys.get("region")
    if not isinstance(region, dict) or \
            not isinstance(region.get("startLine"), int) or \
            region.get("startLine") < 1:
        fail(f"{where}.physicalLocation.region.startLine: "
             f"expected positive int")


def check_sarif(doc):
    if doc.get("version") != SARIF_VERSION:
        fail(f"sarif version: expected '{SARIF_VERSION}', got "
             f"{doc.get('version')!r}")
        return
    if "$schema" not in doc:
        fail("sarif: missing '$schema'")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("sarif: 'runs' must be a non-empty array")
        return
    for r, run in enumerate(runs):
        where = f"runs[{r}]"
        if not isinstance(run, dict):
            fail(f"{where}: expected object")
            continue
        driver = run.get("tool", {}).get("driver") \
            if isinstance(run.get("tool"), dict) else None
        declared = set()
        if not isinstance(driver, dict):
            fail(f"{where}.tool.driver: missing")
        else:
            check_keys(driver, {"name": str, "rules": list},
                       f"{where}.tool.driver")
            for j, rule in enumerate(driver.get("rules", [])):
                if isinstance(rule, dict):
                    check_keys(rule, {"id": str, "shortDescription": dict},
                               f"{where}.tool.driver.rules[{j}]")
                    declared.add(rule.get("id"))
        for i, result in enumerate(run.get("results", [])):
            rwhere = f"{where}.results[{i}]"
            if not isinstance(result, dict):
                fail(f"{rwhere}: expected object")
                continue
            check_keys(result, {"ruleId": str, "level": str,
                                "message": dict, "partialFingerprints": dict,
                                "occurrenceCount": int}, rwhere)
            if result.get("ruleId") not in RULE_IDS:
                fail(f"{rwhere}.ruleId: unknown rule "
                     f"{result.get('ruleId')!r}")
            elif isinstance(driver, dict) and \
                    result["ruleId"] not in declared:
                fail(f"{rwhere}.ruleId: {result['ruleId']!r} not declared "
                     f"in tool.driver.rules")
            msg = result.get("message")
            if isinstance(msg, dict) and not isinstance(msg.get("text"), str):
                fail(f"{rwhere}.message.text: missing")
            prints = result.get("partialFingerprints")
            if isinstance(prints, dict):
                check_fingerprint(prints.get("herdRace/v1"),
                                  f"{rwhere}.partialFingerprints.herdRace/v1")
            for k, loc in enumerate(result.get("locations", [])):
                check_sarif_location(loc, f"{rwhere}.locations[{k}]")


def classify(doc):
    """(table name, checker) for a document, from the document itself."""
    if not isinstance(doc, dict):
        return None, None
    if "schema" in doc:
        return {"herd-stats": ("herd-stats", check_stats),
                "herd-report": ("herd-report", check_report)}.get(
                    doc["schema"], (None, None))
    if "traceEvents" in doc:
        return "trace timeline", check_trace
    if "version" in doc:
        return "SARIF", check_sarif
    return None, None


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"check_schema: cannot read {path}: {e}", file=sys.stderr)
            return 2
        table, check = classify(doc)
        errors.clear()
        if check is None:
            fail(f"unrecognized document (schema "
                 f"{doc.get('schema') if isinstance(doc, dict) else None!r})")
        else:
            check(doc)
        for e in errors:
            print(f"check_schema: {path}: {e}", file=sys.stderr)
        if errors:
            status = 1
        else:
            print(f"check_schema: {path} is a valid {table} document")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
