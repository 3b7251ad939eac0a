#!/usr/bin/env python3
"""Tests scripts/check_bench_gate.py on the checked-in bench JSON.

Usage: check_bench_gate_test.py REPO_ROOT

Each checked-in document must pass against itself, but for the full-run
headline that BENCH_hotpath.json misses (KNOWN_FAILURES), and
BENCH_hotpath.json (a full run) must get the full-run clauses applied, not
skipped.  Then every clause gets at least one mutated copy of
BENCH_hotpath.json, lifted past its known failures, aimed at it alone: the
gate must exit 1 and name exactly that clause.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile


def tr(doc, name):
    return next(t for t in doc["traces"] if t["name"] == name)


def scale(obj, key, factor, plus=0.0):
    obj[key] = obj[key] * factor + plus


def paired(obj, key, median):
    """Moves a paired median to `median`, its quartiles with it, so only
    the clauses reading the median see a change."""
    factor = median / obj[key]
    for k in (key, key + "_q1", key + "_q3"):
        obj[k] *= factor


def threaded(doc, name):
    """The threaded live entry and its `live` copy, which must stay equal."""
    t = tr(doc, name)
    return t["live_by_dispatch"]["threaded"], t["live"]


def slow_threaded(c, b):
    """Threaded at 0.3x the baseline's threaded throughput."""
    slow = threaded(b, "mtrt")[0]["events_per_sec"] * 0.3
    for entry in threaded(c, "mtrt"):
        entry["events_per_sec"] = slow


def slow_replay(c, b):
    """Threaded at 0.3x its baseline ratio to the serial cold replay."""
    base = threaded(b, "mtrt")[0]["ratio_vs_replay_cold"]
    for entry in threaded(c, "mtrt"):
        paired(entry, "ratio_vs_replay_cold", base * 0.3)


def wide_spread(c, b):
    """mtrt's epoch speedup with quartiles wider than its median."""
    ep = tr(c, "mtrt")["epoch_ab"]
    ep["speedup_q3"] = ep["speedup_q1"] + ep["speedup"] * 1.1


# The clauses the checked-in full baseline fails on itself: its paired
# hotfield hook-path median is 1.20 against the 1.3 headline (CHANGES.md,
# the FOUND line on the probe's hit path).  The self-check must see exactly
# these fail; the mutations start from a copy lifted past them.
KNOWN_FAILURES = {"hotfield-headline"}


def lifted(full):
    doc = copy.deepcopy(full)
    hook = tr(doc, "hotfield")["hook_path"]
    paired(hook, "speedup", max(hook["speedup"], 1.31))
    return doc


# Clause name -> mutation of (current, baseline), both copies of the lifted
# BENCH_hotpath.json.  Each breaks its clause and no other.
MUTATIONS = {
    "schema": lambda c, b: c.update(schema="herd-bench-hotpath-v6"),
    "baseline-live": lambda c, b: [t.pop("live_by_dispatch", None)
                                   for t in b["traces"]],
    "baseline-hotfield": lambda c, b: tr(b, "hotfield").pop("hook_path"),
    "baseline-refhot": lambda c, b: tr(b, "refhot").pop("epoch_ab"),
    "agreement": lambda c, b: tr(c, "mtrt").update(agreement=False),
    "paired-spread": wide_spread,
    "cold-allocs": lambda c, b: scale(tr(c, "mtrt")["cold_ab"],
                                      "allocs_per_event", 1.25, 0.03),
    "cold-allocs-planned": lambda c, b: scale(
        tr(c, "mtrt")["cold_ab"], "allocs_per_event_planned", 1.25, 0.03),
    "planned-ceiling": lambda c, b: [
        tr(d, "refhot")["cold_ab"].update(allocs_per_event_planned=0.25)
        for d in (c, b)],
    "dispatch-keys": lambda c, b: tr(c, "mtrt")["live_by_dispatch"][
        "switch"].pop("seconds"),
    "live-is-threaded": lambda c, b: scale(tr(c, "mtrt")["live"], "seconds",
                                           1, 1),
    "threaded-ratio": slow_replay,
    "threaded-vs-switch": lambda c, b: paired(
        tr(c, "mtrt")["live_by_dispatch"], "threaded_over_switch", 0.4),
    "threaded-vs-baseline": slow_threaded,
    "switch-counters-zero": lambda c, b: tr(c, "mtrt")["live_by_dispatch"][
        "switch"].update(fused_execs=5),
    "threaded-fused": lambda c, b: [e.update(fused_execs=0)
                                    for e in threaded(c, "mtrt")],
    "hook-keys": lambda c, b: tr(c, "mtrt")["hook_path"].pop(
        "filter_hit_rate"),
    "hook-reconcile": lambda c, b: scale(tr(c, "mtrt")["hook_path"],
                                         "access_events", 1, 1),
    "hook-probes": lambda c, b: tr(c, "mtrt")["hook_path"].update(
        filter_misses=tr(c, "mtrt")["hook_path"]["access_events"]),
    "hook-reconcile-flag": lambda c, b: tr(c, "mtrt")["hook_path"].update(
        counters_reconcile=False),
    "unfiltered-vs-baseline": lambda c, b: scale(
        tr(c, "mtrt")["hook_path"], "live_unfiltered_events_per_sec", 0.3),
    "provenance-agreement": lambda c, b: tr(c, "mtrt")[
        "provenance_ab"].update(agreement=False),
    "provenance-measured": lambda c, b: tr(c, "mtrt")[
        "provenance_ab"].update(accesses_observed=0),
    # A smoke run, so the stricter full-run headline stays out of scope.
    "hotfield-speedup": lambda c, b: (
        c.update(smoke=True),
        paired(tr(c, "hotfield")["hook_path"], "speedup", 0.5)),
    "hotfield-headline": lambda c, b: paired(
        tr(c, "hotfield")["hook_path"], "speedup", 1.2),
    "epoch-keys": lambda c, b: tr(c, "mtrt")["epoch_ab"].pop(
        "vc_events_per_sec"),
    "epoch-agreement": lambda c, b: tr(c, "mtrt")["epoch_ab"].update(
        agreement=False),
    "epoch-speedup": lambda c, b: paired(tr(c, "mtrt")["epoch_ab"],
                                         "speedup", 0.5),
    "epoch-steady-allocs": lambda c, b: tr(c, "mtrt")["epoch_ab"].update(
        steady_allocs_per_event=0.05),
    "refhot-headline-speedup": lambda c, b: paired(
        tr(c, "refhot")["epoch_ab"], "speedup", 2.9),
    "refhot-headline-allocs": lambda c, b: tr(c, "refhot")[
        "epoch_ab"].update(steady_allocs_per_event=0.005),
}
# More mutations for clauses that fail more than one way: a paired median
# without its quartiles fails paired-spread too.
MORE_MUTATIONS = [
    ("paired-spread", lambda c, b: tr(c, "hotfield")["hook_path"].pop(
        "speedup_q1")),
]


def gate(script, cur, base, tmp):
    """Runs the gate on two documents; returns (exit code, failed clauses,
    skipped clauses, output)."""
    paths = []
    for i, doc in enumerate((cur, base)):
        paths.append(os.path.join(tmp, f"doc{i}.json"))
        with open(paths[-1], "w") as f:
            json.dump(doc, f)
    run = subprocess.run([sys.executable, script, *paths],
                         capture_output=True, text=True)
    lines = run.stdout.splitlines()
    status = {line.split()[1]: line.split()[0] for line in lines
              if line.split() and line.split()[0] in ("ok", "FAIL", "skip")}
    failed = {n for n, s in status.items() if s == "FAIL"}
    skipped = {n for n, s in status.items() if s == "skip"}
    return run.returncode, failed, skipped, run.stdout + run.stderr


def main(argv):
    root = argv[1]
    script = os.path.join(root, "scripts", "check_bench_gate.py")
    sys.dont_write_bytecode = True  # leave no __pycache__ in scripts/
    spec = importlib.util.spec_from_file_location("check_bench_gate", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    clauses = [name for name, _, _ in module.CLAUSES]
    errors = []
    if sorted(clauses) != sorted(MUTATIONS):
        errors.append(f"clauses without a mutation: "
                      f"{sorted(set(clauses) ^ set(MUTATIONS))}")
    with open(os.path.join(root, "BENCH_hotpath.json")) as f:
        full = json.load(f)
    with open(os.path.join(root, "BENCH_hotpath_smoke_baseline.json")) as f:
        smoke = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        for label, doc, known in (
                ("BENCH_hotpath.json", full, KNOWN_FAILURES),
                ("BENCH_hotpath_smoke_baseline.json", smoke, set())):
            code, failed, skipped, out = gate(script, doc, doc, tmp)
            if code != (1 if known else 0) or failed != known:
                errors.append(f"{label} against itself: exit {code}\n{out}")
            if label == "BENCH_hotpath.json" and skipped:
                errors.append(f"{label}: full-run clauses skipped: {skipped}")
        for clause, mutate in [*MUTATIONS.items(), *MORE_MUTATIONS]:
            cur, base = lifted(full), lifted(full)
            mutate(cur, base)
            code, failed, _, out = gate(script, cur, base, tmp)
            if code != 1 or failed != {clause}:
                errors.append(f"mutation for {clause}: exit {code}, failed "
                              f"{sorted(failed)}\n{out}")
    for e in errors:
        print(f"FAIL {e}")
    print(f"{len(clauses)} clauses, "
          f"{len(MUTATIONS) + len(MORE_MUTATIONS)} mutations, "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
