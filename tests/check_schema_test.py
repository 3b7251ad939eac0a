#!/usr/bin/env python3
"""Tests scripts/check_schema.py on documents herd renders.

Usage: check_schema_test.py HERD FIGURE2_MJ REPO_ROOT WORK_DIR

Renders, with herd: figure2's race report live and replayed, each as JSON
and as SARIF; an epoch report; and a `--stats=json` document.  Each must
pass the checker.  Then every cross-field rule gets one mutated copy of a
document, aimed at it alone: the checker must exit 1 and name the field
the rule guards.
"""

import copy
import json
import os
import subprocess
import sys


def render(herd, program, args):
    """herd's stdout for one run, parsed; figure2 races, so exit 1 is
    expected alongside 0."""
    run = subprocess.run([herd, program] + args, capture_output=True,
                         text=True, timeout=60)
    if run.returncode not in (0, 1):
        sys.exit(f"herd {' '.join(args)}: exit {run.returncode}: "
                 f"{run.stderr.strip()}")
    return json.loads(run.stdout)


def first(results, kind):
    return next(r for r in results if r.get("kind") == kind)


def undeclare_used_rule(doc):
    run = doc["runs"][0]
    used = run["results"][0]["ruleId"]
    run["tool"]["driver"]["rules"] = [
        r for r in run["tool"]["driver"]["rules"] if r.get("id") != used]


# Rule -> (document, mutation, text the checker's diagnostic must contain).
# Each mutation breaks its rule and no other.
MUTATIONS = {
    "summary-distinct-races": (
        "live.json",
        lambda d: d["summary"].update(
            distinct_races=d["summary"]["distinct_races"] + 1),
        "summary.distinct_races"),
    "summary-racy-locations": (
        "epoch.json",
        lambda d: d["summary"].update(
            racy_locations=d["summary"]["racy_locations"] + 1),
        "summary.racy_locations"),
    "summary-deadlock-cycles": (
        "live.json",
        lambda d: d["summary"].update(deadlock_cycles=1),
        "summary.deadlock_cycles"),
    "summary-deadlock-candidates": (
        "replay.json",
        lambda d: d["summary"].update(deadlock_candidates=1),
        "summary.deadlock_candidates"),
    "reporter-identity": (
        "replay.json",
        lambda d: first(d["results"], "race").update(
            occurrences=first(d["results"], "race")["occurrences"] + 1),
        "summary.total_reported"),
    "fused-access-trace": (
        "stats.json",
        lambda d: d["dispatch"]["fused_exec"].update(
            access_trace=d["run"]["access_events"] + 1),
        "dispatch.fused_exec.access_trace"),
    "sarif-rule-declared": (
        "live.sarif", undeclare_used_rule, "not declared"),
}


def check(checker, path):
    return subprocess.run([sys.executable, checker, path],
                          capture_output=True, text=True, timeout=60)


def main():
    herd, program, root, workdir = sys.argv[1:5]
    os.makedirs(workdir, exist_ok=True)
    checker = os.path.join(root, "scripts", "check_schema.py")
    trace = os.path.join(workdir, "figure2.trace")
    docs = {
        "live.json": render(herd, program,
                            ["--report=json", "--record=" + trace]),
        "live.sarif": render(herd, program, ["--report=sarif"]),
        "replay.json": render(herd, program,
                              ["--replay=" + trace, "--report=json"]),
        "replay.sarif": render(herd, program,
                               ["--replay=" + trace, "--report=sarif"]),
        "epoch.json": render(herd, program,
                             ["--detector=epoch", "--report=json"]),
        "stats.json": render(herd, program, ["--stats=json"]),
    }
    failures = []
    for name, doc in docs.items():
        path = os.path.join(workdir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        run = check(checker, path)
        if run.returncode != 0:
            failures.append(f"{name}: rejected: {run.stderr.strip()}")
    for rule, (name, mutate, named) in MUTATIONS.items():
        doc = copy.deepcopy(docs[name])
        mutate(doc)
        path = os.path.join(workdir, f"{rule}-{name}")
        with open(path, "w") as f:
            json.dump(doc, f)
        run = check(checker, path)
        errors = run.stderr.strip().splitlines()
        if run.returncode != 1 or len(errors) != 1 or named not in errors[0]:
            failures.append(f"{rule}: exit {run.returncode}, expected one "
                            f"violation naming '{named}': {errors}")
    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print(f"{len(docs)} rendered documents pass; {len(MUTATIONS)} "
          "cross-field mutations each fail on their own rule")


if __name__ == "__main__":
    main()
