#!/usr/bin/env python3
"""Gates a bench_hotpath run (herd-bench-hotpath-v7 JSON) against a baseline.

Usage: check_bench_gate.py CURRENT.json BASELINE.json

Every comparison is one line of CLAUSES: a name, a scope, and a predicate
over the current trace `c` and the baseline trace `b`.  Scopes:

  "doc"           once, over the two whole documents;
  "SECTION"       each baseline trace that carries SECTION ("name" means
                  every trace), paired with the current trace of that name;
  "SECTION@NAME"  only the baseline trace called NAME;
  a trailing "!"  only when the current run is a full (non-smoke) run,
                  which must show the headline numbers BENCH_hotpath.json
                  carries.

A missing trace, section or key fails every clause that reads it.  Ratio
clauses read paired medians (bench/PairedRatio.h: 21 alternated A/B pairs
in one process), with `_q1` and `_q3` beside each; throughput clauses hold
a loose factor against the baseline.  Both catch a fast path falling off
a cliff, not single-digit drift; paired-spread fails a run whose quartiles
lie too far apart to judge.  Agreement and counter clauses are exact.

Prints one line per clause: ok, FAIL with the traces that failed, or skip
when its scope is empty (the full-run clauses on a smoke run).  Exit
status: 0 when every clause holds, 1 naming each failed clause, 2 on usage
or I/O errors.
"""

import json
import sys

SCHEMA = "herd-bench-hotpath-v7"
LIVE_KEYS = ("seconds", "events_per_sec", "allocs_per_event", "fused_execs",
             "block_retire_hits", "block_retired_steps")
HOOK_KEYS = ("live_unfiltered_events_per_sec", "live_filtered_events_per_sec",
             "speedup", "access_events", "filter_hits", "filter_misses",
             "filter_hit_rate", "events_delivered", "counters_reconcile")
EPOCH_KEYS = ("vc_events_per_sec", "epoch_cold_events_per_sec",
              "epoch_steady_events_per_sec", "speedup",
              "steady_allocs_per_event", "racy_locations", "agreement")
COUNTERS = ("fused_execs", "block_retire_hits", "block_retired_steps")


def traces(doc):
    return {t["name"]: t for t in doc["traces"]}


def cold(t, key):
    return t["cold_ab"][key]


def sw(t):
    return t["live_by_dispatch"]["switch"]


def th(t):
    return t["live_by_dispatch"]["threaded"]


def hp(t):
    return t["hook_path"]


def pv(t):
    return t["provenance_ab"]


def ep(t):
    return t["epoch_ab"]


LIVE, HOOK, EPOCH = "live_by_dispatch", "hook_path", "epoch_ab"
# The paired medians the timing clauses read, plus hotfield's hook path,
# and the widest (q3 - q1) / median each may show: 1.6x the widest (0.34)
# of 45 gated runs on a 4-vCPU VM (40 smoke, 5 full).
PAIRED = ((LIVE, "threaded_over_switch"), ("live", "ratio_vs_replay_cold"),
          (EPOCH, "speedup"))
MAX_SPREAD = 0.55


def spreads(c, b):
    read = PAIRED + ((HOOK, "speedup"),) * (b["name"] == "hotfield")
    return [(c[s][k + "_q3"] - c[s][k + "_q1"]) / c[s][k]
            for s, k in read if s in b]


CLAUSES = [
    # The documents: both v7, and the baseline covers the traces the
    # clauses below key on.
    ("schema", "doc", lambda c, b: c["schema"] == b["schema"] == SCHEMA),
    ("baseline-live", "doc", lambda c, b: any(LIVE in t for t in b["traces"])),
    ("baseline-hotfield", "doc", lambda c, b: HOOK in traces(b)["hotfield"]),
    ("baseline-refhot", "doc", lambda c, b: EPOCH in traces(b)["refhot"]),
    # Every lane reported its reference lane's race set, on every trace.
    ("agreement", "name", lambda c, b: c["agreement"] is True),
    # Every paired median a timing clause reads is tight enough to judge.
    ("paired-spread", "name", lambda c, b: max(spreads(c, b)) <= MAX_SPREAD),
    # Cold-pass allocations (docs/PERFORMANCE.md) are deterministic: the
    # slack absorbs allocator-library differences and tiny-trace rounding.
    ("cold-allocs", "cold_ab", lambda c, b: cold(c, "allocs_per_event") <= cold(b, "allocs_per_event") * 1.25 + 0.02),
    ("cold-allocs-planned", "cold_ab", lambda c, b: cold(c, "allocs_per_event_planned") <= cold(b, "allocs_per_event_planned") * 1.25 + 0.02),
    ("planned-ceiling", "doc", lambda c, b: cold(traces(c)["refhot"], "allocs_per_event_planned") <= 0.2),
    # Dispatch (docs/INTERPRETER.md): threaded vs switch and vs the baseline.
    ("dispatch-keys", LIVE, lambda c, b: all(k in c[LIVE][m] for m in ("switch", "threaded") for k in LIVE_KEYS)),
    ("live-is-threaded", LIVE, lambda c, b: c["live"] == th(c)),
    ("threaded-ratio", LIVE, lambda c, b: th(c)["ratio_vs_replay_cold"] >= th(b)["ratio_vs_replay_cold"] * 0.4),
    ("threaded-vs-switch", LIVE, lambda c, b: c[LIVE]["threaded_over_switch"] >= 0.5),
    ("threaded-vs-baseline", LIVE, lambda c, b: th(c)["events_per_sec"] >= th(b)["events_per_sec"] * 0.4),
    ("switch-counters-zero", LIVE, lambda c, b: all(sw(c)[k] == 0 for k in COUNTERS)),
    ("threaded-fused", LIVE, lambda c, b: th(c)["fused_execs"] > 0),
    # Hook path (docs/HOOKPATH.md) and provenance (docs/REPORTS.md).
    ("hook-keys", HOOK, lambda c, b: all(k in hp(c) for k in HOOK_KEYS)),
    ("hook-reconcile", HOOK, lambda c, b: hp(c)["access_events"] == hp(c)["filter_hits"] + hp(c)["events_delivered"]),
    ("hook-probes", HOOK, lambda c, b: hp(c)["filter_hits"] + hp(c)["filter_misses"] <= hp(c)["access_events"]),
    ("hook-reconcile-flag", HOOK, lambda c, b: hp(c)["counters_reconcile"] is True),
    ("unfiltered-vs-baseline", HOOK, lambda c, b: hp(c)["live_unfiltered_events_per_sec"] >= hp(b)["live_unfiltered_events_per_sec"] * 0.4),
    ("provenance-agreement", HOOK, lambda c, b: pv(c)["agreement"] is True),
    ("provenance-measured", HOOK, lambda c, b: pv(c)["on_events_per_sec"] > 0 and pv(c)["accesses_observed"] > 0),
    ("hotfield-speedup", HOOK + "@hotfield", lambda c, b: hp(c)["speedup"] >= max(0.95, hp(b)["speedup"] * 0.6)),
    ("hotfield-headline", HOOK + "@hotfield!", lambda c, b: hp(c)["speedup"] >= 1.3),
    # Epoch backend vs the vector-clock baseline (docs/DETECTORS.md).
    ("epoch-keys", EPOCH, lambda c, b: all(k in ep(c) for k in EPOCH_KEYS)),
    ("epoch-agreement", EPOCH, lambda c, b: ep(c)["agreement"] is True),
    ("epoch-speedup", EPOCH, lambda c, b: ep(c)["speedup"] >= max(0.9, ep(b)["speedup"] * 0.5)),
    ("epoch-steady-allocs", EPOCH, lambda c, b: ep(c)["steady_allocs_per_event"] <= 0.02),
    ("refhot-headline-speedup", EPOCH + "@refhot!", lambda c, b: ep(c)["speedup"] >= 3.0),
    ("refhot-headline-allocs", EPOCH + "@refhot!", lambda c, b: ep(c)["steady_allocs_per_event"] <= 0.001),
]


def pairs(scope, cur, base):
    """The (label, current, baseline) triples a clause's scope covers."""
    if scope == "doc":
        return [("", cur, base)]
    if scope.endswith("!") and cur.get("smoke", True):
        return []
    section, _, only = scope.rstrip("!").partition("@")
    current = traces(cur)
    return [(t["name"], current.get(t["name"]), t) for t in base["traces"]
            if section in t and only in ("", t["name"])]


def holds(check, c, b):
    """(verdict, reason): a missing trace, section or key fails the clause."""
    if c is None:
        return False, "no such trace in the current run"
    try:
        return bool(check(c, b)), ""
    except (KeyError, TypeError, IndexError) as e:
        return False, f"missing {e}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        docs = []
        for path in argv[1:]:
            with open(path) as f:
                docs.append(json.load(f))
    except (OSError, ValueError) as e:
        print(f"check_bench_gate: {e}", file=sys.stderr)
        return 2
    cur, base = docs
    failed = []
    for name, scope, check in CLAUSES:
        try:
            results = [(label, *holds(check, c, b))
                       for label, c, b in pairs(scope, cur, base)]
        except (KeyError, TypeError, AttributeError) as e:
            results = [("", False, f"missing {e}")]
        bad = [f"{label} {reason}".strip() or "false"
               for label, ok, reason in results if not ok]
        status = "FAIL" if bad else "ok" if results else "skip"
        print(f"{status:4} {name:24} "
              + ("; ".join(bad) or f"{len(results)} checked"))
        if bad:
            failed.append(name)
    if failed:
        print(f"bench gate failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
