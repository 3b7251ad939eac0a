#!/usr/bin/env python3
"""Crafted traces through `herd --replay` under every backend.

Records figure2 once, then derives five traces from the recording: one
whose access records name thread 2^31-1, one whose thread creates name
a child near 2^31, one that goes on creating threads, in order, past
the thread limit (MaxThreads in src/support/Ids.h), one whose monitor
records name lock 2^30+1, thread 1's dummy join lock (FirstDummyLock in
src/support/Ids.h), and one whose monitor enters are rewritten as final
monitor exits.  Each must end with exit 1 and a replay diagnostic under
the serial and sharded runtimes and every comparison detector; before
the replay boundary checked thread indices, the first two aborted on
std::bad_alloc, before it checked lock ids the fourth could hide a
race, and before it checked monitor recursion counts the last crashed
the serial and sharded runtimes (SIGSEGV).  The untouched recording
must still replay under each of them (figure2 races, so exit 1, but
without a diagnostic).

    cli_hostile_traces.py <herd binary> <figure2.mj> <work dir>
"""

import os
import struct
import subprocess
import sys

HEADER_BYTES = 16
RECORD_BYTES = 40
KIND_CREATE = 0
KIND_MONITOR_ENTER = 3
KIND_MONITOR_EXIT = 4
KIND_ACCESS = 5
FLAGS_OFFSET = 1
THREAD_OFFSET = 4
LOCK_OFFSET = 12
THREAD_OBJ_OFFSET = 28
MAX_THREADS = 1024
FIRST_DUMMY_LOCK = 2**30

BACKENDS = [[], ["--shards=2"], ["--detector=epoch"],
            ["--detector=vectorclock"], ["--detector=naive"],
            ["--detector=eraser"]]


def patched(trace, kind, value):
    """A copy of trace with the thread field of each `kind` record set to
    value; creates of thread 0 (the main thread's own record) are kept."""
    out = bytearray(trace)
    for at in range(HEADER_BYTES, len(out), RECORD_BYTES):
        thread = struct.unpack_from("<I", out, at + THREAD_OFFSET)[0]
        if out[at] == kind and not (kind == KIND_CREATE and thread == 0):
            struct.pack_into("<I", out, at + THREAD_OFFSET, value)
    return bytes(out)


def dummy_locks(trace):
    """A copy of trace whose monitor records all name thread 1's dummy join
    lock."""
    out = bytearray(trace)
    for at in range(HEADER_BYTES, len(out), RECORD_BYTES):
        if out[at] in (KIND_MONITOR_ENTER, KIND_MONITOR_EXIT):
            struct.pack_into("<I", out, at + LOCK_OFFSET,
                             FIRST_DUMMY_LOCK + 1)
    return bytes(out)


def enters_as_exits(trace):
    """A copy of trace whose monitor enters are all final monitor exits."""
    out = bytearray(trace)
    for at in range(HEADER_BYTES, len(out), RECORD_BYTES):
        if out[at] == KIND_MONITOR_ENTER:
            out[at] = KIND_MONITOR_EXIT
            out[at + FLAGS_OFFSET] = 0
    return bytes(out)


def creates_past_limit(trace):
    """A copy of trace that, after its own records, creates threads from
    the main thread until one more than MAX_THREADS exist."""
    records = [trace[at:at + RECORD_BYTES]
               for at in range(HEADER_BYTES, len(trace), RECORD_BYTES)]
    creates = [r for r in records if r[0] == KIND_CREATE and
               struct.unpack_from("<I", r, THREAD_OFFSET)[0] != 0]
    if not creates:
        return trace
    out = bytearray(trace)
    for child in range(len(creates) + 1, MAX_THREADS + 1):
        record = bytearray(creates[0])
        struct.pack_into("<I", record, THREAD_OFFSET, child)
        struct.pack_into("<I", record, THREAD_OBJ_OFFSET, 1000000 + child)
        out += record
    return bytes(out)


def main():
    herd, program, workdir = sys.argv[1:4]
    os.makedirs(workdir, exist_ok=True)
    recorded = os.path.join(workdir, "figure2.trace")
    subprocess.run([herd, program, "--record=" + recorded],
                   stdout=subprocess.DEVNULL, check=False)
    with open(recorded, "rb") as f:
        trace = f.read()
    if len(trace) <= HEADER_BYTES:
        sys.exit("recording figure2 produced no trace")

    crafted = {
        "access": patched(trace, KIND_ACCESS, 2**31 - 1),
        "create": patched(trace, KIND_CREATE, 2**31 - 5),
        "threads": creates_past_limit(trace),
        "dummy-lock": dummy_locks(trace),
        "enters-as-exits": enters_as_exits(trace),
    }
    paths = {}
    for name, data in crafted.items():
        paths[name] = os.path.join(workdir, name + ".trace")
        with open(paths[name], "wb") as f:
            f.write(data)
    failures = [f"{name}: the patch changed nothing"
                for name, data in crafted.items() if data == trace]
    diagnostic = "herd: trace replay failed: "
    for flags in BACKENDS:
        for name, path in [("recorded", recorded)] + list(paths.items()):
            run = subprocess.run([herd, program, "--replay=" + path] + flags,
                                 capture_output=True, text=True, timeout=60)
            failed = diagnostic in run.stderr
            if run.returncode != 1 or failed != (name != "recorded"):
                failures.append(f"{name} {' '.join(flags)}: exit "
                                f"{run.returncode}: {run.stderr.strip()}")
    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print(f"{len(crafted)} crafted traces x {len(BACKENDS)} backends: "
          "exit 1 with a diagnostic")


if __name__ == "__main__":
    main()
