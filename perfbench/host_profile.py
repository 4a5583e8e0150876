#!/usr/bin/env python3
"""Host profile of the simulator by layer (gprof flat profile).

The benchmark binary is built a second time, in its own build tree,
with CMAKE_FLAGS on the cmake command line (no build file changes).
host_shares() runs one workload with it in a directory of its own and
folds `gprof -p` self time by C++ namespace into the simulator's layers:

    xpc::mem -> mem          xpc::engine -> xpc     xpc::kernel -> kernel
    xpc::core -> core        xpc::services* -> services
    xpc::apps -> apps        xpc::hw -> hw          other xpc:: -> sim

-pg is given to the linker only. That links gprof's start-up code,
which samples the program counter over the binary's text, while the
code itself stays the optimised Release build: compiling with -pg as
well would add an mcount call to every function, and that time lands
in libc, outside every layer (it hid more than half of the xcall
profile when tried). Call counts are therefore absent; self time is
all the fold needs.

Each share is a fraction of the profiled process's CPU time (user +
system). `unattributed` is the rest: time gprof cannot see (shared
libraries such as libc's memcpy, the kernel) and code outside the xpc
namespace (the standard library's templates, the benchmark's own code).

    python3 perfbench/host_profile.py --workload ycsb

run.py builds the -pg binary with CMAKE_FLAGS and calls host_shares()
on every traced run.
"""

import argparse
import json
import re
import resource
import subprocess
import sys
from pathlib import Path

LAYERS = ["mem", "sim", "xpc", "kernel", "core", "services", "apps", "hw"]
CMAKE_FLAGS = ["-DCMAKE_EXE_LINKER_FLAGS=-pg"]
PROFILE_SECONDS = 2

# Longest prefix first; "xpc::" alone is the sim catch-all.
PREFIXES = [
    ("xpc::mem::", "mem"),
    ("xpc::engine::", "xpc"),
    ("xpc::kernel::", "kernel"),
    ("xpc::core::", "core"),
    ("xpc::services", "services"),
    ("xpc::apps::", "apps"),
    ("xpc::hw::", "hw"),
    ("xpc::", "sim"),
]

FLAT_ROW = re.compile(
    r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$"
)


def qualified_name(symbol):
    """The function's qualified name: no template arguments, no
    parameter list, no leading return type."""
    depth = 0
    out = []
    for ch in symbol:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            if ch == "(":
                break
            out.append(ch)
    return "".join(out).strip().split(" ")[-1]


def layer_of(symbol):
    name = qualified_name(symbol)
    for prefix, layer in PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


def fold(flat_profile):
    """Self seconds per layer from `gprof -p -b` output, and the total
    self seconds gprof saw."""
    seconds = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    for line in flat_profile.splitlines():
        m = FLAT_ROW.match(line)
        if not m:
            continue
        total += float(m.group(3))
        layer = layer_of(m.group(4))
        if layer:
            seconds[layer] += float(m.group(3))
    return seconds, total


def host_shares(binary, workload, seed, run_dir):
    """Run @binary once under gprof for PROFILE_SECONDS; returns
    ({layer: share} including "unattributed", the number of 10 ms
    samples gprof took)."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    gmon = run_dir / "gmon.out"
    if gmon.exists():
        gmon.unlink()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([str(Path(binary).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(PROFILE_SECONDS)],
                   cwd=run_dir, check=True, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    flat = subprocess.run(["gprof", "-p", "-b", str(Path(binary).resolve()),
                           str(gmon)], check=True, capture_output=True,
                          text=True).stdout
    seconds_by_layer, sampled = fold(flat)
    shares = {layer: s / cpu for layer, s in seconds_by_layer.items()}
    shares["unattributed"] = max(0.0, 1.0 - sum(shares.values()))
    return shares, round(sampled / 0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["ycsb", "xcall", "mesh"])
    args = ap.parse_args()
    import run  # builds into the same tree as run.py's traced runs
    binary = run.build("perfbench-profile", CMAKE_FLAGS)
    run_dir = run.build_root() / ("profile-run-" + args.workload)
    shares, _ = host_shares(binary, args.workload, 1, run_dir)
    json.dump({"host_share." + k: round(v, 4) for k, v in shares.items()},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
