#!/usr/bin/env python3
"""The repository benchmark: simulator speed, set-up, memory and the
simulated results, for three workloads (see perfbench/README.md).

    python3 perfbench/run.py --workload ycsb|xcall|mesh --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary
(perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, default .bench_build, runs the workload for S
seconds and prints a report, then one JSON line as the last line of
output: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its
per_layer list, from a traced run, the stat registries and a gprof
profile (perfbench/host_profile.py).

    python3 perfbench/run.py --record-references

rewrites perfbench/references/<workload>.json: the simulated digest
of each of REFERENCE_SEEDS that every later run is checked against. Do that only in a
change that moves simulated numbers on purpose, and say so.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import host_profile  # noqa: E402

WORKLOADS = ["ycsb", "xcall", "mesh"]
REFERENCE_SEEDS = range(0, 16)
PAPER = json.loads((HERE / "references" / "paper.json").read_text())


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(tree, flags=()):
    """Configure (once) and build the benchmark binary in
    $CARGO_TARGET_DIR/@tree with the extra cmake @flags; returns it."""
    if not (HERE.parent / "src" / "CMakeLists.txt").exists():
        die("simulator sources (src/) not found next to perfbench/")
    root = build_root()
    root.mkdir(parents=True, exist_ok=True)
    build_dir = root / tree
    log = root / (tree + "-build.log")
    try:
        with open(log, "w") as out:
            if not (build_dir / "CMakeCache.txt").exists():
                cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"] + list(flags)
                if shutil.which("ninja"):
                    cmd += ["-G", "Ninja"]
                subprocess.run(cmd, check=True, stdout=out, stderr=out)
            subprocess.run(["cmake", "--build", str(build_dir), "--target",
                            "xpc_perfbench", "-j",
                            str(min(4, os.cpu_count() or 1))],
                           check=True, stdout=out, stderr=out)
    except subprocess.CalledProcessError:
        sys.stderr.write(log.read_text()[-4000:])
        die("build failed; see " + str(log))
    return build_dir / "xpc_perfbench"


def drive(binary, args):
    out = subprocess.run([str(binary)] + args, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def load_references(workload):
    path = HERE / "references" / (workload + ".json")
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get("digests", {})


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


class Registry:
    """Sums over the flattened stat registry of the first rep."""

    def __init__(self, flat):
        self.flat = flat

    def sum(self, prefix="", suffix=""):
        return sum(v for k, v in self.flat.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def get(self, key):
        return self.flat.get(key, 0.0)


def registry_metrics(doc):
    """Per-layer metrics read from the stat registries, per op of the
    measured phase. Identical on every run of a seed."""
    rep = doc["reps"][0]
    ops = rep["ops"]
    reg = Registry(doc["registry"])
    m = {}

    def per_op(v):
        return ratio(v, ops)

    hits = reg.sum("machine.mem.l1d", ".hits")
    misses = reg.sum("machine.mem.l1d", ".misses")
    m["mem.l1d.accesses_per_op"] = per_op(hits + misses)
    m["mem.l1d.miss_ratio"] = ratio(misses, hits + misses)
    m["mem.l1d.writebacks_per_op"] = per_op(
        reg.sum("machine.mem.l1d", ".writebacks"))
    l2h = reg.get("machine.mem.l2.hits")
    l2m = reg.get("machine.mem.l2.misses")
    m["mem.l2.miss_ratio"] = ratio(l2m, l2h + l2m)
    tlbh = reg.sum("machine.mem.tlb", ".hits")
    tlbm = reg.sum("machine.mem.tlb", ".misses")
    m["mem.tlb.miss_ratio"] = ratio(tlbm, tlbh + tlbm)
    m["mem.tlb.flushes_per_op"] = per_op(reg.sum("machine.mem.tlb",
                                                 ".flushes"))
    m["mem.stall_cycles_per_op"] = per_op(
        reg.sum("machine.mem.attr.", ".cycles") +
        reg.sum("machine.mem.attr.", ".walk_cycles"))
    m["sim.dist_samples_per_op"] = per_op(reg.sum("", "#count"))

    xcalls = reg.get("engine.xcalls")
    m["xpc.xcalls_per_op"] = per_op(xcalls)
    m["xpc.swapsegs_per_op"] = per_op(reg.get("engine.swapsegs"))
    m["xpc.engine_cache_hit_ratio"] = ratio(reg.get("engine.engine_cache_hits"),
                                            xcalls)
    m["xpc.exceptions"] = reg.get("engine.exceptions")

    kernels = ("sel4.", "zircon.")
    m["kernel.traps_per_op"] = per_op(sum(reg.get(k + "traps")
                                          for k in kernels))
    m["kernel.context_switches_per_op"] = per_op(
        sum(reg.get(k + "context_switches") for k in kernels))
    fast = reg.get("sel4.fastpath_calls")
    slow = reg.get("sel4.slowpath_calls")
    m["kernel.sel4_slowpath_ratio"] = ratio(slow, fast + slow)
    m["kernel.zircon_channel_msgs_per_op"] = per_op(
        reg.get("zircon.channel_msgs"))
    for phase in ("trap", "ipc_logic", "process_switch", "restore",
                  "transfer"):
        m["kernel.phase.%s_cycles" % phase] = per_op(
            sum(reg.get(k + "phases.%s#sum" % phase) for k in kernels))

    m["core.calls_per_op"] = per_op(reg.get("transport.calls"))
    m["core.failed_calls"] = reg.get("transport.failed_calls")
    for phase in ("trampoline", "xcall", "handler", "xret"):
        m["core.phase.%s_cycles" % phase] = per_op(
            reg.get("runtime.phases.%s#sum" % phase))

    m["services.admitted"] = reg.sum("admission.", ".admitted")
    m["services.shed"] = reg.sum("admission.", ".shed")
    m["services.retries"] = reg.get("supervisor.retries")
    m["services.restarts"] = reg.get("supervisor.restarts")

    m["hw.sim_cycles_per_op"] = per_op(rep["sim_cycles"])
    m["sim_speedup"] = doc["sim"]["speedup"]
    m["paper_err_pct"] = paper_error(doc["workload"], doc["sim"]["speedup"])
    return m


def paper_error(workload, speedup):
    """Percent error of @speedup against the paper figure the workload
    mirrors (references/paper.json); 0 for the mesh, which has none."""
    ref = PAPER.get(workload)
    if ref is None:
        return 0.0
    if "paper" in ref:
        return abs(speedup - ref["paper"]) / ref["paper"] * 100
    lo, hi = ref["band"]
    if speedup < lo:
        return (lo - speedup) / lo * 100
    if speedup > hi:
        return (speedup - hi) / hi * 100
    return 0.0


def seam_metrics(doc):
    """Per-layer host metrics from the traced reps' seam spans and the
    untraced reps' per-kind op times."""
    traced = [r for r in doc["reps"] if r["traced"]]
    plain = [r for r in doc["reps"] if not r["traced"]]
    ops = sum(r["ops"] for r in traced)
    self_ns = {}
    for r in traced:
        for k, v in r["self_ns"].items():
            self_ns[k] = self_ns.get(k, 0.0) + v

    def us_per_op(ns):
        return ratio(ns, ops) / 1000.0

    m = {
        "host.apps_self_us_per_op": us_per_op(
            sum(v for k, v in self_ns.items() if k.startswith("apps."))),
        "host.ipc_self_us_per_op": us_per_op(self_ns.get("ipc", 0.0)),
        "apps.rpcs_per_op": ratio(sum(r["app_rpcs"] for r in traced), ops),
    }
    for svc in ("fs", "blockdev", "echo"):
        m["host.services.%s_self_us_per_op" % svc] = us_per_op(
            self_ns.get("services." + svc, 0.0))
    for kind in ("read", "update", "insert", "scan", "rmw"):
        m["apps.%s_host_us.p50" % kind] = median(
            [r["kind_us_p50"][kind] for r in plain
             if kind in r["kind_us_p50"]])
    m["host.tracing_overhead_ratio"] = ratio(
        median([r["measured_s"] for r in traced]),
        median([r["measured_s"] for r in plain]))
    return m


def end_to_end_metrics(doc):
    plain = [r for r in doc["reps"] if not r["traced"]]
    sim = doc["sim"]
    return {
        "sim_mcycles_per_host_s": median(
            [r["sim_cycles"] / 1e6 / r["measured_s"] for r in plain]),
        "host_op_us.p50": median([r["op_us_p50"] for r in plain]),
        "host_op_us.p98": median([r["op_us_p98"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_op_kcycles.p50": sim["op_cycles_p50"] / 1000.0,
        "sim_op_kcycles.p98": sim["op_cycles_p98"] / 1000.0,
    }


def sample_counts(doc):
    """How many samples stand behind each metric (for the report)."""
    plain = [r for r in doc["reps"] if not r["traced"]]
    traced = [r for r in doc["reps"] if r["traced"]]
    ops = doc["reps"][0]["ops"]
    n = {"sim_mcycles_per_host_s": len(plain),
         "host_op_us.p50": sum(r["op_us_n"] for r in plain),
         "host_op_us.p98": sum(r["op_us_n"] for r in plain),
         "setup_s": len(plain), "peak_rss_mb": 1,
         "sim_op_kcycles.p50": doc["sim"]["op_samples"],
         "sim_op_kcycles.p98": doc["sim"]["op_samples"],
         "host.tracing_overhead_ratio": len(doc["reps"])}
    for k in ("apps.read", "apps.update", "apps.insert", "apps.scan",
              "apps.rmw"):
        n[k + "_host_us.p50"] = len(plain)
    return n, ops, sum(r["ops"] for r in traced)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()

    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        die("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    binary = build("perfbench-release")

    if args.record_references:
        record_references(binary)
        return
    if not args.workload:
        die("--workload is required")

    root = build_root()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(root / ("spans-%s.json" % args.workload))]
    doc = drive(binary, cmd)

    reps = doc["reps"]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = sorted({r["digest"] for r in reps})
    reference = load_references(args.workload).get(str(args.seed))
    if reference is None:
        check = "no reference for this seed (functional checks only)"
    elif digests == [reference]:
        check = "matches reference " + reference
    else:
        check = "MISMATCH: reference %s, run %s" % (reference, digests)
    if len(digests) != 1 or (reference and digests != [reference]):
        failed = attempted

    e2e = end_to_end_metrics(doc)
    layers = registry_metrics(doc)
    if args.trace:
        layers.update(seam_metrics(doc))
        profiled = build("perfbench-profile", host_profile.CMAKE_FLAGS)
        shares, samples = host_profile.host_shares(
            profiled, args.workload, args.seed,
            root / ("profile-run-" + args.workload))
    counts, ops, traced_ops = sample_counts(doc)
    if args.trace:
        for layer, share in shares.items():
            layers["host_share." + layer] = share
            counts["host_share." + layer] = samples

    print("perfbench %s seed=%d reps=%d (traced %d) digest=%s: %s" % (
        args.workload, args.seed, len(reps),
        sum(r["traced"] for r in reps), ",".join(digests), check))
    print("  fail_ratio %.6g (%d of %d ops)" % (ratio(failed, attempted),
                                               failed, attempted))
    if args.workload in PAPER:
        print("  paper: " + PAPER[args.workload]["source"])
    else:
        print("  sim_speedup, paper_err_pct: no paper figure for this "
              "workload (unvalidated); reported as 0")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for title, values in (("end-to-end", e2e), ("per-layer", layers)):
        print("  " + title)
        for name in sorted(values):
            n = counts.get(name, traced_ops if name.startswith("host.")
                           else ops)
            print("    %-40s %14.6g %-10s n=%d" % (name, values[name],
                                                   units.get(name, ""), n))
    plain = [r for r in reps if not r["traced"]]
    kinds = sorted({k for r in plain for k in r["kind_us_p50"]})
    if kinds:
        print("  host us per op, median of rep p50s, by op kind or system")
        for k in kinds:
            print("    %-40s %14.6g us" % (k, median(
                [r["kind_us_p50"][k] for r in plain])))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            die("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def record_references(binary):
    for workload in WORKLOADS:
        digests, sims = {}, {}
        for seed in REFERENCE_SEEDS:
            doc = drive(binary, ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "0", "--reps", "2"])
            ds = {r["digest"] for r in doc["reps"]}
            if len(ds) != 1 or any(r["failed"] for r in doc["reps"]):
                die("%s seed %d is not deterministic or fails its checks"
                    % (workload, seed))
            digests[str(seed)] = ds.pop()
            sims[str(seed)] = doc["sim"]
        path = HERE / "references" / (workload + ".json")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": workload, "digests": digests,
                                    "sim": sims}, indent=1) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
