#!/usr/bin/env python3
"""Host-time benchmark of the MemPool-3D reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), then starts one process per
repetition of the workload until S seconds have passed, so every repetition
pays the cold-start costs a `repro` invocation pays. Every repetition's
outputs are checked; a failed repetition counts in `failed` and none of its
numbers is reported.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over the
repetitions, with `wall_s` and `run_s` of the probed workloads scaled to
a reference host speed (see PROBE_EVERY_S below). --trace 1 alternates
untraced and traced repetitions and prints the per-layer metrics; the
spans go to perfbench/out/. The last stdout line is the JSON result; the
lines before it are a readable table.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("dense-full", "blocked-observed", "faulted-2w", "serve-mix")
SIMULATOR = ("dense-full", "blocked-observed", "faulted-2w")
TWO_WORKERS = ("dense-full", "faulted-2w")
# Requests in one serve-mix repetition (19 distinct requests, 6 times each).
SERVE_MIX_REQUESTS = 114
# One repetition may take this long before it is killed and counted failed.
REP_TIMEOUT_S = 120
# The host's speed drifts by a quarter and more within minutes. Before a
# repetition that starts PROBE_EVERY_S or more after the last probe, and
# once after the last repetition, an untraced run times `perfbench probe
# KIND` (three timings of a fixed loop that uses none of the repository's
# code) and scales `wall_s` and `run_s` in the result by PROBE_REFERENCE_S
# / (median probe timing of the run): seconds on a host where the probe
# takes PROBE_REFERENCE_S. The probe matches what bounds the workload's
# host time: `faulted-2w` waits at two barriers per simulated cycle, so it
# is timed against two threads meeting at barriers; `blocked-observed` and
# `serve-mix` against a single-thread compute loop. `dense-full` is not
# scaled: its two spinning workers followed neither probe, and scaling only
# added the probe's noise. `setup_s` (milliseconds) stays raw: scaling adds
# more noise than it removes.
PROBE_EVERY_S = 1.0
PROBE_REFERENCE_S = 0.15
PROBE_KIND = {"faulted-2w": "barrier", "blocked-observed": "compute", "serve-mix": "compute"}
SCALED = ("wall_s", "run_s")
UNITS = {
    "wall_s": "s", "setup_s": "s", "run_s": "s", "sim_ips": "1/s",
    "sim_cycles": "cycles", "ipc": "1/cycle", "peak_rss_mb": "MB",
    "failed_frac": "ratio", "serve_req_per_s": "1/s", "serve_p50_ms": "ms",
    "serve_p90_ms": "ms", "serve_cold_p50_ms": "ms",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    if subprocess.run(cmd, cwd=REPO, env=env, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    return target / "release" / "perfbench"


def rep(binary, workload, seed, index, *flags):
    """Runs one repetition in its own process; returns its record."""
    cmd = [str(binary), "rep", "--workload", workload, "--seed", str(seed),
           "--rep", str(index), *flags]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {REP_TIMEOUT_S} s", "flags": flags}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": tail[0], "flags": flags}
    record["wall_s"] = wall
    record["flags"] = flags
    if proc.returncode != 0:
        record["ok"] = False
    return record


def probe(binary, workload):
    """Times of the workload's host-speed probe, or None if it failed."""
    proc = subprocess.run([str(binary), "probe", PROBE_KIND[workload]],
                          capture_output=True, text=True, timeout=60)
    try:
        return [float(t) for t in proc.stdout.split()] or None
    except ValueError:
        return None


def check(workload, records):
    """Cross-repetition checks; marks records that disagree with the first
    good one as failed. Returns the error messages."""
    errors = []
    first = None
    for r in records:
        if r.get("ok") and r.get("peak_rss_mb") is None:
            r["ok"], r["error"] = False, "no peak RSS reading"
        if r.get("ok") and workload == "serve-mix" and r["failed_requests"]:
            r["ok"] = False
            r["error"] = f"{r['failed_requests']} failed requests: {r['failures'][:3]}"
        if not r.get("ok"):
            errors.append(r.get("error", "failed"))
            continue
        if workload not in SIMULATOR:
            continue
        key = {k: r.get(k) for k in ("digest", "sim_cycles", "memory_cycles", "compute_cycles")}
        if first is None:
            first = key
        elif key != first:
            r["ok"] = False
            r["error"] = f"repetition disagrees with the first one: {key} != {first}"
            errors.append(r["error"])
    return errors


def median(xs):
    return statistics.median(xs) if xs else None


def counts(workload, records):
    """(attempted, failed) repetitions, or requests for serve-mix."""
    if workload != "serve-mix":
        return len(records), sum(not r.get("ok") for r in records)
    attempted = failed = 0
    for r in records:
        n = r.get("requests", SERVE_MIX_REQUESTS)
        attempted += n
        failed += n if not r.get("ok") else 0
    return attempted, failed


def e2e(workload, records):
    """The twelve end-to-end metrics of the README, from passing untraced
    repetitions: {name: (value or None, samples)}."""
    good = [r for r in records if r.get("ok")]
    attempted, failed = counts(workload, records)
    m = {
        "wall_s": (median([r["wall_s"] for r in good]), len(good)),
        "setup_s": (median([r["setup_s"] for r in good]), len(good)),
        "run_s": (median([r["run_s"] for r in good]), len(good)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in good]), len(good)),
        "failed_frac": (failed / attempted if attempted else None, attempted),
    }
    if workload in SIMULATOR:
        m["sim_ips"] = (median([r["retired"] / r["run_s"] for r in good]), len(good))
        m["sim_cycles"] = (good[0]["sim_cycles"] if good else None, len(good))
        m["ipc"] = (good[0]["ipc"] if good else None, len(good))
    else:
        latencies = [x for r in good for x in r["latency_ms"]]
        cold = [x for r in good for x in r["cold_ms"]]
        m["serve_req_per_s"] = (median([r["requests"] / r["run_s"] for r in good]), len(good))
        m["serve_p50_ms"] = (median(latencies), len(latencies))
        # p90 is reported only with at least ten samples beyond it.
        p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 100 else None
        m["serve_p90_ms"] = (p90, len(latencies))
        m["serve_cold_p50_ms"] = (median(cold), len(cold))
    return m


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per-layer self time (seconds) of one repetition's spans: each span's
    duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    per_layer = {}
    for s in spans:
        kids = [(max(a, s["start_ns"]), min(b, s["end_ns"])) for a, b in children.get(s["id"], [])]
        own = (s["end_ns"] - s["start_ns"]) - covered([k for k in kids if k[1] > k[0]])
        per_layer[s["layer"]] = per_layer.get(s["layer"], 0.0) + own * 1e-9
    return per_layer


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def untraced(binary, args):
    """Repetitions until the time is up, with host-speed probes (see
    PROBE_EVERY_S) if the workload is scaled; returns the records, the
    probe times and the errors."""
    records, probes = [], []
    scaled = args.workload in PROBE_KIND
    start = time.perf_counter()
    last_probe = None
    while not records or time.perf_counter() - start < args.seconds:
        if scaled and (last_probe is None or time.perf_counter() - last_probe >= PROBE_EVERY_S):
            probes.append(probe(binary, args.workload))
            last_probe = time.perf_counter()
        records.append(rep(binary, args.workload, args.seed, len(records)))
    if scaled:
        probes.append(probe(binary, args.workload))
    errors = check(args.workload, records)
    if None in probes:
        errors.append("the host-speed probe failed")
    return records, [t for p in probes if p is not None for t in p], errors


def traced(binary, args):
    """Rounds of (untraced, traced[, bare]) repetitions; then, on
    dense-full, one single-worker repetition whose digest must match."""
    plain, spanned, bare = [], [], []
    start = time.perf_counter()
    index = 0
    while not spanned or time.perf_counter() - start < args.seconds:
        plain.append(rep(binary, args.workload, args.seed, index))
        spanned.append(rep(binary, args.workload, args.seed, index, "--trace"))
        if args.workload == "blocked-observed":
            bare.append(rep(binary, args.workload, args.seed, index, "--bare"))
        index += 1
    single = []
    if args.workload == "dense-full":
        single.append(rep(binary, args.workload, args.seed, index, "--workers", "1"))
    errors = check(args.workload, plain + spanned + single)
    errors += check(args.workload, bare)
    return plain, spanned, bare, single, errors


def layer_metrics(workload, plain, spanned, bare, spec):
    good = [r for r in spanned if r.get("ok")]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        xs = [r["layer"][name] for r in good if name in r.get("layer", {})]
        values[name] = median(xs) if xs else 0.0
    per_rep_self = [self_times(r.get("spans", [])) for r in good]
    for m in spec["per_layer"]:
        if m["name"].startswith("self_s."):
            layer = m["name"][len("self_s."):]
            values[m["name"]] = median([s.get(layer, 0.0) for s in per_rep_self]) or 0.0
    plain_good = [r for r in plain if r.get("ok")]
    if good and plain_good:
        values["trace.overhead"] = (median([r["wall_s"] for r in good])
                                    / median([r["wall_s"] for r in plain_good]))
    bare_good = [r for r in bare if r.get("ok")]
    if bare_good and plain_good:
        values["obs.overhead"] = (median([r["run_s"] for r in plain_good])
                                  / median([r["run_s"] for r in bare_good]))
    for name, (value, _) in e2e(workload, plain).items():
        if name in values:
            values[name] = value if value is not None else 0.0
    return values, per_rep_self


def gates(workload, values, measured):
    """The engine-profile checks of the traced run. (Each repetition checks
    its own fault retries and observation exports.)"""
    errors = []
    if workload == "dense-full" and measured and values["engine.quanta"] <= 0:
        errors.append("dense-full ran on 2 workers but the quantum engine profiled nothing")
    if workload in ("blocked-observed", "serve-mix"):
        nonzero = [k for k, v in values.items() if k.startswith("engine.") and v != 0]
        if nonzero:
            errors.append(f"engine profile leaked into {workload}: {nonzero}")
    return errors


def claims(binary):
    proc = subprocess.run([str(binary), "claims"], capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def host_line(args, records):
    """Host nproc, the effective worker counts of the workload's own
    repetitions (not the single-worker comparison leg), and whether a
    two-worker workload really got two workers."""
    nproc = next((r["nproc"] for r in records if "nproc" in r), os.cpu_count())
    workers = sorted({r["effective_workers"] for r in records
                      if r.get("ok") and "effective_workers" in r
                      and "--workers" not in r.get("flags", ())})
    measured = not (args.workload in TWO_WORKERS and workers and min(workers) < 2)
    return nproc, workers, measured


def print_e2e_table(args, metrics, nproc, workers, measured, scoreboard, scale=None):
    print(f"workload {args.workload}  seed {args.seed}  host nproc {nproc}  "
          f"effective workers {workers or 'n/a'}")
    if scale is not None:
        print(f"host-speed scale {scale:.4f} ({PROBE_KIND[args.workload]} probe reference "
              f"{PROBE_REFERENCE_S} s over the run's median probe); raw host times below, "
              "scaled wall_s and run_s in the result")
    if not measured:
        print(f"NOT MEASURED: {args.workload} needs 2 effective workers, got {min(workers)}; "
              "its host times here describe a single-worker run")
    for name in UNITS:
        value, n = metrics.get(name, (None, 0))
        extra = f"  (paper claims holding: {scoreboard})" if name == "sim_cycles" else ""
        print(f"  {name:<18} {fmt(value):>14} {UNITS[name]:<8} n={n}{extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path.name} not found at the repository root")
    spec = json.loads(spec_path.read_text())
    binary = build()
    OUT.mkdir(exist_ok=True)
    scoreboard = claims(binary)

    if args.trace == 0:
        records, probes, errors = untraced(binary, args)
        metrics = e2e(args.workload, records)
        scale = PROBE_REFERENCE_S / median(probes) if probes else None
        nproc, workers, measured = host_line(args, records)
        print_e2e_table(args, metrics, nproc, workers, measured, scoreboard, scale)
        attempted, failed = counts(args.workload, records)
        result = {}
        for m in spec["end_to_end"]:
            value = metrics[m["name"]][0]
            if m["name"] in SCALED and value is not None and scale is not None:
                value *= scale
            result[m["name"]] = {"value": value, "unit": m["unit"]}
        report = {"reps": [{k: v for k, v in r.items() if k not in ("latency_ms", "cold_ms")}
                           for r in records],
                  "probes_s": probes, "scale": scale,
                  "raw": {k: v for k, (v, _) in metrics.items()}}
    else:
        plain, spanned, bare, single, errors = traced(binary, args)
        records = plain + spanned + bare + single
        values, per_rep_self = layer_metrics(args.workload, plain, spanned, bare, spec)
        nproc, workers, measured = host_line(args, records)
        if not errors:
            errors += gates(args.workload, values, measured)
        print_e2e_table(args, e2e(args.workload, plain), nproc, workers, measured, scoreboard)
        for m in spec["per_layer"]:
            print(f"  {m['name']:<28} {fmt(values[m['name']]):>14} {m['unit']}")
        attempted, failed = counts(args.workload, records)
        result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                  for m in spec["per_layer"]}
        spans = [dict(s, rep=i) for i, r in enumerate(spanned) for s in r.get("spans", [])]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": spans,
             "self_s": per_rep_self, "per_layer": values}, indent=1) + "\n")
        report = {"reps": [{k: v for k, v in r.items()
                            if k not in ("latency_ms", "cold_ms", "spans")} for r in records]}
    correct = not errors and attempted > 0 and failed == 0
    if not correct:
        result = {k: {"value": None, "unit": v["unit"]} for k, v in result.items()}
    for e in errors[:5]:
        print(f"FAILED: {e}")
    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "host_nproc": nproc, "effective_workers": workers,
                   "engine_measured": measured, "claims": scoreboard,
                   "errors": errors, "metrics": result})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
