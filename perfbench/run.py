"""homelog benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload plan_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics (see perfbench/README.md).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same figures for people,
the provenance of the run, and the details behind each figure.  A traced
run also writes its spans to perfbench/out/.

End-to-end timings are seconds at a fixed reference host speed: each op,
and each set-up, is scaled by a probe timed right before and after it
(see perfbench/hostspeed.py).  The raw clock readings are printed beside
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up in this fresh interpreter, print it and exit")
    return p.parse_args(argv)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(name: str, seed: int):
    """Import the package and build the workload's inputs.

    Returns the workload, the seconds taken from before `import homelog`
    to the last input built, and those seconds at the reference speed.
    """
    hostspeed.warm_up()
    before = statistics.median(hostspeed.probe() for _ in range(5))
    t0 = time.perf_counter()
    import homelog
    import workloads

    if not os.path.abspath(homelog.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"homelog was imported from {homelog.__file__}, not from {SRC}")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.build(name, seed)
    seconds = time.perf_counter() - t0
    after = statistics.median(hostspeed.probe() for _ in range(5))
    return workload, seconds, hostspeed.scale(seconds, before, after)


def probe_setup(name: str, seed: int) -> List[Tuple[float, float]]:
    """(scaled, raw) set-up seconds in SETUP_PROBES fresh interpreters,
    one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        scaled, raw = out.stdout.split()
        times.append((float(scaled), float(raw)))
    return times


def run_op(op, span) -> Tuple[str, float]:
    t = time.perf_counter()
    try:
        reason = op(span)
    except Exception as e:  # every error is a counted failure, not a crash
        reason = type(e).__name__
    return reason, time.perf_counter() - t


def untraced(name, **attrs):
    return nullcontext()


def run(workload, outcomes, seconds: float, tracer=None) -> Tuple[float, int]:
    """Run whole passes until `seconds` have passed; returns the wall time
    and the number of passes.  The host speed probe runs between ops."""
    start = time.perf_counter()
    passes = 0
    before = hostspeed.warm_up()
    while True:
        for i, op in enumerate(workload.ops):
            if tracer is None:
                reason, dt = run_op(op, untraced)
            else:
                tracer.op = passes * len(workload.ops) + i
                with tracer.span("op", kind=op.kind):
                    reason, dt = run_op(op, tracer.span)
                tracer.op = None
            after = hostspeed.probe()
            outcomes.add(reason, hostspeed.scale(dt, before, after), dt)
            before = after
        passes += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return wall, passes


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), 50.0, n // 2
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n, TAIL_BEYOND


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homelog", "__init__.py")):
        print(f"error: no package source at {SRC}/homelog; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        _, raw, scaled = setup(args.workload, args.seed)
        print(scaled, raw)
        return 0

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "client": "closed loop, 1 client, 1 process, 1 thread",
    }
    if args.trace:
        return traced_run(args, provenance)

    workload, _, _ = setup(args.workload, args.seed)
    from workloads import Outcomes

    outcomes = Outcomes(workload.limit_s)
    wall, passes = run(workload, outcomes, args.seconds)
    setups = probe_setup(args.workload, args.seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = outcomes.attempted - outcomes.n_failed
    n = len(outcomes.latencies)
    tail_s, tail_pct, beyond = tail(outcomes.latencies)
    raw_tail_s = tail(outcomes.raw_latencies)[0]
    raw_p50_s = statistics.median(outcomes.raw_latencies)
    raw_setup_s = statistics.median(raw for _, raw in setups)
    metrics = {
        "latency_p50_s": metric(statistics.median(outcomes.latencies), "s"),
        "latency_tail_s": metric(tail_s, "s"),
        "throughput_ops_s": metric(ok / outcomes.busy_s, "1/s"),
        "success_ratio": metric(ok / outcomes.attempted, "ratio"),
        "setup_s": metric(statistics.median(scaled for scaled, _ in setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "latency_p50_s": f"median of {n} ops; raw {raw_p50_s:.6g} s",
        "latency_tail_s": f"p{tail_pct:.2f} of {n} ops, {beyond} beyond; raw {raw_tail_s:.6g} s",
        "throughput_ops_s": f"{ok} ok ops in {outcomes.busy_s:.2f} s of ops; "
                            f"raw {ok / outcomes.raw_busy_s:.6g} 1/s",
        "success_ratio": f"fail_ratio {outcomes.n_failed / outcomes.attempted:.4f} "
                         f"({outcomes.n_failed} of {outcomes.attempted})",
        "setup_s": f"median of {len(setups)} fresh interpreters; raw {raw_setup_s:.6g} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    detail = {
        "ops_per_pass": len(workload.ops),
        "passes": passes,
        "wall_s": wall,
        "ops_s": outcomes.busy_s,
        "raw_ops_s": outcomes.raw_busy_s,
        "host_speed_reference_s": hostspeed.REFERENCE_S,
        "raw_latency_p50_s": raw_p50_s,
        "raw_latency_tail_s": raw_tail_s,
        "raw_throughput_ops_s": ok / outcomes.raw_busy_s,
        "raw_setup_s": raw_setup_s,
        "op_limit_s": workload.limit_s,
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
        "samples": len(outcomes.latencies),
        "fail_ratio": outcomes.n_failed / outcomes.attempted,
        "failures": outcomes.failed,
        "wrong_results": outcomes.wrong,
        "setup_probes_s": [scaled for scaled, _ in setups],
        "raw_setup_probes_s": [raw for _, raw in setups],
    }
    return report(provenance, detail, metrics, notes, outcomes, outcomes.wrong == 0)


def traced_run(args: argparse.Namespace, provenance: dict) -> int:
    """An untraced reference pass, then traced passes until the time is up."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()  # the knowledge-base parse in set-up is traced too
    try:
        workload, _, _ = setup(args.workload, args.seed)
    finally:
        tracer.uninstall()
    from workloads import Outcomes

    reference = Outcomes(workload.limit_s)
    run(workload, reference, 0.0)

    outcomes = Outcomes(workload.limit_s)
    tracer.install()
    try:
        wall, passes = run(workload, outcomes, args.seconds, tracer)
    finally:
        tracer.uninstall()
    metrics = {
        name: metric(value, unit)
        for name, (value, unit) in tracer.layer_metrics(outcomes.attempted).items()
    }
    # Clock time in ops, traced over untraced, for the same work.
    ratio = outcomes.raw_busy_s / passes / reference.raw_busy_s
    metrics["trace.overhead_ratio"] = metric(ratio, "ratio")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, provenance)
    detail = {
        "passes_traced": passes,
        "ops_traced": outcomes.attempted,
        "reference_pass_s": reference.raw_busy_s,
        "traced_wall_s": wall,
        "failures": outcomes.failed,
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(path, ROOT),
    }
    correct = reference.wrong == 0 and outcomes.wrong == 0
    return report(provenance, detail, metrics, {}, outcomes, correct)


def report(provenance, detail, metrics, notes, outcomes, correct: bool) -> int:
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
