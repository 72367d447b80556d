"""hvol benchmark: one workload, one process, one caller, a closed loop.

    python3 perfbench/run.py --workload ade-minimize --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` times whole rounds of operations until at least
``--seconds`` have passed and 100 operations are done, then prints the
end-to-end metrics, with every time at the reference speed of
``speed.py`` (the raw wall-clock figures are printed above them).  ``--trace 1``
runs the seed's first round four times, untraced and traced in turn,
asserts that every count repeats between the two traced passes, and
prints the per-layer metrics; the spans of the first traced pass go to
``perfbench/out/``.  The last line of stdout is the JSON result; the
lines before it are a readable summary.
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
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_OPS = 100  # ten samples beyond p90
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOADS = ("ade-minimize", "sweep-verify", "route-crosscheck")
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _import_hvol():
    if not (SRC / "hvol" / "__init__.py").is_file():
        sys.exit(f"error: no hvol sources under {SRC}")
    # every workload runs with one caller and HVOL_THREADS unset, whatever
    # the environment holds
    os.environ.pop("HVOL_THREADS", None)
    sys.path.insert(0, str(SRC))
    import hvol

    if Path(hvol.__file__).resolve().parent != SRC / "hvol":
        sys.exit(f"error: imported hvol from {hvol.__file__}, not from {SRC}")
    import workloads

    return workloads


def _run_op(op, workloads):
    """Time one operation from outside; return (ns, failed, wrong)."""
    start = time.perf_counter_ns()
    try:
        answer = op.run()
    except Exception as exc:  # noqa: BLE001 - only the known failure is not a wrong answer
        end = time.perf_counter_ns()
        if op.known_failure is not None and isinstance(exc, op.known_failure):
            return end - start, True, False
        print(f"wrong: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return end - start, True, True
    end = time.perf_counter_ns()
    try:
        op.check(answer)
    except workloads.WrongAnswer as exc:
        print(f"wrong: {op.label}: {exc}", file=sys.stderr)
        return end - start, True, True
    return end - start, False, False


def _setup(workload_name, seed):
    """Import, build the first round's inputs and run one untimed warm-up op."""
    workloads = _import_hvol()
    workload = workloads.WORKLOADS[workload_name]()
    first = workload.round_ops(seed, 0)
    _run_op(workload.warmup_op(), workloads)
    return workloads, workload, first


def _probe_setup(workload_name, seed) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first timed operation.

    Returns (raw, at reference speed).  The child samples the reference
    kernel when it starts and when it is set up, and reports both samples
    and the time they took, which is not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    words = line.split()
    if child.returncode != 0 or len(words) != 4 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed with code {child.returncode}")
    before, after, sampling = (float(w) for w in words[1:])
    raw = elapsed - sampling / 1e9
    return raw, speed.at_reference(raw, before, after)


def _caches():
    """Per-core cache sizes in bytes, keyed like "L2 Unified"."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        caches[f"L{level} {kind}"] = int(size.rstrip("KM")) * scale
    return caches


def _environment(caches, workload_record):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HVOL_THREADS": os.environ.get("HVOL_THREADS", "unset"),
        "load": "one process, one caller, closed loop",
        "workload": workload_record,
    }


def _timed(workload, seed, seconds, first, workloads):
    """Whole rounds until ``seconds`` and MIN_OPS.

    Returns the (raw ns, ns at reference speed) of each op, the kernel
    samples, the failed and wrong counts and the number of rounds.  The
    kernel is sampled between ops, never inside one.
    """
    timings, failed, wrong = [], 0, 0
    kernels = [speed.kernel_ns()]
    r, ops = 0, first
    start = time.perf_counter()
    while True:
        for op in ops:
            ns, op_failed, op_wrong = _run_op(op, workloads)
            kernels.append(speed.kernel_ns())
            timings.append((ns, speed.at_reference(ns, kernels[-2], kernels[-1])))
            failed += op_failed
            wrong += op_wrong
        r += 1
        if time.perf_counter() - start >= seconds and len(timings) >= MIN_OPS:
            break
        ops = workload.round_ops(seed, r)
    return timings, kernels, failed, wrong, r


def _e2e_metrics(times_ns, setups_s, failed, peak_rss_mb):
    # Harrell-Davis estimates: a weighted mean of the order statistics near
    # the quantile.  The operation mix is discrete, with gaps in its time
    # distribution; the plain sample median jumps across such a gap when
    # one operation's time moves, this estimate moves with it in proportion.
    from scipy.stats.mstats import hdquantiles

    p50, p90 = (float(q) / 1e6 for q in hdquantiles(times_ns, prob=(0.5, 0.9)))
    attempted = len(times_ns)
    return {
        "setup_s": statistics.median(setups_s),
        "throughput_ops_s": (attempted - failed) / (sum(times_ns) / 1e9),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def run_e2e(args):
    workloads, workload, first = _setup(args.workload, args.seed)
    timings, kernels, failed, wrong, rounds = _timed(workload, args.seed, args.seconds, first, workloads)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, setups_ref = zip(*(_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)))
    metrics = _e2e_metrics([t for _r, t in timings], setups_ref, failed, peak_rss_mb)
    raw = _e2e_metrics([r for r, _t in timings], setups, failed, peak_rss_mb)
    attempted = len(timings)
    caches = _caches()
    print(f"# {args.workload} seed={args.seed}: {attempted} ops in {rounds} rounds, "
          f"failed={failed} failed_ratio={failed / attempted:.4f} wrong={wrong}")
    print(f"# setup probes (s): raw {' '.join(f'{s:.4f}' for s in setups)}, "
          f"at reference speed {' '.join(f'{s:.4f}' for s in setups_ref)}")
    print(f"# reference kernel between ops: {len(kernels)} samples, median {statistics.median(kernels) / 1e6:.3f} ms, "
          f"range {min(kernels) / 1e6:.3f}..{max(kernels) / 1e6:.3f} ms, reference {speed.REFERENCE_KERNEL_MS} ms")
    print("# raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print("# env " + json.dumps(_environment(caches, workload.record(caches))))
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return wrong == 0, attempted, failed, {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()
    }


def run_traced(args):
    import tracer

    # one fixed round, so that the counts of a seed repeat
    workloads, _workload, ops = _setup(args.workload, args.seed)
    kernels = [speed.kernel_ns()]

    def one_pass():
        """((raw s, s at reference speed), failed, wrong) of one pass."""
        failed = wrong = 0
        start = time.perf_counter_ns()
        for op in ops:
            _ns, op_failed, op_wrong = _run_op(op, workloads)
            failed += op_failed
            wrong += op_wrong
        raw = (time.perf_counter_ns() - start) / 1e9
        kernels.append(speed.kernel_ns())
        return (raw, speed.at_reference(raw, kernels[-2], kernels[-1])), failed, wrong

    # untraced and traced passes alternate, and their times are taken at the
    # reference speed, so that neither a drift between passes nor the
    # machine's speed reads as tracing overhead
    n_ops = len(ops)
    untraced, traces, failures, wrong = [], [], set(), 0
    for _ in range(2):
        (_raw, seconds), failed, op_wrong = one_pass()
        untraced.append(seconds)
        with tracer.Tracer() as trace:
            traced_seconds, traced_failed, traced_wrong = one_pass()
        traces.append((trace, traced_seconds))
        failures |= {failed, traced_failed}
        wrong += op_wrong + traced_wrong
    if len(failures) != 1:
        raise RuntimeError("failures differ between passes of one seed")
    failed = failures.pop()
    overhead_s = statistics.mean(ref for _tr, (_raw, ref) in traces) - statistics.mean(untraced)
    passes = [
        (trace, tracer.layer_metrics(trace.spans, n_ops, overhead_s, ref / raw))
        for trace, (raw, ref) in traces
    ]
    counts = [tracer.count_metrics(m) for _t, m in passes]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        raise RuntimeError(f"counts differ between two traced passes of one seed: {diff}")
    trace, metrics = passes[0]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    trace.write(spans_path)
    print(f"# {args.workload} seed={args.seed}: {n_ops} ops per pass, "
          f"untraced {' '.join(f'{t:.3f}' for t in untraced)} s, "
          f"traced {' '.join(f'{ref:.3f}' for _tr, (_raw, ref) in traces)} s at reference speed, "
          f"{len(trace.spans)} spans -> {spans_path.relative_to(ROOT)}")
    print("# counts repeat exactly across the two traced passes")
    units = {m: u for m, u, _b in tracer.PER_LAYER}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return wrong == 0, n_ops, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        start = time.perf_counter_ns()
        before = speed.kernel_ns()
        sampling = time.perf_counter_ns() - start
        _setup(args.workload, args.seed)
        start = time.perf_counter_ns()
        after = speed.kernel_ns()
        sampling += time.perf_counter_ns() - start
        print(f"ready {before} {after} {sampling}", flush=True)
        return 0
    correct, attempted, failed, metrics = (run_traced if args.trace else run_e2e)(args)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
