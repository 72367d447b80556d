"""Check that an injected slowdown moves the scaled times as the raw times.

    python3 perfbench/check_scaling.py --workload sweep-verify --seed 1 [--rounds 3]

Takes the operations of the seed's first round, without the known
failures, and runs each of them in four variants, one after the other:
as is; twice in a row in this process, a single-process slowdown; as is
again, a control that shows the noise of the test; and twice at once in
two forked processes that keep both cores busy while this process waits,
the load of a sharded sweep.  Each variant is timed like an operation of
``run.py``, with the reference kernel of ``speed.py`` sampled just before
and just after it.

A variant's raw time and its time at reference speed differ by the factor
``REFERENCE_KERNEL_MS / kernel time``.  The scaling moves both times alike
when that factor does not depend on what the operation did.  So the tool
prints, for each variant, the geometric mean over all operations of its
factor over the plain variant's factor, and fails when one lies more than
``TOLERANCE`` from 1.  It also prints the summed times and their ratios to
the plain variant, raw and scaled.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
import time

import run
import speed

TOLERANCE = 0.05
FORK = multiprocessing.get_context("fork")


def _plain(op):
    op.run()


def _twice(op):
    op.run()
    op.run()


def _two_processes(op):
    workers = [FORK.Process(target=op.run) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if any(worker.exitcode != 0 for worker in workers):
        raise RuntimeError(f"{op.label}: a worker process failed")


VARIANTS = (
    ("plain", _plain),
    ("twice", _twice),
    ("plain again", _plain),
    ("two processes", _two_processes),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    _workloads, _workload, ops = run._setup(args.workload, args.seed)
    ops = [op for op in ops if op.known_failure is None]
    sums = {name: [0.0, 0.0] for name, _v in VARIANTS}
    log_factor = {name: 0.0 for name, _v in VARIANTS}
    kernel = speed.kernel_ns()
    for _ in range(args.rounds):
        for op in ops:
            factors = {}
            for name, variant in VARIANTS:
                start = time.perf_counter_ns()
                variant(op)
                raw = time.perf_counter_ns() - start
                after = speed.kernel_ns()
                scaled = speed.at_reference(raw, kernel, after)
                kernel = after
                sums[name][0] += raw
                sums[name][1] += scaled
                factors[name] = scaled / raw
            for name in factors:
                log_factor[name] += math.log(factors[name] / factors["plain"])
    n = args.rounds * len(ops)
    plain_raw, plain_ref = sums["plain"]
    ok = True
    for name, (raw, ref) in sums.items():
        factor = math.exp(log_factor[name] / n)
        agree = abs(factor - 1) <= TOLERANCE
        ok = ok and agree
        print(f"{args.workload} {name}: raw {raw / 1e9:.3f} s ({raw / plain_raw:.3f}x plain), "
              f"at reference speed {ref / 1e9:.3f} s ({ref / plain_ref:.3f}x plain), "
              f"factor over plain {factor:.4f} {'ok' if agree else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
