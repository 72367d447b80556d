"""The three benchmark workloads: their inputs, one operation, and its check.

Every workload is a list of rounds.  A round holds each of the workload's
items exactly once, so a run of whole rounds always has the same mix of
models and input sizes whatever the seed; the seed only shuffles the
order and draws the sweep seeds and the weight numerators.  ``round_ops(
seed, r)`` builds round ``r`` from ``(seed, r)`` alone, so the same seed
gives the same inputs.

An operation returns its answer; ``check`` raises ``WrongAnswer`` when the
answer is wrong.  An operation that raises is a wrong answer too, unless
the error is the operation's documented ``known_failure``: then it is
only a failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from hvol import CapacityError, core, fujita, inequalities, lattice, modelio, models, optimize, tables

# the rule `hvol table` uses to compare a minimizer row with the reference
TABLE_VALUE_RTOL = 1e-7
TABLE_WEIGHT_ATOL = 1e-6
# acceptance criterion 5: the oracle estimate lies within 2 % of the volume
ORACLE_RTOL = 0.02
# convexity_check's default grid; f_of_t is compared with the slope form on it
CONE_GRID = 101
# samples per sweep operation.  The properness suite also tests that its
# empirical infimum is stable under doubling the samples, which needs the
# first half to hit the worst corner of the sampler; at 300 samples that
# test failed for 4 of 200 seeds at n=4 and 6 of 40 at n=5, and at 1000
# samples for 2 of 100 seeds at n=5.  At those rates these counts put the
# chance of a failing verdict near 1e-5 per operation.
SWEEP_SAMPLES = 300
PROPER_SAMPLES = {2: 300, 3: 300, 4: 1000, 5: 3000}
# coin-table sizes: the table of a weight over denominator d has 1024 d
# int64 entries (largest default radius 512 x top coordinate 2, times d),
# so d from 100 to 18000 spans 1e5..1.8e7 entries: from inside a 2 MiB L2
# to beyond a 105 MiB LLC, and below lattice._SCALE_CAP = 2e7.  Model i of
# the round always gets rung 3i mod 11, so smooth, A, D and E
# models each get small and large tables, and every round (and so every
# run of whole rounds) has the same set of table sizes; the seed draws the
# numerators.
COIN_DENOMINATORS = tuple(round(100 * 180 ** (((3 * i) % 11) / 10)) for i in range(11))
COIN_ENTRIES = tuple(lattice.DEFAULT_RADIUS_MULTIPLIERS[-1] * 2 * d for d in COIN_DENOMINATORS)
TORIC_DENOMINATORS = (7, 4000, 60, 18000, 500)


class WrongAnswer(Exception):
    """An operation returned an answer its check rejects."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # the documented error this operation is known to raise at this commit
    known_failure: type[Exception] | None = None


def _expect(condition: bool, message: str):
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# ade-minimize


def _ade_models():
    items = []
    for n in range(2, 7):
        for k in range(1, 7):
            items.append(("A", n, k))
    for n in range(1, 6):
        for k in range(3, 7):
            items.append(("D", n, k))
    for family in ("E6", "E7", "E8"):
        for n in range(1, 6):
            items.append((family, n, None))
    out = [
        (f"{f} n={n}" + (f" k={k}" if k is not None else ""), "ade", tables.reference_model(f, n, k), (f, n, k))
        for f, n, k in items
    ]
    out += [(f"smooth n={n}", "smooth", models.SmoothPoint(n), n) for n in range(2, 7)]
    cones = [
        ("orthant rank 2", models.orthant_cone(2)),
        ("orthant rank 3", models.orthant_cone(3)),
        (
            "cone (1,0,0),(0,1,0),(1,1,3)",
            models.ToricCone(((1, 0, 0), (0, 1, 0), (1, 1, 3)), (1, 1, Fraction(-1, 3))),
        ),
    ]
    for label, cone in cones:
        centre = tuple(sum(g[i] for g in cone.generators) for i in range(cone.rank))
        out.append((label, "toric", cone, core.normalized_volume(cone, centre).normalized_volume))
    return out


def _ade_check(kind, ref):
    def check(result):
        _expect(result.status == "converged", f"status {result.status}")
        if kind == "smooth":
            _expect(result.value == ref**ref, f"value {result.value} != {ref}^{ref}")
        elif kind == "toric":
            _expect(result.value == ref, f"value {result.value} != {ref}")
        else:
            entry = tables.reference_entry(*ref)
            want = float(entry.value)
            _expect(abs(float(result.value) - want) <= TABLE_VALUE_RTOL * abs(want), "value deviates")
            got = [float(v) for v in result.weight]
            wanted = [float(v) for v in entry.normalized_weight()]
            _expect(
                len(got) == len(wanted)
                and all(abs(g - w) <= TABLE_WEIGHT_ATOL for g, w in zip(got, wanted)),
                "weight deviates",
            )

    return check


class AdeMinimize:
    name = "ade-minimize"

    def __init__(self):
        self.items = _ade_models()

    def _op(self, item, seed):
        label, kind, model, ref = item
        return Op(
            f"{label} seed={seed}",
            lambda: optimize.minimize_hvol(model, seed=seed),
            _ade_check(kind, ref),
        )

    def round_ops(self, seed, r):
        rng = np.random.default_rng([seed, r])
        # the minimizer seed is the round index, so every workload seed does
        # the same work and only the order differs
        return [self._op(self.items[i], r) for i in rng.permutation(len(self.items))]

    def warmup_op(self):
        return self._op(self.items[0], 0)

    def record(self, caches):
        kinds = [item[1] for item in self.items]
        return {
            "ops_per_round": len(self.items),
            "mix": {k: kinds.count(k) for k in ("ade", "smooth", "toric")},
            "toric_share": kinds.count("toric") / len(kinds),
        }


# ---------------------------------------------------------------------------
# sweep-verify


def _sweep_check(suite, n):
    def check(verdicts):
        _expect(all(v.passed for v in verdicts), "a verdict failed")
        if suite == "proper":
            _expect(len(verdicts) == 2, f"{len(verdicts)} verdicts")
            for verdict, model in zip(verdicts, (models.SmoothPoint(n), models.a_singularity(n, 2))):
                ratio = inequalities.proper_ratio(model, verdict.witnesses[0])
                _expect(float(ratio) == verdict.extra["k_hat"], f"{verdict.name}: k_hat")
            return
        _expect(len(verdicts) == 1, f"{len(verdicts)} verdicts")
        verdict = verdicts[0]
        witness = verdict.witnesses[0]
        if suite == "thm13":
            margin = inequalities.thm13_margin(models.SmoothPoint(n), witness)
        elif suite == "dfem":
            margin = inequalities.dfem_margin(models.SmoothPoint(n), witness)
        else:
            margin = inequalities.skew2_margin(witness)
        _expect(margin == verdict.min_margin_exact, f"{verdict.name}: margin")

    return check


class SweepVerify:
    name = "sweep-verify"

    def __init__(self):
        self.items = [(s, n) for n in range(2, 6) for s in ("thm13", "dfem", "proper")]
        self.items.append(("skew2", 2))

    def _op(self, item, seed):
        suite, n = item
        samples = PROPER_SAMPLES[n] if suite == "proper" else SWEEP_SAMPLES
        return Op(
            f"{suite} n={n} seed={seed}",
            lambda: inequalities.run_suite(suite, samples, seed, dims=(n,)),
            _sweep_check(suite, n),
        )

    def round_ops(self, seed, r):
        rng = np.random.default_rng([seed, r])
        seeds = rng.integers(0, 2**31, size=len(self.items))
        return [self._op(item, int(s)) for item, s in zip(self.items, seeds)]

    def warmup_op(self):
        return self._op(self.items[0], 0)

    def record(self, caches):
        suites = [s for s, _n in self.items]
        return {
            "ops_per_round": len(self.items),
            "samples_per_op": SWEEP_SAMPLES,
            "proper_samples_per_op": PROPER_SAMPLES,
            "mix": {s: suites.count(s) for s in ("thm13", "dfem", "proper", "skew2")},
            "models_reused": "SmoothPoint(2..5) and a_singularity(2..5, 2)",
        }


# ---------------------------------------------------------------------------
# route-crosscheck


def _route_models():
    coin = [(f"smooth n={n}", "smooth", models.SmoothPoint(n)) for n in range(2, 5)]
    coin += [
        (f"A n={n} k={k}", "hypersurface", models.a_singularity(n, k)) for n, k in ((2, 2), (2, 4), (3, 3))
    ]
    coin += [
        (f"D n={n} k={k}", "hypersurface", models.d_singularity(n, k)) for n, k in ((1, 4), (2, 3))
    ]
    coin += [(f"E{i} n=1", "hypersurface", models.e_singularity(i, 1)) for i in (6, 7, 8)]
    toric = [
        ("orthant rank 2", "toric2", models.orthant_cone(2)),
        ("cone (1,0),(1,2)", "toric2", models.ToricCone(((1, 0), (1, 2)), (1, 0))),
        ("cone (1,0),(1,3)", "toric2", models.ToricCone(((1, 0), (1, 3)), (1, 0))),
        ("orthant rank 3", "toric3", models.orthant_cone(3)),
        (
            "cone (1,0,0),(0,1,0),(1,1,3)",
            "toric3",
            models.ToricCone(((1, 0, 0), (0, 1, 0), (1, 1, 3)), (1, 1, Fraction(-1, 3))),
        ),
    ]
    cones = [(f"fujita {name}", "cone", cone) for name, cone in fujita.catalog().items()]
    doc = modelio.canonical_dict
    return (
        [(label, kind, doc(m)) for label, kind, m in coin],
        [(label, kind, doc(m), m.generators) for label, kind, m in toric],
        [(label, kind, doc(m)) for label, kind, m in cones],
    )


def _seeded_weight(rng, width, den):
    """Coordinates in [1, 2] over denominator ``den``, the largest pinned to 2.

    The coordinate after the pinned one gets a numerator prime to ``den``,
    so the common denominator, and with it the coin-table size, is exactly
    ``den``.
    """
    coords = [Fraction(int(rng.integers(den, 2 * den + 1)), den) for _ in range(width)]
    top = int(rng.integers(width))
    coords[top] = Fraction(2)
    while coords[(top + 1) % width].denominator != den:
        coords[(top + 1) % width] = Fraction(int(rng.integers(den, 2 * den + 1)), den)
    return tuple(coords)


def _singularity_op(label, doc, weight, known_failure=None):
    def run():
        model = modelio.model_from_dict(doc)
        report = core.normalized_volume(model, weight)
        series = lattice.estimate_volume(model, weight)
        return report, series

    def check(answer):
        report, series = answer
        vol = float(report.volume)
        _expect(abs(float(series.estimate) - vol) <= ORACLE_RTOL * vol, "estimate off by more than 2 %")

    return Op(label, run, check, known_failure)


def _cone_op(label, doc):
    def run():
        cone = modelio.model_from_dict(doc)
        return cone, fujita.eta(cone), fujita.phi_prime_zero(cone), fujita.convexity_check(cone)

    def check(answer):
        cone, eta, slope, convex = answer
        _expect(slope == cone.dim * eta, "phi'(0) != n * eta")
        _expect(convex, "f is not convex on the grid")
        for i in range(CONE_GRID):
            t = Fraction(i, CONE_GRID - 1)
            _expect(fujita.f_of_t(cone, t) == fujita.f_of_t_slope_form(cone, t), f"f({t}) routes differ")

    return Op(label, run, check)


class RouteCrosscheck:
    name = "route-crosscheck"

    def __init__(self):
        self.coin, self.toric, self.cones = _route_models()

    def round_ops(self, seed, r):
        rng = np.random.default_rng([seed, r])
        ops = []
        for (label, kind, doc), den in zip(self.coin, COIN_DENOMINATORS):
            width = doc["dim"] if kind == "smooth" else len(doc["support"][0])
            weight = _seeded_weight(rng, width, den)
            ops.append(_singularity_op(f"{label} x={weight}", doc, weight))
        for (label, kind, doc, gens), den in zip(self.toric, TORIC_DENOMINATORS):
            coeffs = _seeded_weight(rng, len(gens), den)
            weight = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(gens)))
            # every rank-3 toric operation raises CapacityError at the default radii
            known = CapacityError if kind == "toric3" else None
            ops.append(_singularity_op(f"{label} x={weight}", doc, weight, known))
        ops += [_cone_op(label, doc) for label, _kind, doc in self.cones]
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup_op(self):
        label, _kind, doc = self.coin[0]
        weight = (Fraction(3, 2), Fraction(2))
        return _singularity_op(label, doc, weight)

    def record(self, caches):
        kinds = [c[1] for c in self.coin] + [t[1] for t in self.toric] + ["cone"] * len(self.cones)
        total = len(kinds)
        l2 = caches.get("L2 Unified", 2 << 20) // 8
        llc = caches.get("L3 Unified", 105 << 20) // 8
        return {
            "ops_per_round": total,
            "mix": {k: kinds.count(k) for k in ("smooth", "hypersurface", "toric2", "toric3", "cone")},
            "toric_share": (kinds.count("toric2") + kinds.count("toric3")) / total,
            "rank3_toric_share": kinds.count("toric3") / total,
            "coin_denominators": list(COIN_DENOMINATORS),
            "coin_entries": {
                "min": min(COIN_ENTRIES),
                "max": max(COIN_ENTRIES),
                "l2_entries": l2,
                "llc_entries": llc,
                "share_within_l2": sum(e <= l2 for e in COIN_ENTRIES) / len(COIN_ENTRIES),
                "share_beyond_llc": sum(e > llc for e in COIN_ENTRIES) / len(COIN_ENTRIES),
            },
        }


WORKLOADS = {w.name: w for w in (AdeMinimize, SweepVerify, RouteCrosscheck)}
