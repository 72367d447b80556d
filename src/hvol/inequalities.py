"""Property suites for the volume estimates, swept over seeded weights.

Quantifiers over all valuations are tested on the monomial family only,
the one family with computable closed forms here; the suite reports carry
that restriction in their names.  Sweeps are seeded and deterministic:
sample weights are exact rationals drawn log-uniformly from a fixed box,
margins are computed in exact arithmetic, and every verdict keeps its
worst-case witnesses so the reported margin can be re-derived exactly.

Checks:

* ``thm13`` -- the skewness properness bound on smooth points:
  vol * (max x)^{n-1} * (min x) >= 2^{-n}, through the sharper product
  identity prod_{middle i} (x_max / x_i) >= 1.
* ``skew2`` -- the dimension-2 identity vol = 1 / (x_max * x_min), exact.
* ``dfem`` -- the multiplicity bound: normalized volume >= n^n on smooth
  points, with equality only on the diagonal.
* ``proper`` -- the properness ratio hvol * v(m) / A: per-sample >= 1 on
  smooth points (the displayed chain with constant 1, whose coordinate
  form min(x) <= x_i <= sum(x) is asserted on every sample) and a
  positive, sample-stable empirical infimum elsewhere.

One driver runs every sweep on integer numerators.  Each sampled
coordinate is p / 10^6 with p a positive integer, and the thm13, dfem and
proper margins have degree 0 in the weight, so their value at p is their
value at p / 10^6 (the skew2 defect, of degree -2, is rescaled by 10^12).
A sample costs a few integer sums, minima, products and (on
hypersurfaces) support pairings; minima compare by cross-multiplying.
Only the witness becomes Fractions, and the public Fraction route
(``thm13_margin`` and friends) must reproduce its margin exactly.  Toric
cones have no integer kernel and take ``proper_ratio`` on every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import core
from .exact import Scalar
from .models import (
    DomainError, Hypersurface, InternalConsistencyError, Model, SmoothPoint,
    UnsupportedModelError, a_singularity,
)

_EXACT_TOL = Fraction(1, 10**12)
_STABILITY_BUDGET = 0.05
_LOW, _HIGH, _EDGE_MASS = Fraction(1, 1000), Fraction(1000), 0.3
_GRID = 10**6  # every sampled coordinate is p / _GRID, p a positive integer
_CHUNK = 4096  # draws per generator call, which bounds a sweep's memory


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of one property sweep.

    ``min_margin`` is the worst slack seen (LHS - RHS or ratio - 1,
    depending on the check); ``witnesses`` are the weights attaining it,
    kept exact so the margin can be recomputed bit for bit.  ``extra``
    carries check-specific numbers such as the empirical properness
    constant.
    """

    name: str
    samples: int
    min_margin: float
    witnesses: tuple[tuple[Scalar, ...], ...]
    passed: bool
    min_margin_exact: Optional[Fraction] = None
    extra: dict = field(default_factory=dict)


def sample_weight(rng: np.random.Generator, dim: int) -> tuple[Fraction, ...]:
    """One exact rational weight with corner-stressed coordinates.

    Each coordinate sits at the box edge 1/1000 or 1000 with probability
    0.3 apiece, and is otherwise log-uniform over the box, rounded to a
    multiple of 10^-6.  The atoms make every box corner a near-certain hit,
    so empirical infima saturate at the box minimum instead of creeping
    with the sample count; the continuum keeps the interior covered.
    """
    return _weight(next(_numerators(rng, 1, dim)))


def skewness_s(weight: Sequence[Scalar]) -> int:
    """Integer skewness bracket max(2, ceil(x_max / x_min)) after normalizing v(m)=1."""
    x = [Fraction(v) if not isinstance(v, Fraction) else v for v in weight]
    if any(not v > 0 for v in x):
        raise DomainError("weights must be positive")
    sup = max(x) / min(x)
    s = max(2, math.ceil(sup))
    if s > 2 * sup:
        raise AssertionError("the integer bracket exceeded twice the skewness")
    return s


# ---------------------------------------------------------------------------
# per-sample margins (public so that verdict witnesses can be re-evaluated)


def thm13_margin(model: SmoothPoint, weight) -> Fraction:
    """Slack of the skewness properness bound: LHS - 2^{-n}.

    The left side vol * (max x)^{n-1} * (min x) collapses exactly to the
    product of (x_max / x_i) over the middle coordinates, which is at
    least 1; both the collapse and the sharper product bound are asserted
    here, and the returned margin is against the theorem's own constant.
    """
    x = sorted(core.check_weight_exact(model, weight))
    n = model.dim
    vol = core.volume(model, x)
    lhs = vol * x[-1] ** (n - 1) * x[0]
    product = Fraction(1)
    for xi in x[1:-1]:
        product *= x[-1] / xi
    if lhs != product:
        raise AssertionError("closed form and product form disagree")
    if product < 1:
        raise AssertionError("the product of max-coordinate ratios dropped below 1")
    return lhs - Fraction(1, 2**n)


def skew2_margin(weight) -> Fraction:
    """Negated absolute defect of the dimension-2 identity (0 exactly)."""
    model = SmoothPoint(2)
    x = core.check_weight_exact(model, weight)
    vol = core.volume(model, x)
    return -abs(vol - 1 / (max(x) * min(x)))


def dfem_margin(model: SmoothPoint, weight) -> Fraction:
    """Normalized-volume slack over the smooth minimum: hvol / n^n - 1."""
    x = core.check_weight_exact(model, weight)
    hvol = core.normalized_volume(model, x).normalized_volume
    return hvol / Fraction(model.dim) ** model.dim - 1


def proper_ratio(model: Model, weight) -> Fraction:
    """The properness ratio hvol * v(m) / A at one weight."""
    report = core.normalized_volume(model, weight)
    return report.normalized_volume * report.ideal_value / report.log_discrepancy


# ---------------------------------------------------------------------------
# sweeps


def check_theorem13(model: SmoothPoint, samples: int = 10**4, seed: int = 0) -> InequalityVerdict:
    return _verdict(f"thm13-smooth-n{model.dim}", samples, *_sweep("thm13", model, samples, seed)[:2])


def check_skewness_identity_dim2(samples: int = 10**3, seed: int = 0) -> InequalityVerdict:
    return _verdict("skew2-identity", samples, *_sweep("skew2", SmoothPoint(2), samples, seed)[:2])


def check_dfem(model: SmoothPoint, samples: int = 10**4, seed: int = 0) -> InequalityVerdict:
    return _verdict(f"dfem-smooth-n{model.dim}", samples, *_sweep("dfem", model, samples, seed)[:2])


def check_properness_ratio(model: Model, samples: int = 10**4, seed: int = 0) -> InequalityVerdict:
    """Empirical properness constant and its stability under sample doubling.

    Draws 2 * samples weights; the infimum over the first half against the
    infimum over all of them measures stability (the full infimum can only
    be lower).  On smooth models the margin is also at most k_hat - 1, so
    the verdict fails if any ratio drops below 1, and the coordinate chain
    min(x) <= x_i <= sum(x) is asserted exactly on every sample.
    """
    k_full, witness, k_half = _sweep("proper", model, 2 * samples, seed, half=samples)
    drift = float((k_half - k_full) / k_half) if k_half > 0 else math.inf
    slack = Fraction(_STABILITY_BUDGET) - Fraction(drift).limit_denominator(10**9)
    smooth = isinstance(model, SmoothPoint)
    name = f"proper-smooth-n{model.dim}" if smooth else f"proper-hypersurface-dim{model.dim}"
    verdict = _verdict(name, 2 * samples, min(k_full - 1 if smooth else k_full, slack), witness)
    verdict.extra.update({"k_hat": float(k_full), "k_hat_half_sample": float(k_half), "drift": drift})
    return verdict


def run_suite(
    suite: str = "all",
    samples: int = 10**4,
    seed: int = 20260810,
    dims: Sequence[int] = (2, 3, 4, 5),
) -> list[InequalityVerdict]:
    """Run one named suite (or all of them) and return the verdicts."""
    known = {"all", "thm13", "skew2", "dfem", "proper"}
    if suite not in known:
        raise DomainError(f"unknown suite {suite!r}; choose one of {sorted(known)}")
    verdicts: list[InequalityVerdict] = []
    if suite in ("all", "thm13"):
        verdicts += [check_theorem13(SmoothPoint(n), samples, seed + n) for n in dims]
    if suite in ("all", "skew2"):
        verdicts.append(check_skewness_identity_dim2(samples, seed))
    if suite in ("all", "dfem"):
        verdicts += [check_dfem(SmoothPoint(n), samples, seed + 10 * n) for n in dims]
    if suite in ("all", "proper"):
        verdicts += [check_properness_ratio(SmoothPoint(n), samples, seed + 100 * n) for n in dims]
        verdicts += [check_properness_ratio(a_singularity(n, 2), samples, seed + 1000 * n) for n in dims]
    return verdicts


# the public Fraction route of each suite, which re-derives the witness's margin
_ROUTES = {"thm13": thm13_margin, "skew2": lambda _model, x: skew2_margin(x),
           "dfem": dfem_margin, "proper": proper_ratio}


def _sweep(suite, model, count, seed, half=None):
    """Worst margin of ``count`` seeded draws, its witness, and the worst of the first ``half``."""
    if count < 1:
        raise DomainError(f"a sweep needs at least one sample, got {count}")
    margin = _kernel(suite, model)
    best_num = best_den = witness = half_worst = None
    for i, p in enumerate(_numerators(np.random.default_rng(seed), count, model.ambient_dim)):
        if min(p) < 1:
            raise AssertionError(f"sampled numerators {p} are not positive")
        num, den = margin(p)
        if witness is None or num * best_den < best_num * den:
            best_num, best_den, witness = num, den, p
        if i + 1 == half:
            half_worst = Fraction(best_num, best_den)
    worst, x = Fraction(best_num, best_den), _weight(witness)
    public = _ROUTES[suite](model, x)
    if public != worst:
        raise InternalConsistencyError(f"{suite} at {x}: kernel {worst}, Fraction route {public}")
    return worst, x, half_worst


def _numerators(rng, count, dim):
    """Numerators p (weight p / _GRID) of ``count`` successive draws; see ``sample_weight``."""
    lo, hi = math.log10(float(_LOW)), math.log10(float(_HIGH))
    edges = (int(_LOW * _GRID), int(_HIGH * _GRID))
    for start in range(0, count, _CHUNK):
        u = rng.random((min(_CHUNK, count - start), 2, dim))
        exps = lo + (hi - lo) * u[:, 1]
        for rolls, es in zip(u[:, 0].tolist(), exps.tolist()):
            yield tuple(
                edges[0] if r < _EDGE_MASS else edges[1] if r < 2 * _EDGE_MASS
                else round(10.0**e * _GRID)
                for r, e in zip(rolls, es)
            )


def _kernel(suite, model):
    """The margin of ``suite`` at weight p / _GRID as an integer pair (num, den > 0) of p."""
    n = model.dim
    if suite == "proper" and isinstance(model, Hypersurface):
        rows = [tuple((i, e) for i, e in enumerate(row) if e) for row in model.support]
        def margin(p):
            w = min(sum(e * p[i] for i, e in row) for row in rows)
            a = sum(p) - w
            if a <= 0:  # the public route raises NonKltWeightError
                return proper_ratio(model, _weight(p)).as_integer_ratio()
            return a ** (n - 1) * w * min(p), math.prod(p)
        return margin
    if suite == "proper" and not isinstance(model, SmoothPoint):
        return lambda p: proper_ratio(model, _weight(p)).as_integer_ratio()
    if not isinstance(model, SmoothPoint):
        raise UnsupportedModelError(f"the {suite} suite runs on smooth points, got {model!r}")
    if suite == "thm13":
        def margin(p):
            s = sorted(p)
            lead, middle = s[-1] ** len(s[1:-1]), math.prod(s[1:-1])
            # vol * top^(n-1) * low against prod(top / p_i) over the middle
            if s[-1] ** (n - 1) * s[0] * middle != lead * math.prod(p):
                raise AssertionError("closed form and product form disagree")
            if lead < middle:
                raise AssertionError("the product of max-coordinate ratios dropped below 1")
            return 2**n * lead - middle, 2**n * middle
    elif suite == "skew2":
        def margin(p):
            low, top, prod = min(p), max(p), p[0] * p[1]
            return -_GRID**2 * abs(top * low - prod), prod * top * low
    elif suite == "dfem":
        def margin(p):
            prod = n**n * math.prod(p)
            return sum(p) ** n - prod, prod
    else:  # proper on a smooth point
        def margin(p):
            total, low = sum(p), min(p)
            # order-valuation comparison: min(x) <= v_x(z_i) = x_i <= sum(x) = A
            if not all(low <= q <= total for q in p):
                raise AssertionError("coordinate chain violated")
            return total ** (n - 1) * low, math.prod(p)
    return margin


def _weight(p):
    return tuple(Fraction(q, _GRID) for q in p)


def _verdict(name, samples, margin_exact, witness) -> InequalityVerdict:
    passed = bool(margin_exact >= -_EXACT_TOL)
    return InequalityVerdict(name, samples, float(margin_exact), (witness,), passed, margin_exact)
