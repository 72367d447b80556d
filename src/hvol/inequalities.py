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
  form min(x) <= x_i <= sum(x) holds for every positive weight) and a
  positive, sample-stable empirical infimum elsewhere.

One driver runs every sweep on integer numerators.  Each sampled
coordinate is p / 10^6 with p an integer in [10^3, 10^9]; the thm13, dfem
and proper margins have degree 0 in the weight, so their value at p is
their value at p / 10^6.  A chunk of draws (``_CHUNK`` of them, which
bounds a sweep's memory) is one coordinate-major (dim, count) int64 array,
so each per-draw min, sum or product is a few elementwise passes over rows
of length count.  ``_factors`` writes each suite's closed form once, as
(k, count) integer arrays with margin + offset = prod(num) / prod(den)
down each column, and computes nothing else.  A float64 key per column
passes on only the draws that can reach the chunk's minimum, and each
distinct column among them is evaluated exactly, in index order, so the
verdict is the first exact minimum, as if every draw had been exact
(``_sweep``).  A non-klt hypersurface weight (a factor 0) and every draw on
a model with no factor form (a toric cone, or pairings that can reach
2^53) take the public Fraction route instead, which raises
``NonKltWeightError`` where A <= 0; that route (``thm13_margin`` and
friends) must also reproduce the witness's margin exactly.  So the
identities behind each closed form are asserted against ``core``'s
formulas at every verdict's witness (and by the tests over many draws),
not on every draw.
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
    UnsupportedModelError, _sequence, a_singularity, as_integer, as_scalars,
)

_EXACT_TOL = Fraction(1, 10**12)
_STABILITY_BUDGET = 0.05
_LOW, _HIGH, _EDGE_MASS = Fraction(1, 1000), Fraction(1000), 0.3
_GRID = 10**6  # every sampled coordinate is p / _GRID, p a positive integer
_CEILING = int(_HIGH * _GRID)  # the largest numerator a draw can take
_CHUNK = 4096  # draws per array, which bounds a sweep's memory
_SEED = "seed must be an integer >= 0"


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
    dim = as_integer(dim, "a weight needs an integer dim >= 1", 1, DomainError)
    return _weight(next(_numerators(rng, 1, dim))[:, 0].tolist())


def skewness_s(weight: Sequence[Scalar]) -> int:
    """Integer skewness bracket max(2, ceil(x_max / x_min)) after normalizing v(m)=1."""
    x = as_scalars(weight, "weight")
    if not x or not all(0 < v < math.inf for v in x):  # NaN too
        raise DomainError(f"a weight needs coordinates, each positive and finite, got {weight!r}")
    x = [Fraction(v) for v in x]
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
    the verdict fails if any ratio drops below 1; the witness's ratio is
    recomputed exactly by ``proper_ratio``.
    """
    k_full, witness, k_half = _sweep("proper", model, samples, seed, doubled=True)
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
    """Run one named suite (or all of them) and return the verdicts.

    ``dims`` holds integers >= 1, or >= 2 for "proper" and "all", whose
    A-family models start at n = 2.
    """
    known = {"all", "thm13", "skew2", "dfem", "proper"}
    if suite not in known:
        raise DomainError(f"unknown suite {suite!r}; choose one of {sorted(known)}")
    least = 2 if suite in ("all", "proper") else 1
    message = f"dims must be integers >= {least} for suite {suite!r}"
    dims = _sequence(dims, "dims must be a sequence of integers", DomainError)
    dims = [as_integer(n, message, least, DomainError) for n in dims]
    seed = as_integer(seed, _SEED, 0, DomainError)
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


def _sweep(suite, model, samples, seed, doubled=False):
    """Worst margin of the sweep's draws, its witness, and the worst of the first ``samples``.

    The sweep draws ``samples`` weights, or twice as many if ``doubled``.  The
    float key prod(num / den) of a column of ``_factors``'s arrays is within
    relative error delta = ``_key_error`` of its exact product (NaN when a
    factor is 0), so the exact value of draw i lies within delta / (1 - delta)
    key_i of key_i, and only draws with key_i (1 - eta) <= min_j key_j (1 + eta)
    can hold the chunk's exact minimum; eta = 2 delta also covers the two
    roundings in forming those bounds (delta >= 6 * 2^-53).  These candidates,
    and every NaN-keyed draw, are evaluated exactly in index order, except a
    candidate whose (num, den) column repeats an earlier one of its chunk: its
    value is equal, so it is never a new strict minimum.  The first exact
    minimum is kept across chunks.  Each half of a doubled sweep is drawn as a
    stream of its own, which leaves the draws unchanged, so the first-half
    minimum is the running minimum after it.
    """
    as_integer(samples, "a sweep needs an integer number of samples >= 1", 1, DomainError)
    factors, offset = _factors(suite, model)
    eta = 2 * _key_error(model.ambient_dim)
    rng = np.random.default_rng(as_integer(seed, _SEED, 0, DomainError))
    best_num, best_den, best_q, worsts = 1, 0, None, []  # 1/0: above every value
    for _ in range(2 if doubled else 1):
        for p in _numerators(rng, samples, model.ambient_dim):
            if p.min() < 1 or p.max() > _CEILING:
                raise AssertionError(f"sampled numerators outside [1, {_CEILING}]")
            if factors is None:
                columns = ((q, None, None, False) for q in p.T.tolist())
            else:
                num, den = factors(p)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    key = np.prod(num / den, axis=0)
                    positive = key > 0  # else A <= 0 (a factor 0), or an underflow past _key_error's range
                    key = np.where(positive, key, np.nan)
                    low, high = key - eta * key, key + eta * key
                    reach = np.min(high, initial=np.inf, where=high == high)
                pick = ~(low > reach)  # the candidates; each is read as one column of p, num and den
                columns = zip(*(a[..., pick].T.tolist() for a in (p, num, den, positive)))
            seen = set()  # the chunk's (num, den) columns evaluated exactly
            for q, nums, dens, exact in columns:
                if exact:
                    if (pair := tuple(nums + dens)) in seen:
                        continue  # an equal exact value is never a new strict minimum
                    seen.add(pair)
                    num_q, den_q = math.prod(nums), math.prod(dens)
                else:  # the public route, which raises NonKltWeightError where A <= 0
                    num_q, den_q = (_ROUTES[suite](model, _weight(q)) + offset).as_integer_ratio()
                if num_q * best_den < best_num * den_q:
                    best_num, best_den, best_q = num_q, den_q, q
        worsts.append(Fraction(best_num, best_den) - offset)
    x = _weight(best_q)
    public = _ROUTES[suite](model, x)
    if public != worsts[-1]:
        raise InternalConsistencyError(f"{suite} at {x}: factor form {worsts[-1]}, Fraction route {public}")
    return worsts[-1], x, worsts[0]


def _numerators(rng, count, dim):
    """Numerators p (weight p / _GRID) of ``count`` draws, one (dim, count) int64 array per chunk.

    The draws are those of ``sample_weight``, which rounds Python's
    ``10.0**e * _GRID``: a chunk's uniforms are drawn as one (count, 2, dim)
    block, then transposed.  Here 10^e is ``np.exp(e ln 10)``: the roundings
    in e ln 10 (|e ln 10| < 7), the exp kernel and Python's ``pow`` keep the
    two scaled values within about 12 * 2^-52 of each other, relative, so
    their roundings can differ only that close to a half-integer.  Values
    within 2^-46 = 64 * 2^-52 of one (about 1 in 10^6) are redone in Python.
    """
    lo, hi = math.log10(float(_LOW)), math.log10(float(_HIGH))
    for start in range(0, count, _CHUNK):
        rolls, u = np.ascontiguousarray(rng.random((min(_CHUNK, count - start), 2, dim)).transpose(1, 2, 0))
        scaled = np.exp((lo + (hi - lo) * u) * math.log(10.0)) * _GRID
        p = np.rint(scaled)
        near = np.abs(np.abs(scaled - p) - 0.5) <= scaled * 2.0**-46
        p = p.astype(np.int64)
        if near.any():
            for i, j in zip(*np.nonzero(near)):
                p[i, j] = round(10.0 ** (lo + (hi - lo) * float(u[i, j])) * _GRID)
        p += (rolls < 2 * _EDGE_MASS) * (_CEILING - p)
        p += (rolls < _EDGE_MASS) * (int(_LOW * _GRID) - p)
        yield p


def _key_error(dim):
    """Relative error bound delta of a sweep key in ambient dimension ``dim``.

    A key is a product of at most dim + 2 quotients of integers in [1, 2^53),
    each exact in float64: at most 2 dim + 3 correctly rounded operations,
    so within gamma_{2 dim + 3} < (2 dim + 4) 2^-53 of its exact value.  Every
    factor lies in (2^-53, 2^53), so no partial product leaves the normal
    range while 53 (dim + 2) <= 1022; beyond that there is no bound.
    """
    return (2 * dim + 4) * 2.0**-53 if 53 * (dim + 2) <= 1022 else math.inf


def _factors(suite, model):
    """The factor form of ``suite`` on ``model``: ``(factors, offset)``.

    ``factors(p)`` maps a (dim, count) chunk of numerators to two int64
    arrays (num, den) of shape (k, count), k <= ambient dimension + 2, with
    margin + offset = prod(num) / prod(den) down every column.  Draws lie in
    [1, _CEILING], so every entry is below 2^53, and only a hypersurface's
    non-klt columns (A <= 0) hold entries <= 0, one of them 0, so that their
    float product is 0.  ``factors`` is None on toric cones and when a
    pairing can reach 2^53.  It checks nothing: each form is an identity on
    positive integers, and ``_sweep`` compares it with the suite's Fraction
    route at the witness.
    """
    n = model.dim
    if suite == "proper" and isinstance(model, Hypersurface):
        if max(model.ambient_dim, *map(sum, model.support)) * _CEILING >= 2**53:
            return None, 0
        support = np.array(model.support, dtype=np.int64)
        def factors(p):
            w = (support @ p).min(axis=0)
            a = p.sum(axis=0) - w
            # A^(n-1) w min(p) / prod(p), with w = 0 where A <= 0 (no factor is A at n = 1)
            return np.stack([a] * (n - 1) + [np.where(a > 0, w, 0), p.min(axis=0)]), p
        return factors, 0
    if suite == "proper" and not isinstance(model, SmoothPoint):
        return None, 0
    if not isinstance(model, SmoothPoint):
        raise UnsupportedModelError(f"the {suite} suite runs on smooth points, got {model!r}")
    if suite == "thm13":
        def factors(p):  # prod(top / p_i) over the middle of the sorted column
            s = np.sort(p, axis=0)
            return np.broadcast_to(s[-1], s[1:-1].shape), s[1:-1]
        return factors, Fraction(1, 2**n)
    if suite == "skew2":
        def factors(p):  # the empty product: vol * x_max * x_min = 1
            return p[:0], p[:0]
        return factors, 1
    if suite == "dfem":
        def factors(p):
            return np.broadcast_to(p.sum(axis=0), p.shape), n * p
        return factors, 1
    def factors(p):  # proper on a smooth point: A^(n-1) min(p) / prod(p)
        return np.stack([p.sum(axis=0)] * (n - 1) + [p.min(axis=0)]), p
    return factors, 0


def _weight(p):
    return tuple(Fraction(q, _GRID) for q in p)


def _verdict(name, samples, margin_exact, witness) -> InequalityVerdict:
    passed = bool(margin_exact >= -_EXACT_TOL)
    return InequalityVerdict(name, samples, float(margin_exact), (witness,), passed, margin_exact)
