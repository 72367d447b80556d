"""Lattice-point colength oracle for volumes of monomial valuations.

The volume of a valuation is the limit of n! * dim(R/a_r) / r^n, where
a_r collects the elements of value at least r.  For monomial valuations
the colength is a lattice count, and every model kind writes it as a
signed sum of coin counts #{ t in Z^k_{>=0} : <c, t> < r - s } with
coins c and shifts s:

* smooth n-space: #{ e in Z^n_{>=0} : <x, e> < r }, one unshifted term
  with coins x.
* hypersurface { f = 0 }: #{ <x,e> < r } - #{ <x,e> < r - v_x(f) } in the
  ambient space, the unshifted term minus the term shifted by v_x(f).
  This is an asymptotic surrogate: its leading term matches dim(R/a_r),
  which is all the volume limit sees.
* simplicial toric cone: #{ y in (dual cone) cap Z^n : <y, x> < r }.  Every
  such y is p + sum t_i w_i, with w_i the primitive dual rays, t >= 0 an
  integer vector and p one of the |det W| lattice points of the half-open
  parallelepiped the w_i span (Beck-Robins, *Computing the Continuous
  Discretely*, ch. 3).  The count is one term per p, with coins <w_i, x>
  and shift <p, x>.

Counts are exact.  Coins and radii are cleared to a common integer scale
(counts are invariant under simultaneous rescaling of coins and radius),
and one cumulative coin table at the largest scaled radius serves every
radius and shift of a schedule, so the counting capacity is bounded by
the scaled radius only.  The cumulative count over n coins is the series
1 / ((1 - z) prod (1 - z^a_i)); each factor is one running-sum pass and
the passes commute, so the table starts as the closed-form one-coin count
floor(s / a_min) + 1 of the smallest coin, takes one pass for each of the
n - 2 middle coins, and the largest coin is never a pass: each bound
reads a strided sum of the table at steps of that coin.  A pass loops
over the shorter side of a (rows, coin) view of the table: whole
contiguous rows added in order when rows <= coin (at most sqrt(top + 1)
iterations for a table of top + 1 entries), one column cumsum otherwise.
With one or two coins no table is built: the count is a closed form or a
floor sum, a few integer operations per bound.  The estimates here never
consult the closed forms in ``core``; they are the independent check on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import Scalar, as_scalar, common_denominator
from .models import (
    CapacityError,
    DomainError,
    Hypersurface,
    Model,
    SmoothPoint,
    ToricCone,
    UnsupportedModelError,
    check_weight,
)
from .core import weighted_order

_COUNT_CAP = 1 << 62
_SCALE_CAP = 20_000_000

#: multipliers of max(x) for the default radii schedule: eight geometric
#: steps from 16 to 512, rounded to integers.
DEFAULT_RADIUS_MULTIPLIERS = tuple(round(16 * 2 ** (5 * j / 7)) for j in range(8))


@dataclass(frozen=True)
class ColengthSeries:
    """Colengths and volume estimates along an increasing radius schedule."""

    radii: tuple[Scalar, ...]
    colengths: tuple[int, ...]
    vol_estimates: tuple[Scalar, ...]

    @property
    def estimate(self) -> Scalar:
        """The oracle's volume estimate: the last (largest-radius) entry."""
        return self.vol_estimates[-1]


def default_radii(model: Model, weight: Sequence[Scalar]) -> tuple[Scalar, ...]:
    x = check_weight(model, weight)
    top = max(abs(v) for v in x) if isinstance(model, ToricCone) else max(x)
    return tuple(m * top for m in DEFAULT_RADIUS_MULTIPLIERS)


def colength_smooth(n: int, weight: Sequence[Scalar], radius) -> int:
    """Exact #{ e in Z^n_{>=0} : <x, e> < r }."""
    return colength(SmoothPoint(n), weight, radius)


def colength_hypersurface(model: Hypersurface, weight: Sequence[Scalar], radius) -> int:
    """Inclusion-exclusion ambient count whose leading term is dim(R/a_r)."""
    return colength(model, weight, radius)


def colength_toric(model: ToricCone, weight: Sequence[Scalar], radius) -> int:
    """Exact #{ y in dual-cone lattice : <y, x> < r }."""
    return colength(model, weight, radius)


def colength(model: Model, weight: Sequence[Scalar], radius) -> int:
    x = check_weight(model, weight)  # for toric models the interior check keeps the count finite
    r = as_scalar(radius)
    if not r > 0:
        return 0
    return _schedule_counts(model, x, [r])[0]


def estimate_volume(
    model: Model, weight: Sequence[Scalar], radii: Optional[Sequence] = None
) -> ColengthSeries:
    """Volume estimates n! * colength / r^n along a radius schedule.

    The exponent n is the intrinsic dimension of the germ, so for a
    hypersurface the ambient count is divided by r^(ambient-1).
    """
    x = check_weight(model, weight)
    schedule = tuple(as_scalar(r) for r in (radii if radii is not None else default_radii(model, x)))
    if not schedule:
        raise DomainError("radius schedule must be non-empty")
    if any(not r > 0 for r in schedule):
        raise DomainError("radii must be positive")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("radius schedule must be strictly increasing")
    n = model.dim
    counts = _schedule_counts(model, x, schedule)
    estimates = tuple(
        math.factorial(n) * c / (r**n) for c, r in zip(counts, schedule)
    )
    return ColengthSeries(radii=schedule, colengths=tuple(counts), vol_estimates=estimates)


def _schedule_counts(model, x, schedule):
    """Colengths at every radius of the schedule, from one coin table."""
    xs = _exact_fractions(x)
    if isinstance(model, SmoothPoint):
        coins, shifts = xs, [(1, 0)]
    elif isinstance(model, Hypersurface):
        coins, shifts = xs, [(1, 0), (-1, weighted_order(xs, model.support))]
    elif isinstance(model, ToricCone):
        coins = [_pairing(ray, xs) for ray in model.dual_rays()]
        shifts = [(1, _pairing(p, xs)) for p in model.parallelepiped_points()]
    else:
        raise UnsupportedModelError(f"unknown model kind {model!r}")
    cuts = [r - shift for r in _exact_fractions(schedule) for _sign, shift in shifts]
    counts = _smooth_counts(*_scaled_coins_and_bounds(coins, cuts))
    k = len(shifts)
    return [
        sum(sign * c for (sign, _shift), c in zip(shifts, counts[i * k : (i + 1) * k]))
        for i in range(len(schedule))
    ]


def _pairing(y, x):
    return sum(yk * xk for yk, xk in zip(y, x))


def _exact_fractions(values):
    return [v if isinstance(v, Fraction) else Fraction(v) for v in values]


def _scaled_coins_and_bounds(coins, cuts):
    """Clear denominators: integer coins a_i and strict integer bounds.

    The count for a cut c is #{ t : sum a_i t_i <= bound } with
    bound = ceil(lcm * c) - 1; a non-positive cut gets bound -1 (empty
    count).  Floats are converted exactly, so callers should prefer
    rational inputs: their common scale is usually beyond capacity.
    """
    lcm = common_denominator(coins + [c for c in cuts if c > 0])
    # strict inequality <c, t> < cut  <=>  sum a_i t_i <= ceil(lcm*cut) - 1
    return [int(c * lcm) for c in coins], [math.ceil(c * lcm) - 1 if c > 0 else -1 for c in cuts]


def _smooth_counts(a: Sequence[int], bounds: Sequence[int]) -> list[int]:
    """#{ t >= 0 : sum a_i t_i <= B } for every B in bounds, exactly.

    The cumulative count C_k(s) over k coins is the coefficient of z^s in
    1 / ((1 - z) prod (1 - z^a_i)).  Each factor is one running-sum pass,
    and the passes commute, so the coins can be taken in any order:

    * the smallest coin a_min alone gives C_1(s) = floor(s / a_min) + 1,
      written directly (``_one_coin_table``);
    * each middle coin is one running-sum pass over that table, n - 2
      passes in all;
    * the largest coin a_max never touches the table: each bound B reads
      C_n(B) = sum_j C_(n-1)(B - j a_max) as one strided sum.

    With n <= 2 coins no table is built: C_1 is a closed form and the
    strided sum of C_1 is a floor sum (``_floor_sum``).  Table entries and
    strided sums are bounded by the final count, so a single a-priori
    capacity estimate guards int64 arithmetic.
    """
    top = max(bounds)
    if top < 0:
        return [0] * len(bounds)
    if top > _SCALE_CAP:
        raise CapacityError(
            f"scaled radius {top} exceeds the counting capacity; "
            "use rationals with moderate denominators"
        )
    n = len(a)
    coins = sorted(a)
    smallest, middle, largest = coins[0], coins[1:-1], coins[-1]
    # upper bound on the final count: a full simplex with the cheapest coin
    reach = top // smallest + n
    estimate = math.comb(reach, n)
    if estimate > _COUNT_CAP:
        raise CapacityError(
            f"count estimate {estimate} exceeds platform integer capacity"
        )
    if n == 1:
        return [b // smallest + 1 if b >= 0 else 0 for b in bounds]
    if n == 2:
        # sum over j <= J = B // a_max of C_1(B - j a_max); with i = J - j
        # the argument is a_max i + B % a_max
        return [
            _floor_sum(b // largest + 1, smallest, largest, b % largest) + b // largest + 1
            if b >= 0 else 0
            for b in bounds
        ]
    table = _one_coin_table(smallest, top)
    for coin in middle:
        # table[s] becomes the sum of table[s - j * coin] over j >= 0: a
        # running sum down each column of the (rows, coin) reshape, carried
        # on into the short tail.  The pass loops over the shorter side:
        # with few rows it adds whole rows in order (contiguous, in place),
        # otherwise it runs one column cumsum.  Since rows * coin <= top + 1,
        # the row loop runs at most sqrt(top + 1) times.  A coin beyond the
        # budget contributes multiplicity 0 only.
        rows = (top + 1) // coin
        if rows:
            head = table[: rows * coin].reshape(rows, coin)
            if rows <= coin:
                for i in range(1, rows):
                    np.add(head[i], head[i - 1], out=head[i])
            else:
                np.cumsum(head, axis=0, out=head)
            tail = table[rows * coin :]
            tail += head[-1, : len(tail)]
    return [int(table[b::-largest].sum()) if b >= 0 else 0 for b in bounds]


def _one_coin_table(coin: int, top: int) -> np.ndarray:
    """C_1(s) = floor(s / coin) + 1 for s = 0..top, without division.

    Row i of the (rows, coin) view holds i + 1.  Row 0 is set to 1, then
    the filled rows are doubled (rows [k, 2k) are rows [0, k) plus k), so
    the fill takes log2(rows) steps and no temporary beyond the table.
    """
    table = np.empty(top + 1, dtype=np.int64)
    rows = (top + 1) // coin
    table[rows * coin :] = rows + 1
    if rows:
        head = table[: rows * coin].reshape(rows, coin)
        head[0] = 1
        done = 1
        while done < rows:
            step = min(done, rows - done)
            np.add(head[:step], done, out=head[done : done + step])
            done += step
    return table


def _floor_sum(count: int, m: int, a: int, b: int) -> int:
    """sum_{i < count} floor((a i + b) / m) for integers count, a, b >= 0, m >= 1.

    Euclid-like reduction: take whole quotients of a and b out, then swap
    the roles of m and a on the remaining lattice points under the line,
    so the loop runs O(log m) times.
    """
    total = 0
    while True:
        if a >= m:
            total += count * (count - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += count * (b // m)
            b %= m
        y_max = a * count + b
        if y_max < m:
            return total
        count, b = divmod(y_max, m)
        m, a = a, m
