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
and one count up to the largest scaled radius serves every radius and
shift of a schedule, so the counting capacity is bounded by the scaled
radius only.  The cumulative count over n coins is the series
1 / ((1 - z) prod (1 - z^a_i)):

* one coin is the closed form floor(s / a) + 1, and two coins a floor sum
  (a Euclid-like reduction), a few vector steps over the bounds;
* three coins a1 <= a2 <= a3 sum the two-coin count over the positions
  B - j a3 of every bound B, as one vector of floor sums whose length is
  the number of positions.  That costs (positions) x (Euclid steps of
  (a1, a2)) element operations; when this exceeds the top + 1 entries of
  a table, as for small coins such as (1, 1, 1), the table below is built
  instead;
* four or more coins stream a cumulative coin table through one block:
  ``_BLOCK`` entries rounded down to a multiple of the smallest coin, and
  at least that coin.  Each factor of the series is one running-sum pass
  and the passes commute, so each block starts as the one-coin count of
  the smallest coin (one template plus a constant) and takes one pass for
  each of the n - 2 middle coins, which carries its last ``coin`` outputs
  over from block to block.  The largest coin is never a pass: the
  positions B - j a_max of every bound are sorted once, and each block
  gathers the ones inside it.  A pass loops over the shorter side of a
  (rows, coin) view of the block: whole contiguous rows added in order
  when rows <= coin (at most sqrt(block) iterations), one column cumsum
  otherwise.  Entries are counts over n - 1 coins, at most
  C(top // a_min + n - 1, n - 1); when that fits int32 the block is int32
  and the gathered sums are int64.  Memory is the block and one carry per
  middle coin whatever the radius, plus one entry per position, so
  ``_SCALE_CAP`` bounds counting time, not memory.

The estimates here never consult the closed forms in ``core``; they are
the independent check on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import Scalar, common_denominator
from .models import (
    CapacityError,
    DomainError,
    Hypersurface,
    Model,
    SmoothPoint,
    as_scalar,
    as_scalars,
    check_weight,
)
from .core import _weighted_order

_COUNT_CAP = 1 << 62
_SCALE_CAP = 20_000_000
_BLOCK = 1 << 17  # entries of the streamed coin table's block: 512 KiB in int32, within L2

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
    return _default_radii(check_weight(model, weight))


def _default_radii(x: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """``default_radii`` for a weight ``check_weight`` has already returned."""
    top = max(abs(v) for v in x)  # a toric weight may have negative coordinates
    return tuple(m * top for m in DEFAULT_RADIUS_MULTIPLIERS)


def colength(model: Model, weight: Sequence[Scalar], radius) -> int:
    """The exact colength count of ``model`` at weight x and radius r (see the module docstring)."""
    x = check_weight(model, weight)  # for toric models the interior check keeps the count finite
    r = as_scalar(radius, "radius")
    if not -math.inf < r < math.inf:  # NaN too
        raise DomainError(f"radius must be finite, got {r}")
    if r <= 0:
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
    schedule = _default_radii(x) if radii is None else as_scalars(radii, "radii")
    if not schedule:
        raise DomainError("radius schedule must be non-empty")
    if any(not 0 < r < math.inf for r in schedule):  # NaN too
        raise DomainError("radii must be positive and finite")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("radius schedule must be strictly increasing")
    n = model.dim
    counts = _schedule_counts(model, x, schedule)
    estimates = tuple(
        math.factorial(n) * c / (r**n) for c, r in zip(counts, schedule)
    )
    return ColengthSeries(radii=schedule, colengths=tuple(counts), vol_estimates=estimates)


def _schedule_counts(model, x, schedule):
    """Colengths at every radius of the schedule, from one coin count."""
    xs = _exact_fractions(x)
    if isinstance(model, SmoothPoint):
        coins, shifts = xs, [(1, 0)]
    elif isinstance(model, Hypersurface):
        coins, shifts = xs, [(1, 0), (-1, _weighted_order(xs, model.support))]
    else:
        coins = [_pairing(ray, xs) for ray in model.dual_rays()]
        shifts = [(1, _pairing(p, xs)) for p in model.parallelepiped_points()]
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
      one floor division over a block, once per count (``_one_coin_table``);
    * each middle coin is one running-sum pass over that table, n - 2
      passes in all;
    * the largest coin a_max never touches the table: each bound B reads
      C_n(B) = sum_j C_(n-1)(B - j a_max).  The table streams through one
      block at a time (``_table_entries``), so it takes one block and one
      carry of ``coin`` entries per middle coin, whatever the radius.

    Fewer coins need no table.  C_1 is a closed form, and the strided sum
    of C_1 is a floor sum (``_two_coin_counts``), so two coins cost a few
    vector steps over the bounds.  Three coins a1 <= a2 <= a3 write
    C_3(B) = sum_{j <= B // a3} C_2(B - j a3) and evaluate C_2 at all
    those positions of all bounds as one vector; that takes
    (Euclid steps of (a1, a2)) vector operations over the positions, so
    it is used whenever positions times steps is at most the top + 1
    entries of the table it replaces, and the table is built otherwise.

    Table entries are C_(n-1)(s) <= C(top // a_min + n - 1, n - 1); when
    that bound fits int32 the block is int32 (half the memory traffic) and
    the gathered sums accumulate in int64.  Gathered sums and vector counts
    are bounded by the final count, so a single a-priori capacity estimate
    guards int64 arithmetic.
    """
    top = max(bounds)
    if top < 0:
        return [0] * len(bounds)
    if top > _SCALE_CAP:
        raise CapacityError(
            f"scaled radius exceeds the counting capacity {_SCALE_CAP}; "
            "use rationals with moderate denominators"
        )
    coins = sorted(c for c in a if c <= top)  # a coin past every bound only takes t = 0
    if not coins:
        return [int(b >= 0) for b in bounds]
    n = len(coins)
    smallest, middle, largest = coins[0], coins[1:-1], coins[-1]
    # upper bound on the final count: a full simplex with the cheapest coin
    reach = top // smallest + n
    estimate = math.comb(reach, n)
    if estimate > _COUNT_CAP:
        raise CapacityError(f"count estimate exceeds the integer capacity {_COUNT_CAP}")
    live = np.array([b for b in bounds if b >= 0], dtype=np.int64)
    if n == 1:
        counts = live // smallest + 1
    elif n == 2:
        counts = _two_coin_counts(smallest, largest, live)
    else:
        # bound B has the B // a_max + 1 positions B - j a_max, j >= 0, in a group of y
        lengths = live // largest + 1
        starts = np.cumsum(lengths) - lengths
        y = np.repeat(live, lengths) - largest * (np.arange(lengths.sum()) - np.repeat(starts, lengths))
        if n == 3 and len(y) * _euclid_steps(smallest, middle[0]) <= top + 1:
            counts = np.add.reduceat(_two_coin_counts(smallest, middle[0], y), starts)
        else:
            counts = np.add.reduceat(_table_entries(smallest, middle, top, y), starts)
    it = iter(counts.tolist())
    return [next(it) if b >= 0 else 0 for b in bounds]


def _table_entries(smallest, middle, top, y):
    """C_(n-1)(s) at every position s in y, streaming the cumulative table through one block."""
    # entries are C_(n-1)(s) <= C(top // smallest + n - 1, n - 1)
    fits = math.comb(top // smallest + len(middle) + 1, len(middle) + 1) <= np.iinfo(np.int32).max
    # a multiple of the smallest coin, so C_1 on [lo, lo + block) is the template plus lo // smallest
    block = min(max(_BLOCK // smallest, 1) * smallest, top + 1)
    template = _one_coin_table(smallest, block - 1, np.int32 if fits else np.int64)
    buf = np.empty_like(template)
    rings = [(coin, np.zeros(coin, template.dtype)) for coin in middle]
    order = np.argsort(y, kind="stable")
    ordered, entries, done = y[order], np.empty_like(y), 0
    for lo in range(0, top + 1, block):
        out = buf[: min(block, top + 1 - lo)]
        np.add(template[: len(out)], lo // smallest, out=out)
        for coin, ring in rings:
            _running_sum(out, lo, coin, ring)
        end = np.searchsorted(ordered, lo + len(out))  # the positions inside this block
        entries[order[done:end]] = out[ordered[done:end] - lo]
        done = end
    return entries


def _running_sum(out, lo, coin, ring):
    """out[s] += out[s - coin] in order of s, over the block out = table[lo : lo + len(out)].

    ring[s % coin] carries each residue's last output from block to block;
    the rows of the (rows, coin) view follow the module docstring's rule.
    """
    size = min(coin, len(out))
    first = min(size, coin - lo % coin)
    out[:first] += ring[lo % coin : lo % coin + first]
    out[first:size] += ring[: size - first]
    rows = len(out) // coin
    if rows:
        head = out[: rows * coin].reshape(rows, coin)
        if rows <= coin:
            for i in range(1, rows):
                np.add(head[i], head[i - 1], out=head[i])
        else:
            np.cumsum(head, axis=0, dtype=out.dtype, out=head)
        tail = out[rows * coin :]
        tail += head[-1, : len(tail)]
    last, start = out[len(out) - size :], (lo + len(out) - size) % coin
    first = min(size, coin - start)
    ring[start : start + first] = last[:first]
    ring[: size - first] = last[first:]


def _one_coin_table(coin: int, top: int, dtype) -> np.ndarray:
    """C_1(s) = floor(s / coin) + 1 for s = 0..top: the template of every streamed block."""
    table = np.arange(top + 1, dtype=dtype)  # in place: no temporaries
    return np.add(np.floor_divide(table, coin, out=table), 1, out=table)


def _two_coin_counts(a1: int, a2: int, y: np.ndarray) -> np.ndarray:
    """C_2(y) = #{ t >= 0 : a1 t1 + a2 t2 <= y } for every y >= 0 in an int64 array.

    C_2(y) sums C_1(y - j a2) over j <= J = y // a2; with i = J - j the
    argument is a2 i + y % a2, so the sum is a floor sum plus J + 1.
    """
    count = y // a2 + 1
    return _floor_sum(count, a1, a2, y % a2) + count


def _euclid_steps(m: int, a: int) -> int:
    """Loop iterations of ``_floor_sum`` for these m and a."""
    steps = 1
    while a % m:
        m, a = a % m, m
        steps += 1
    return steps


def _floor_sum(count: np.ndarray, m: int, a: int, b: np.ndarray) -> np.ndarray:
    """sum_{i < count} floor((a i + b) / m) elementwise, for count, b >= 0 and m >= 1.

    Euclid-like reduction: take whole quotients of a and b out, then swap
    the roles of m and a on the remaining lattice points under the line.
    Only count and b differ between positions; m and a run through the
    Euclid sequence of (m, a) alone, so every position takes the same
    ``_euclid_steps(m, a)`` steps.  A position whose points are used up
    carries count 0 and adds nothing further.
    """
    total = np.zeros_like(count)
    while True:
        total += count * (count - 1) // 2 * (a // m) + count * (b // m)
        a, b = a % m, b % m
        if not a:
            return total
        count, b = divmod(a * count + b, m)
        m, a = a, m
