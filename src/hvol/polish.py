"""Correctly rounded doubles at a Newton root of one stratum system of ``optimize``.

``optimize._newton`` finds a float root (mu, s) of the stationarity system
of a tie stratum S: for e in S, s <e, u> = 1 with u_c = size_c / D_c and
D_c = n size_c + (s - n) ebar_c, ebar = sum_{e in S} mu_e e, and
sum(mu) = 1.  Its last bits depend on the start that reached it and on
numpy's kernels.  (An irrational root of a stratum in one unknown is
rounded on the interval that isolates it, ``optimize._rounded``, and comes
here only where that interval leaves a double undecided.)  ``polish_root`` takes Newton steps on the same system in
x = (mu, s), in _PRECISION-bit fixed point on Python integers, until a
step is below 2^(-_PRECISION/2).  At the last iterate x~, with Y the
inverse of the last Jacobian, the simplified Newton map G(x) = x - Y F(x)
must be a contraction of the box B = x~ + [-2 eta, 2 eta]^(k+1), where eta
bounds |Y F(x~)|: if every row of I - Y J(B), with J over B in interval
arithmetic, has absolute sum at most q = 1/2, then by the mean value
theorem |G(x) - G(y)| <= q |x - y| on B and |G(x) - x~| <= 2 eta q + eta
= 2 eta, so G maps B into itself and B holds exactly one root of F
(Kantorovich's argument, with an interval Jacobian as in Krawczyk,
Computing 4, 1969).  The weight u / max(u) and the value, which at the
root is prod((D_c / size_c)^size_c) / s as A = 1 and v = 1/s there, are
evaluated over B in interval arithmetic, and each is kept when both ends
of its interval round to one double.  The answer depends on the stratum
alone: not on the start, the float bits or numpy's kernels.  A root whose
test fails (a singular Jacobian, a D_c that is not positive on B, B too
wide to decide a double) gives None.  ``proven_root`` runs the same proof
from a Newton run that stalled short of its tolerances, and gives the
floats at the centre of B, or None where no box is proved.
"""

from __future__ import annotations

import math

# the fixed point has _PRECISION bits after the binary point.  A converged
# float root lies within about 1e-9 of its root (optimize's step bound), so
# Newton's doubling of the correct bits takes it past the stop at
# 2^-(_PRECISION/2) in at most three steps (30, 60, 120 bits); the cap
# bounds the steps where Newton converges slowly, a root the enclosure test
# then rejects unless it is tight enough anyway
_PRECISION = 192
_POLISH_STEPS = 8


class _Interval:
    """The real interval [lo, hi] / 2^_PRECISION, for integers lo <= hi.

    Every operation rounds outward, so the result holds every value of the
    operation on points of its operands; an int operand is that integer
    exactly.  Division needs a divisor > 0 and raises ZeroDivisionError
    otherwise.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int | None = None):
        self.lo, self.hi = lo, lo if hi is None else hi

    @staticmethod
    def of(x) -> _Interval:
        return x if isinstance(x, _Interval) else _Interval(x << _PRECISION)

    def __add__(self, other):
        other = _Interval.of(other)
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = _Interval.of(other)
        return _Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return _Interval.of(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return _Interval(*sorted((self.lo * other, self.hi * other)))
        if self.lo >= 0 and other.lo >= 0:
            lo, hi = self.lo * other.lo, self.hi * other.hi
        else:
            ends = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
            lo, hi = min(ends), max(ends)
        return _Interval(lo >> _PRECISION, -(-hi >> _PRECISION))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _Interval.of(other)
        if other.lo <= 0:
            raise ZeroDivisionError("interval divisor not positive")
        lo, hi = self.lo << _PRECISION, self.hi << _PRECISION
        return _Interval(min(lo // other.lo, lo // other.hi), -min(-hi // other.lo, -hi // other.hi))

    def __rtruediv__(self, other):
        return _Interval.of(other) / self

    def magnitude(self) -> int:
        return max(-self.lo, self.hi)

    def rounded(self) -> float | None:
        """The double every point of the interval rounds to, if there is one.

        int / int is correctly rounded, and rounding is monotone.
        """
        lo, hi = self.lo / (1 << _PRECISION), self.hi / (1 << _PRECISION)
        return lo if lo == hi else None


def _residual(tie, sizes, n, mu, s):
    """The residual of one stratum at intervals (mu, s), with its ebar_c, D_c and u_c."""
    ebar = [sum(m * e[c] for m, e in zip(mu, tie) if e[c]) for c in range(len(sizes))]
    denom = [n * size + (s - n) * b for size, b in zip(sizes, ebar)]
    u = [size / d for size, d in zip(sizes, denom)]
    g = [s * sum(ec * uc for ec, uc in zip(e, u) if ec) - 1 for e in tie]
    return [*g, sum(mu) - 1], ebar, denom, u


def _jacobian(tie, n, s, ebar, denom, u):
    """The residual's Jacobian in (mu, s), not in (mu, log s) as ``optimize._newton``
    takes it, from ``_residual``'s parts."""
    q = [x / d for x, d in zip(u, denom)]  # -d u_c / d ebar_c, over s - n
    jac = []
    for e in tie:
        along = [(n - s) * s * sum(ec * fc * qc for ec, fc, qc in zip(e, f, q) if ec * fc) for f in tie]
        across = sum(ec * (uc - s * bc * qc) for ec, uc, bc, qc in zip(e, u, ebar, q) if ec)
        jac.append([*along, across])
    return [*jac, [_Interval.of(1)] * len(tie) + [_Interval.of(0)]]


def _inverse(matrix: list) -> list:
    """Gauss-Jordan inverse, with partial pivoting, of a matrix of fixed-point integers.

    A singular matrix raises ZeroDivisionError.
    """
    size, one = len(matrix), 1 << _PRECISION
    rows = [[*row, *(one * (i == j) for j in range(size))] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [(x << _PRECISION) // head for x in rows[col]]
        for r in range(size):
            if r != col and (factor := rows[r][col]):
                rows[r] = [x - ((factor * y) >> _PRECISION) for x, y in zip(rows[r], rows[col])]
    return [[_Interval(a) for a in row[size:]] for row in rows]


def _enclose(tie, mu, s, sizes, n: int):
    """The box proved to hold one root of the stratum, reached from the float
    (mu, s), with ``_residual``'s ebar, D_c and u_c over it, or None."""

    def residual(x):
        return _residual(tie, sizes, n, x[:-1], x[-1])

    x = [_Interval(int(math.ldexp(v, _PRECISION))) for v in (*mu, s)]
    try:
        g, *parts = residual(x)
        for _ in range(_POLISH_STEPS):
            inverse = _inverse([[a.lo for a in row] for row in _jacobian(tie, n, x[-1], *parts)])
            step = [sum(a * b for a, b in zip(row, g)).lo for row in inverse]
            x = [_Interval(v.lo - d) for v, d in zip(x, step)]
            g, *parts = residual(x)
            if max(map(abs, step)) <= 1 << (_PRECISION // 2):  # the error is now about step^2
                break
        radius = 2 * max(sum(a * b for a, b in zip(row, g)).magnitude() for row in inverse)
        box = [_Interval(v.lo - radius, v.lo + radius) for v in x]
        _, *parts = residual(box)
        jac, one = _jacobian(tie, n, box[-1], *parts), 1 << _PRECISION
    except ZeroDivisionError:
        return None
    for i, row in enumerate(inverse):
        spread = [int(i == j) - sum(a * b[j] for a, b in zip(row, jac)) for j in range(len(x))]
        if 2 * sum(v.magnitude() for v in spread) > one:
            return None
    return box, parts


def proven_root(tie, mu, s, sizes, n: int):
    """The floats (mu, s) nearest the centre of a box proved to hold one root
    of the stratum, reached from the float (mu, s), or None."""
    enclosed = _enclose([[int(e) for e in row] for row in tie], mu, s, [int(c) for c in sizes], n)
    if enclosed is None:
        return None
    return [(v.lo + v.hi) / (2 << _PRECISION) for v in enclosed[0]]


def polish_root(tie, mu, s, sizes, owner, n: int):
    """The max-normalized weight and value at the stratum root near the float
    (mu, s), as their correctly rounded doubles, or None if undecided.

    ``tie`` holds the stratum's rows on the coordinate classes, of sizes
    ``sizes``; ``owner`` maps each coordinate to its class, and n is the
    dimension of the germ.
    """
    sizes = [int(c) for c in sizes]
    enclosed = _enclose([[int(e) for e in row] for row in tie], mu, s, sizes, n)
    if enclosed is None:
        return None
    box, (_, denom, u) = enclosed
    try:
        top = max(u, key=lambda v: v.lo + v.hi)
        weight = [(v / top).rounded() for v in u]
        value = 1 / box[-1]
        for size, d in zip(sizes, denom):
            for _ in range(size):
                value = value * (d / size)
    except ZeroDivisionError:
        return None
    value = value.rounded()
    if value is None or None in weight:
        return None
    return tuple(weight[c] for c in owner), value
