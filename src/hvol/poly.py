"""Univariate polynomials as ascending coefficient lists; the exact kit runs on integers.

``fujita`` decides the sign of integer polynomials on an interval with it,
and ``optimize`` finds the roots of a tie stratum's stationarity system in
one unknown.  A quadratic's roots are closed forms: ``quadratic_roots``
reads them off the discriminant with one integer square root, rational
exactly when it is a square, and ``narrow`` and ``squarefree`` take a
quadratic from it too.  Degree 3 and up goes by Sturm's theorem:
``isolate`` separates the real roots of a square-free integer polynomial,
``narrow`` bisects an isolating interval and ``rational_root`` decides
exactly whether the root there is rational.  ``sign_at`` gives the exact
sign of another polynomial at such a root, of any degree, from its
remainder modulo the first: in closed form when that is constant or
linear, by Sturm sequences otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def value(coeffs: Sequence, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def hom(coeffs: Sequence[int], u: int, w: int) -> int:
    """Sum_k c_k u^k w^(d-k) with d + 1 = len(coeffs): w^d f(u/w), of the sign of f(u/w) for w > 0."""
    total, w_power = 0, 1
    for c in reversed(coeffs):
        total = total * u + c * w_power
        w_power *= w
    return total


def integral(coeffs: Sequence, a, b):
    """Exact integral of the polynomial over [a, b]."""
    anti = [0] + [c / (i + 1) for i, c in enumerate(coeffs)]
    return value(anti, b) - value(anti, a)


def derivative(coeffs: Sequence) -> tuple:
    return tuple(c * (i + 1) for i, c in enumerate(coeffs[1:]))


def trim(coeffs: Sequence) -> list:
    """The coefficients without trailing zeros; the zero polynomial is []."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def mul(f: Sequence, g: Sequence) -> list:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def combine(terms) -> list:
    """Sum of s * f over the pairs (s, f) of ``terms``, each f a coefficient list."""
    out = []
    for s, f in terms:
        out += [0] * (len(f) - len(out))
        for i, c in enumerate(f):
            out[i] += s * c
    return out


def quotient(f: Sequence[int], g: Sequence[int]):
    """f / g over Z for a trimmed g != 0, or None when g does not divide f over Z; for a
    primitive g that is division over Q (Gauss's lemma)."""
    rem, quo = list(f), [0] * max(len(f) - len(g) + 1, 0)
    for k in reversed(range(len(quo))):
        quo[k], r = divmod(rem[k + len(g) - 1], g[-1])
        if r:
            return None
        for j, c in enumerate(g):
            rem[k + j] -= quo[k] * c
    return None if any(rem) else quo


def pseudo_rem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """A positive multiple of f mod g, made primitive, for trimmed f and g != 0: Sturm signs are kept."""
    rem, lead = list(f), abs(g[-1])
    for k in reversed(range(len(f) - len(g) + 1)):  # rem has k + len(g) entries
        top = rem.pop() if g[-1] > 0 else -rem.pop()
        rem = [c * lead for c in rem]
        for j, c in enumerate(g[:-1]):
            rem[k + j] -= top * c
    content = math.gcd(*rem) or 1
    return trim([c // content for c in rem])


def gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive gcd, with lc > 0, of f and g not both zero: the primitive PRS (Brown-Traub, 1971)."""
    f, g = trim(f), trim(g)
    while g:
        f, g = g, pseudo_rem(f, g)
    content = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [c // content for c in f]


def odd_part(f: Sequence[int]) -> list[int]:
    """Product of the factors of odd multiplicity of a trimmed, non-zero integer f.

    Yun's square-free factorization writes f = c prod h_i^i with square-free,
    pairwise coprime, primitive h_i of positive leading coefficient (so c has
    the sign of that of f); the result is the product of the h_i with i odd.
    """
    fp = derivative(f)
    common = gcd(f, fp)
    b, d = quotient(f, common), quotient(fp, common)
    odd, i = [1], 1
    while len(b) > 1:
        d = combine([(1, d), (-1, derivative(b))])
        h = gcd(b, d)
        if i % 2:
            odd = mul(odd, h)
        b, d, i = quotient(b, h), quotient(d, h), i + 1
    return odd


def squarefree(f: Sequence[int]) -> list[int]:
    """The primitive square-free part, with lc > 0, of a trimmed, non-zero integer f: it has
    the real roots of f, each simple.  A quadratic c + b x + a x^2 is square-free unless its
    discriminant b^2 - 4ac is 0, where it is a (x + b / 2a)^2."""
    if len(f) == 3:
        return gcd(f if f[1] ** 2 != 4 * f[0] * f[2] else [f[1], 2 * f[2]], [])
    return gcd(quotient(f, gcd(f, derivative(f))), [])


def _sturm_chain(f: Sequence[int]) -> list[list[int]]:
    chain = [list(f), trim(derivative(f))]
    while len(chain[-1]) > 1:
        chain.append([-c for c in pseudo_rem(chain[-2], chain[-1])])
    return chain


def _sign_changes(chain: list, x: Fraction) -> int:
    signs = [v > 0 for v in (hom(p, *x.as_integer_ratio()) for p in chain) if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def sturm_count(f: Sequence[int], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of the square-free integer f in (a, b], a < b (Sturm)."""
    chain = _sturm_chain(f)
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def isolate(f: Sequence[int], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Intervals (a, b], ascending, each holding one root of the square-free integer f, and
    together every root of f in (lo, hi], lo < hi: Sturm counts on halved intervals."""
    chain, out = _sturm_chain(f), []
    stack = [(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))]
    while stack:
        a, b, left, right = stack.pop()
        if left - right == 1:
            out.append((a, b))
        elif left > right:
            mid = (a + b) / 2
            changes = _sign_changes(chain, mid)
            stack += [(mid, b, changes, right), (a, mid, left, changes)]
    return out


def _conjugates(f: Sequence[int]) -> tuple[int, int, int]:
    """(p, disc, q), q > 0, with the roots of the integer quadratic f at (p -+ sqrt(disc)) / q."""
    c, b, a = f
    return (-b, b * b - 4 * a * c, 2 * a) if a > 0 else (b, b * b - 4 * a * c, -2 * a)


def _beyond(x: Fraction, p: int, disc: int, q: int, sign: int) -> int:
    """The sign of x - (p + sign sqrt(disc)) / q, for disc >= 0 and q > 0, by squaring."""
    num, den = (q * x - p).as_integer_ratio()
    if num * sign <= 0:
        return -sign
    diff = num * num - disc * den * den
    return sign * ((diff > 0) - (diff < 0))


def _quadratic_interval(p: int, disc: int, q: int, sign: int, steps: int) -> tuple[Fraction, Fraction]:
    """(a, a + 1 / (q 2^steps)) holding (p + sign sqrt(disc)) / q for a disc that is no square,
    from r = isqrt(disc 4^steps) < 2^steps sqrt(disc) < r + 1."""
    r = math.isqrt(disc << 2 * steps)
    low = Fraction((p << steps) + sign * r + min(sign, 0), q << steps)
    return low, low + Fraction(1, q << steps)


def quadratic_roots(f: Sequence[int], lo, hi) -> list[tuple[Fraction, Fraction]]:
    """The roots of the square-free integer quadratic f in [lo, hi], a bound of None being no
    bound, ascending: (x, x) at a rational root x, else an interval (a, b] inside [lo, hi]
    that holds the root and is at most 1 / |2 lc(f)| wide.

    The roots are (p -+ sqrt(disc)) / q for the discriminant disc and q = |2 lc(f)|
    (``_conjugates``); they are rational iff disc is a square, and an irrational one is
    compared with lo and hi exactly, by squaring (``_beyond``).
    """
    p, disc, q = _conjugates(f)
    if disc < 0:
        return []
    r, out = math.isqrt(disc), []
    for sign in (-1, 1):
        if r * r == disc:
            x = Fraction(p + sign * r, q)
            if (lo is None or lo <= x) and (hi is None or x <= hi):
                out.append((x, x))
        elif (lo is None or _beyond(lo, p, disc, q, sign) < 0) and (hi is None or _beyond(hi, p, disc, q, sign) > 0):
            a, b = _quadratic_interval(p, disc, q, sign, 0)
            out.append((a if lo is None else max(a, lo), b if hi is None else min(b, hi)))
    return out


def narrow(f: Sequence[int], a: Fraction, b: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """A part of the interval (a, b], at most width wide, holding the one root of the
    square-free integer f in (a, b]; a root met exactly gives (root, root).

    A quadratic's root is read off its discriminant (``quadratic_roots``): it is the
    larger root iff a is not below the smaller, and an isqrt places it in an interval of
    width 1 / (q 2^k) for the least k that is narrow enough; a rational one is exact.
    Otherwise (a, b] is halved until b - a <= width, and a root met at a midpoint or at b
    gives (root, root).  f changes sign at its simple root alone, so a point of (a, b]
    lies past the root exactly when f has the sign there that it has at b.  The halving
    runs on integers: with x = a + (b - a) t, L^deg f(x) = h(t) for an integer h and the
    least common denominator L of a and b - a, and t = k / 2^i.
    """
    if len(f) == 3:
        p, disc, q = _conjugates(f)
        sign, r = 1 if _beyond(a, p, disc, q, -1) >= 0 else -1, math.isqrt(disc)
        if r * r == disc:
            return (root := Fraction(p + sign * r, q)), root
        ratio = 1 / (q * width)
        low, high = _quadratic_interval(p, disc, q, sign, ((ratio.numerator - 1) // ratio.denominator).bit_length())
        return max(a, low), min(b, high)
    side, span = hom(f, *b.as_integer_ratio()), b - a
    ratio = span / width
    steps = ((ratio.numerator - 1) // ratio.denominator).bit_length()  # the least with 2^steps >= ratio
    if not side:
        return b, b
    if not steps:
        return a, b
    common = math.lcm(a.denominator, span.denominator)
    line, power, h = [a.numerator * (common // a.denominator), span.numerator * (common // span.denominator)], [1], []
    for i, c in enumerate(f):
        h = combine([(1, h), (c * common ** (len(f) - 1 - i), power)])
        power = mul(power, line)
    low = 0  # the root lies in (low, low + 1] / 2^i
    for i in range(1, steps + 1):
        sign = hom(h, 2 * low + 1, 1 << i)
        if not sign:
            return (root := a + span * Fraction(2 * low + 1, 1 << i)), root
        low = 2 * low if (sign > 0) == (side > 0) else 2 * low + 1
    return a + span * Fraction(low, 1 << steps), a + span * Fraction(low + 1, 1 << steps)


def rational_root(f: Sequence[int], a: Fraction, b: Fraction):
    """The root of the primitive square-free integer f in (a, b], b - a <= 1 / lc(f), if it
    is rational, else None.

    A rational root k/q in lowest terms has q | lc(f) (the rational root theorem), and
    (a, b] holds one multiple of 1 / lc(f) at most.
    """
    lead = abs(f[-1])
    k = math.floor(b * lead)
    return Fraction(k, lead) if k > a * lead and not hom(f, k, lead) else None


def sign_at(h: Sequence[int], f: Sequence[int], a: Fraction, b: Fraction) -> int:
    """The sign of the integer polynomial h at the one root of the square-free integer f in
    (a, b], or at a when a == b is that root.

    h is first reduced modulo f: ``pseudo_rem`` gives an r that is a positive multiple of h
    at every root of f, so a constant r is settled at once.  A linear r = r1 (x - z) has the
    sign of r1 at the root where z <= a and the other where z > b; for z in (a, b], f
    changes sign at its simple root alone, so z lies past the root exactly when f has the
    sign there that it has at b, and f(z) = 0 puts the root at z.  A root at b is read
    there.  For deg r >= 2 the root is one of r iff it is one of gcd(f, r); otherwise
    (a, b] is halved until it holds no root of r, and r has one sign on it (Sturm).
    """
    if a != b and (side := hom(f, *b.as_integer_ratio())):
        h = pseudo_rem(trim(h), f)
        if len(h) == 2:
            z = Fraction(-h[0], h[1])
            if a < z <= b:
                at = hom(f, *z.as_integer_ratio())
                past = 0 if not at else 1 if (at > 0) == (side > 0) else -1
            else:
                past = 1 if z > b else -1
            return -past if h[1] > 0 else past
        if len(h) > 2:
            if sturm_count(gcd(f, h), a, b):
                return 0
            chain = _sturm_chain(squarefree(h))
            while _sign_changes(chain, a) != _sign_changes(chain, b):
                a, b = narrow(f, a, b, (b - a) / 2)
    value = hom(h, *b.as_integer_ratio())
    return (value > 0) - (value < 0)


def root_bound(f: Sequence[int]) -> Fraction:
    """A bound B with every complex root of the trimmed f, of degree >= 1, in |x| < B (Cauchy)."""
    return 1 + Fraction(max(abs(c) for c in f[:-1]), abs(f[-1]))
