"""Exact-rational scalar handling and small exact linear algebra.

All closed-form operations in this package run on ``fractions.Fraction``
when given rational inputs and fall back to floats otherwise (``models``
decides which inputs are numbers).  The helpers here tell the two apart,
write the "p/q" text form of the CLI and the model files, and hold the
exact linear algebra needed for toric dual cones and tie-stratum bases.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[Fraction, float]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def is_exact(values: Sequence[Scalar]) -> bool:
    return all(isinstance(v, Fraction) for v in values)


def parse_rational(text) -> Fraction:
    """The one "p/q" rule: an int, or "p" / "p/q" in ASCII digits, no whitespace, q != 0."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected integer or 'p/q' string, got {text!r}")
    m = _RATIONAL_RE.fullmatch(text)
    if not m or (m.group(2) is not None and int(m.group(2)) == 0):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


def format_scalar(value: Scalar) -> Union[str, float]:
    """Exact values render as "p/q" strings in lowest terms, floats as floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return float(f"{value:.12g}")


def common_denominator(values: Sequence[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in values))


def det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def inverse_fraction(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact matrix inverse; raises ZeroDivisionError on singular input.

    Each row is scaled to integers by the lcm s_i of its denominators, and
    [S A | I] is reduced by fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 22, 1968), in which every division is exact, to
    [D I | D (S A)^-1] for D = +-det(S A); then A^-1 = (S A)^-1 S.
    """
    n = len(rows)
    fracs = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
    scale = [common_denominator(row) for row in fracs]
    m = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(fracs, scale)]
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        head = m[col][col]
        for r in range(n):
            if r != col:
                factor = m[r][col]
                m[r] = [(x * head - factor * y) // previous for x, y in zip(m[r], m[col])]
        previous = head
    return [[Fraction(x * s, previous) for x, s in zip(row[n:], scale)] for row in m]


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector on its ray."""
    fracs = [Fraction(v) for v in vec]
    if all(v == 0 for v in fracs):
        raise ValueError("zero vector has no primitive representative")
    den = common_denominator(fracs)
    ints = [int(v * den) for v in fracs]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)
