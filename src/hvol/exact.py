"""Exact-rational scalar handling and small exact linear algebra.

All closed-form operations in this package run on ``fractions.Fraction``
when given rational inputs and fall back to floats otherwise (``models``
decides which inputs are numbers).  The helpers here tell the two apart,
write the "p/q" text form of the CLI and the model files, and hold the
exact linear algebra needed for toric dual cones and tie-stratum bases,
all read from one fraction-free elimination (``adjugate``).
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


def adjugate(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list], Scalar]:
    """The adjugate and determinant of B, with adj B = det I, by one fraction-free elimination.

    Each row is scaled to integers by the lcm s_i of its denominators, and
    [S B | I] is reduced by fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 22, 1968), in which every division is exact, to
    [D I | D (S B)^-1] for D = +-det(S B).  Both are integers when every entry
    is, Fractions otherwise.  Given k < m rows of length m, B is the rows
    completed by the unit rows e_c of the columns c that hold no pivot of
    their echelon form, as the elimination meets them; a singular B, or rows
    of rank below k, raise ZeroDivisionError.
    """
    m, scale = (len(rows[0]) if rows else 0), [1] * len(rows)
    if not all(isinstance(x, int) for row in rows for x in row):  # scaled to integers row by row
        fracs = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
        scale = [common_denominator(row) for row in fracs]
        rows = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(fracs, scale)]
    mat = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    previous, sign = 1, 1
    for col in range(m):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col]), None)
        if pivot is None:
            if len(mat) == m:
                raise ZeroDivisionError("matrix is singular")
            # e_col, scaled as the elimination so far has scaled every row of factor 0
            pivot = len(mat)
            mat.append([previous * (c in (col, m + pivot)) for c in range(2 * m)])
            scale.append(1)
        if pivot != col:
            mat[col], mat[pivot], sign = mat[pivot], mat[col], -sign
        lead, head = mat[col], mat[col][col]
        mat = [r if r is lead else [(x * head - r[col] * y) // previous for x, y in zip(r, lead)] for r in mat]
        previous = head
    if (den := math.prod(scale)) == 1:
        return [[sign * x for x in row[m:]] for row in mat], sign * previous
    adj = [[Fraction(sign * x * s, den) for x, s in zip(row[m:], scale)] for row in mat]
    return adj, Fraction(sign * previous, den)


def det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """The determinant of ``adjugate``, 0 for a singular matrix."""
    try:
        return Fraction(adjugate(rows)[1])
    except ZeroDivisionError:
        return Fraction(0)


def inverse_fraction(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact matrix inverse adj / det (``adjugate``); raises ZeroDivisionError on singular input."""
    adj, det = adjugate(rows)
    return [[Fraction(x, det) for x in row] for row in adj]


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector on its ray."""
    fracs = [Fraction(v) for v in vec]
    if all(v == 0 for v in fracs):
        raise ValueError("zero vector has no primitive representative")
    den = common_denominator(fracs)
    ints = [int(v * den) for v in fracs]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)
