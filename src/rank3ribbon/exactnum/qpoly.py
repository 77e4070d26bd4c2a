"""Dense univariate polynomial arithmetic over any field.

Polynomials are tuples of coefficients, lowest degree first, with no trailing
zeros (the zero polynomial is the empty tuple).  The ring operations
(`qnormalize`, `qadd`, `qmul`, `qscale`, ...) coerce their coefficients to
Fraction and serve polynomial algebra over Q: character expressions, and
`charpoly` of the integer Casimir matrix of `fusion.global_fp_dim`, whose
cubic locates the global dimension.  Division (`qdivmod`, `qmod`) works
unchanged on any field whose elements support +, -, *, truthiness and
`Fraction(1) / c` (Fraction, and CycloNum for Q(zeta_n)).
Arithmetic inside Q(zeta_n) itself does not come here: CycloNum works on
integer vectors (`cyclotomic.py`), and root location on integer polynomials
(`realalg.descartes_count`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

QPoly = tuple  # tuple of field elements (Fraction unless stated)

ZERO: QPoly = ()
X: QPoly = (Fraction(0), Fraction(1))


def qnormalize(coeffs) -> QPoly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def qtrim(coeffs) -> QPoly:
    """Drop trailing zeros without coercing the coefficients."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def qdegree(p: QPoly) -> int:
    return len(p) - 1


def qconst(c) -> QPoly:
    return qnormalize((Fraction(c),))


def qadd(p: QPoly, q: QPoly) -> QPoly:
    n = max(len(p), len(q))
    return qnormalize(
        ((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))
    )


def qscale(p: QPoly, c) -> QPoly:
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(ci * c for ci in p)


def qmul(p: QPoly, q: QPoly) -> QPoly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return qnormalize(out)


def qdivmod(p: QPoly, q: QPoly) -> tuple[QPoly, QPoly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = Fraction(1) / q[-1]
    rem = list(qtrim(p))
    dq = len(q) - 1
    zero = q[-1] - q[-1]  # the zero of the coefficient field
    quot = [zero] * max(len(rem) - dq, 0)
    while len(rem) > dq:
        shift = len(rem) - 1 - dq
        factor = rem[-1] * inv_lead
        quot[shift] = factor
        for i, b in enumerate(q[:-1]):
            if b:  # cyclotomic moduli are sparse
                rem[shift + i] -= factor * b
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return tuple(quot), tuple(rem)


def qmod(p: QPoly, q: QPoly) -> QPoly:
    return qdivmod(p, q)[1]


def qeval(p: QPoly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def charpoly(matrix) -> tuple:
    """Characteristic polynomial det(t*I - M) of a small square matrix,
    lowest degree first.  The coefficient of t^(d-k) is (-1)^k times the sum
    of the k x k principal minors, so int and Fraction entries stay exact
    and int entries give int coefficients."""
    d = len(matrix)
    return tuple(
        (-1) ** (d - j) * sum(
            _det([[matrix[r][c] for c in rows] for r in rows])
            for rows in combinations(range(d), d - j)
        )
        for j in range(d + 1)
    )


def _det(m):
    """Laplace expansion along the first row; 1 for the empty matrix."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )
