"""Integer polynomials with exact evaluation, factorization helpers, and the
rational-root and discriminant primitives used throughout the package.

Coefficients are arbitrary-precision ints, lowest degree first.  Degrees stay
small here (the callers never exceed cubics except for the cosine minimal
polynomials, which arrive already irreducible), so the algorithms favour
clarity over asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import qpoly


class IntPoly:
    """Dense univariate polynomial over Z, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def sign_at(self, x: Fraction) -> int:
        """Sign of p(x) at a rational x, in integer arithmetic."""
        return sign_at(self.coeffs, x.numerator, x.denominator)

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    # -- ring operations --------------------------------------------------

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient by integer long division; raises if the quotient is
        not integral or the division leaves a remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dq, lead = len(den) - 1, den[-1]
        quot = [0] * max(len(rem) - dq, 0)
        for shift in range(len(quot) - 1, -1, -1):
            factor, r = divmod(rem[shift + dq], lead)
            if r:
                raise ValueError("quotient is not integral")
            if factor:
                quot[shift] = factor
                for i in range(dq):
                    if den[i]:  # cyclotomic divisors are sparse
                        rem[shift + i] -= factor * den[i]
        if any(rem[:dq]):
            raise ValueError("division is not exact")
        return IntPoly(quot)

    # -- content and squarefree structure ---------------------------------

    @property
    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        """Content-1 version with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content
        sign = 1 if self.leading > 0 else -1
        return IntPoly((c * sign) // g for c in self.coeffs)

    def gcd(self, other: "IntPoly") -> "IntPoly":
        g = qpoly.qgcd(self.to_q(), other.to_q())
        return from_q(g).primitive()

    def squarefree_decomposition(self) -> list[tuple["IntPoly", int]]:
        """Yun decomposition: list of (squarefree factor, multiplicity)."""
        p = self.primitive()
        if p.degree <= 0:
            return []
        out = []
        g = p.gcd(p.derivative())
        w = p.exact_div(g)
        mult = 1
        while w.degree > 0:
            y = w.gcd(g)
            factor = w.exact_div(y)
            if factor.degree > 0:
                out.append((factor.primitive(), mult))
            w = y
            g = g.exact_div(y)
            mult += 1
        return out

    def to_q(self) -> qpoly.QPoly:
        return tuple(Fraction(c) for c in self.coeffs)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c not in (1, -1) else ("x" if c == 1 else "-x"))
            else:
                parts.append(f"{c}*x^{i}" if c not in (1, -1) else (f"x^{i}" if c == 1 else f"-x^{i}"))
        return " + ".join(reversed(parts)).replace("+ -", "- ")


def sign_at(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """Sign of p(num/den) for integer coefficients and den > 0.

    Homogeneous Horner: den^n * p(num/den) = sum c_i * num^i * den^(n-i) is an
    integer with the sign of p(num/den), so no fraction is ever formed and the
    point need not be in lowest terms.
    """
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def from_q(p: qpoly.QPoly) -> IntPoly:
    """Clear denominators of a rational polynomial (up to a positive scalar)."""
    if not p:
        return IntPoly(())
    denom = 1
    for c in p:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return IntPoly(int(c * denom) for c in p)


def rational_roots(p: IntPoly) -> list[Fraction]:
    """All rational roots of p, once per multiplicity, sorted ascending.

    Uses the rational-root test on the primitive part, then synthetic division
    to strip multiplicities.  A monic part has only integer rational roots,
    the divisors of its constant term, which are tried on integers alone.
    """
    if p.is_zero:
        raise ValueError("rational_roots of the zero polynomial")
    work = p.primitive()
    roots: list[Fraction] = []
    # Zero roots come from trailing zero coefficients.
    while work.coeffs and work.coeffs[0] == 0:
        roots.append(Fraction(0))
        work = IntPoly(work.coeffs[1:])
    if work.degree <= 0:
        return sorted(roots)
    a0, an = abs(work.coeffs[0]), abs(work.leading)
    if an == 1:
        coeffs = work.coeffs
        for cand in sorted({s * d for d in _divisors(a0) for s in (1, -1)}):
            while len(coeffs) > 1:
                quot, rem = _divide_by_linear(coeffs, cand)
                if rem:
                    break
                roots.append(Fraction(cand))
                coeffs = quot
        return sorted(roots)
    candidates = set()
    for num in _divisors(a0):
        for den in _divisors(an):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        while work.degree > 0 and work.sign_at(cand) == 0:
            roots.append(cand)
            work = _deflate(work, cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return out


def _divide_by_linear(coeffs: tuple[int, ...], r: int) -> tuple[tuple[int, ...], int]:
    """(quotient, remainder) of an integer polynomial by x - r, by synthetic
    division; the remainder is p(r)."""
    acc = 0
    quot = []
    for c in reversed(coeffs):
        acc = acc * r + c
        quot.append(acc)
    rem = quot.pop()
    return tuple(reversed(quot)), rem


def _deflate(p: IntPoly, root: Fraction) -> IntPoly:
    quot, rem = qpoly.qdivmod(p.to_q(), (-root, Fraction(1)))
    assert not rem
    return from_q(quot)


def cubic_discriminant(p: IntPoly) -> int:
    """Discriminant 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 of x^3+ax^2+bx+c.

    An irreducible cubic has cyclic (order-3) Galois group exactly when this
    is a perfect square.
    """
    if p.degree != 3 or not p.is_monic:
        raise ValueError("cubic_discriminant requires a monic cubic")
    c, b, a = p.coeffs[0], p.coeffs[1], p.coeffs[2]
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def factor_into_irreducibles(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Factor into irreducible primitive factors with multiplicities.

    Strips rational roots, then relies on the fact that a quadratic or cubic
    with no rational root is irreducible over Q.  Inputs whose non-linear part
    exceeds degree 3 are out of scope and rejected.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    out: dict[IntPoly, int] = {}
    for sqf, mult in p.squarefree_decomposition():
        work = sqf
        for root in sorted(set(rational_roots(work) if work.degree > 0 else [])):
            while work.degree > 0 and work.sign_at(root) == 0:
                lin = IntPoly((-root.numerator, root.denominator)).primitive()
                out[lin] = out.get(lin, 0) + mult
                work = _deflate(work, root)
        if work.degree > 3:
            raise ValueError("factorization beyond degree 3 is not supported")
        if work.degree > 0:
            work = work.primitive()
            out[work] = out.get(work, 0) + mult
    return sorted(out.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
