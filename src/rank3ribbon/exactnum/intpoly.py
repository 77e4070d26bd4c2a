"""Integer polynomials with exact evaluation, factorization, and the
rational-root and discriminant primitives used throughout the package.

Coefficients are arbitrary-precision ints, lowest degree first.

Factorization works on integers only.  `split_rational_roots` finds each
rational root u/v (v | a_n) as an integer zero of v^d p(x/v), by bisection
on the pieces where that polynomial is monotone, so the work grows with the
bit size of the coefficients, not with a_0.  It divides by v*x - u exactly,
once per multiplicity.  `factor_into_irreducibles` returns those linear
factors with their multiplicities plus the quotient.  The package factors
only polynomials of degree at most 3 (the characteristic and Casimir cubics,
scaled minimal polynomials of their roots, the quadratics of the filters), so
the quotient has degree at most 3 and no rational root.  A quadratic or cubic
with no rational root has no factor of degree 1, so it is irreducible over Q,
and an irreducible polynomial over Q is squarefree.  A quotient of degree
above 3 is rejected rather than factored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


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

    # -- content ---------------------------------------------------------

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

    def to_q(self) -> tuple[Fraction, ...]:
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


def scaled_value(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den^n * p(num/den) for integer coefficients, n = len(coeffs) - 1.

    Homogeneous Horner: the value is sum c_i * num^i * den^(n-i), an integer,
    so no fraction is ever formed and the point need not be in lowest terms.
    """
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def sign_at(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """Sign of p(num/den) for integer coefficients and den > 0: the sign of
    `scaled_value`, whose Horner loop is repeated here to save a call on the
    package's hottest function."""
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def split_rational_roots(p: IntPoly) -> tuple[list[tuple[int, int]], IntPoly]:
    """The rational roots u/v of p (lowest terms, v > 0), once per
    multiplicity, and the quotient of p's primitive part by their linear
    factors v*x - u.

    For each v | a_n the numerators u are the integer zeros of v^d p(u/v)
    (`_zero_brackets`).  By Gauss's lemma the quotient of a primitive
    polynomial by v*x - u is integral and primitive.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no finite set of roots or factors")
    work = p.primitive()
    roots: list[tuple[int, int]] = []
    # Zero roots come from trailing zero coefficients.
    while work.coeffs[0] == 0:
        roots.append((0, 1))
        work = IntPoly(work.coeffs[1:])
    for v in _divisors(work.leading):
        if work.degree == 0:
            break
        cs, an = work.coeffs, work.leading
        q = tuple(c * v ** (len(cs) - 1 - i) for i, c in enumerate(cs))
        # u | a_0, and |u/v| < 1 + max|a_i|/a_n (Cauchy).
        reach = min(abs(cs[0]), (v * (an + max(map(abs, cs[:-1]))) - 1) // an)
        for u in _zero_brackets(q, -reach, reach):
            if math.gcd(u, v) != 1 or sign_at(q, u, 1):
                continue
            while work.degree > 0:
                try:
                    work = work.exact_div(IntPoly((-u, v)))
                except ValueError:
                    break
                roots.append((u, v))
    return roots, work


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return out


def _zero_brackets(q: tuple[int, ...], lo: int, hi: int) -> list[int]:
    """Sorted integers from lo to hi among which lie all integer zeros of q
    in [lo, hi]: lo, hi, the points of q' (found recursively), and the two
    integers around each sign change of q between them.

    q is monotone between consecutive points of q', so each such piece holds
    at most one sign change, found by bisection.  A zero where q keeps its
    sign is a sign change of q', so it is one of the points of q'."""
    if len(q) == 2:
        # A line changes sign once, at -q_0/q_1.
        cut = -q[0] // q[1]
        return sorted({lo, hi} | {c for c in (cut, cut + 1) if lo < c < hi})
    outer = _zero_brackets(tuple(i * q[i] for i in range(1, len(q))), lo, hi)
    points = set(outer)
    for a, b in zip(outer, outer[1:]):
        if b - a < 2:
            continue
        sa = sign_at(q, a, 1)
        if sa * sign_at(q, b, 1) < 0:
            while b - a > 1:
                mid = (a + b) // 2
                if sign_at(q, mid, 1) == sa:
                    a = mid
                else:
                    b = mid
            points.update((a, b))
    return sorted(points)


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

    The linear factors are those of the rational roots; the quotient left
    after stripping them has no rational root, so it is irreducible when its
    degree is at most 3.  A larger quotient is out of scope and rejected.
    """
    roots, rest = split_rational_roots(p)
    if rest.degree > 3:
        raise ValueError("factorization beyond degree 3 is not supported")
    out: dict[IntPoly, int] = {}
    for u, v in roots:
        lin = IntPoly((-u, v))
        out[lin] = out.get(lin, 0) + 1
    if rest.degree > 0:
        out[rest] = 1
    return sorted(out.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
