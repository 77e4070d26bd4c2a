"""Roots of unity and exact cyclotomic arithmetic.

A root of unity is a reduced turn fraction p/q standing for exp(2*pi*i*p/q).
Its real and imaginary parts are halves of 2cos(2*pi*r) values, which are
roots of explicit integer minimal polynomials; certified enclosures therefore
come from root isolation rather than transcendental evaluation.

CycloNum provides exact field arithmetic in Q(zeta_n) on the power basis,
reduced modulo the n-th cyclotomic polynomial.  It is the certification
backend for the S-matrix checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import qpoly
from .ball import ComplexBall
from .intpoly import IntPoly
from .realalg import RealAlgebraic, roots_of_irreducible


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by exact recursive division."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPoly((-1, 1))
    num = IntPoly([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic_poly(d))
    return num


@lru_cache(maxsize=None)
def cos_minimal_poly(q: int) -> IntPoly:
    """Minimal polynomial of 2cos(2*pi*p/q) for any p coprime to q.

    For q > 2 the cyclotomic polynomial is palindromic of even degree 2m;
    writing it as z^m * G(z + 1/z) yields the degree-m minimal polynomial G,
    computed here in the basis C_k(x) = z^k + z^(-k) with the three-term
    recurrence C_k = x*C_{k-1} - C_{k-2}.
    """
    if q == 1:
        return IntPoly((-2, 1))
    if q == 2:
        return IntPoly((2, 1))
    phi = cyclotomic_poly(q)
    coeffs = phi.coeffs
    m = phi.degree // 2
    x = IntPoly((0, 1))
    c_prev = IntPoly((2,))          # C_0 = 2
    c_cur = IntPoly((0, 1))         # C_1 = x
    acc = IntPoly((coeffs[m],))
    for k in range(1, m + 1):
        acc = acc + IntPoly((coeffs[m + k],)) * c_cur
        c_prev, c_cur = c_cur, x * c_cur - c_prev
    return acc.primitive()


@lru_cache(maxsize=None)
def _cos_roots(q: int) -> tuple[RealAlgebraic, ...]:
    return tuple(roots_of_irreducible(cos_minimal_poly(q), Fraction(1, 1 << 16)))


def two_cos(turn: Fraction) -> RealAlgebraic:
    """The exact value 2cos(2*pi*turn)."""
    turn = Fraction(turn) % 1
    p, q = turn.numerator, turn.denominator
    if q == 1:
        return RealAlgebraic.from_rational(2)
    if q == 2:
        return RealAlgebraic.from_rational(-2)
    j = min(p, q - p)
    residues = [r for r in range(1, q // 2 + 1) if math.gcd(r, q) == 1]
    # Roots of the minimal polynomial ascend as the residue descends
    # (cosine is decreasing on (0, pi)).
    rank_desc = sum(1 for r in residues if r > j)
    roots = _cos_roots(q)
    assert len(roots) == len(residues)
    return roots[rank_desc]


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i*p/q) as the reduced turn fraction p/q, 0 <= p < q."""

    p: int
    q: int

    @staticmethod
    def make(p: int, q: int) -> "RootOfUnity":
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        p %= q
        g = math.gcd(p, q)
        return RootOfUnity(p // g, q // g)

    @staticmethod
    def from_turn(turn) -> "RootOfUnity":
        turn = Fraction(turn) % 1
        return RootOfUnity(turn.numerator, turn.denominator)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0, 1)

    @property
    def order(self) -> int:
        return self.q

    @property
    def turn(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def is_one(self) -> bool:
        return self.p == 0

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.from_turn(self.turn + other.turn)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.make(-self.p, self.q)

    conjugate = inverse

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.from_turn(self.turn * e)

    def real_two_cos(self) -> RealAlgebraic:
        """Exact value of z + 1/z = 2cos(2*pi*p/q)."""
        return two_cos(self.turn)

    def complex_approx(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.p / self.q)

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}

    def __repr__(self) -> str:
        return f"RootOfUnity({self.p}/{self.q})"


def root_of_unity_value(r: RootOfUnity, precision_bits: int = 128) -> ComplexBall:
    """Certified ball around exp(2*pi*i*p/q) with radius <= 2^(1-precision_bits)."""
    if precision_bits < 32:
        raise ValueError("precision_bits must be at least 32")
    target = Fraction(1, 2 ** (precision_bits + 2))
    re = two_cos(r.turn)
    re.refine_to(target)
    re_lo, re_hi = re.interval()
    # sin(2*pi*t) = cos(2*pi*(t - 1/4))
    im = two_cos(r.turn - Fraction(1, 4))
    im.refine_to(target)
    im_lo, im_hi = im.interval()
    rad = (re_hi - re_lo) / 4 + (im_hi - im_lo) / 4
    assert rad <= Fraction(2) / 2**precision_bits
    return ComplexBall((re_lo + re_hi) / 4, (im_lo + im_hi) / 4, rad)


def roots_of_unity_up_to(max_order: int) -> list[RootOfUnity]:
    """All roots of unity of order <= max_order, sorted by (order, turn)."""
    out = []
    for q in range(1, max_order + 1):
        for p in range(q):
            if math.gcd(p, q) == 1 or (p == 0 and q == 1):
                out.append(RootOfUnity(p, q))
    return out


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(zeta_n)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _power_basis(n: int) -> tuple[qpoly.QPoly, tuple[qpoly.QPoly, ...]]:
    """(cyclotomic modulus, table of x^e mod Phi_n for e in [0, 2n))."""
    phi = cyclotomic_poly(n).to_q()
    table = []
    cur: qpoly.QPoly = (Fraction(1),)
    for _ in range(2 * n):
        table.append(cur)
        cur = qpoly.qmod(qpoly.qmul(cur, qpoly.X), phi)
    return phi, tuple(table)


class CycloNum:
    """Element of Q(zeta_n) on the power basis 1, zeta, ..., zeta^(phi(n)-1)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: qpoly.QPoly):
        self.n = n
        self.coeffs = qpoly.qnormalize(coeffs)

    @staticmethod
    def from_rational(n: int, value) -> "CycloNum":
        return CycloNum(n, (Fraction(value),))

    @staticmethod
    def from_root(root: RootOfUnity, n: int) -> "CycloNum":
        if n % root.q != 0:
            raise ValueError(f"order {root.q} does not divide ambient order {n}")
        exponent = root.p * (n // root.q)
        _, table = _power_basis(n)
        return CycloNum(n, table[exponent % n])

    def _check(self, other: "CycloNum") -> None:
        if self.n != other.n:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        return CycloNum(self.n, qpoly.qadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        return CycloNum(self.n, qpoly.qsub(self.coeffs, other.coeffs))

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.n, qpoly.qneg(self.coeffs))

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        phi, _ = _power_basis(self.n)
        return CycloNum(self.n, qpoly.qmod(qpoly.qmul(self.coeffs, other.coeffs), phi))

    def scale(self, c) -> "CycloNum":
        return CycloNum(self.n, qpoly.qscale(self.coeffs, Fraction(c)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse in Q(zeta_n), via extended gcd with Phi_n."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        phi, _ = _power_basis(self.n)
        g, s, _t = qpoly.qxgcd(self.coeffs, phi)
        assert qpoly.qdegree(g) == 0, "cyclotomic polynomial must be coprime to a nonzero element"
        return CycloNum(self.n, qpoly.qscale(s, Fraction(1) / g[0]))

    def __rtruediv__(self, other) -> "CycloNum":
        """other / self for a rational other, e.g. Fraction(1) / self."""
        return self.inverse().scale(other)

    def ball(self, precision_bits: int = 96) -> ComplexBall:
        """Certified enclosure of the complex value."""
        acc = ComplexBall.from_rational(0)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            acc = acc + _zeta_ball(self.n, i, precision_bits).scale(c)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloNum)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def complex_approx(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(complex(c) * z**i for i, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"CycloNum(n={self.n}, {list(self.coeffs)})"


@lru_cache(maxsize=None)
def _zeta_ball(n: int, exponent: int, precision_bits: int) -> ComplexBall:
    return root_of_unity_value(RootOfUnity.make(exponent, n), precision_bits)


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out
