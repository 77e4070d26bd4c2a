"""Roots of unity and exact cyclotomic arithmetic.

A root of unity is a reduced turn fraction p/q standing for exp(2*pi*i*p/q).
Its real and imaginary parts are halves of 2cos(2*pi*r) values, which are
roots of explicit integer minimal polynomials; certified enclosures therefore
come from root isolation rather than transcendental evaluation.

CycloNum provides exact field arithmetic in Q(zeta_n) on the power basis,
reduced modulo the n-th cyclotomic polynomial.  It is the certification
backend for the S-matrix checks.  Every Phi_n is monic with integer
coefficients, so the whole layer runs on Python ints: `cyclotomic_poly` by
integer long division, an element as integer numerators over one common
denominator, a product as an integer convolution folded back by a cached
integer table of x^e mod Phi_n, and an inverse as an extended Euclid on
integer vectors.  Ball enclosures (`CycloNum.ball`) sum the integer
numerators against cached integer balls of the powers of zeta.
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
    """The n-th cyclotomic polynomial: x^n - 1 divided by every Phi_d for a
    proper divisor d of n, each a monic integer division."""
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
    return tuple(roots_of_irreducible(cos_minimal_poly(q)))


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
        return RootOfUnity.make(self.p * other.q + other.p * self.q, self.q * other.q)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.make(-self.p, self.q)

    conjugate = inverse

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.make(self.p * e, self.q)

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
    # Tree nodes, so the ball does not depend on earlier refinement of the
    # shared cosine values.  sin(2*pi*t) = cos(2*pi*(t - 1/4)).
    re = ComplexBall.from_real_interval(*two_cos(r.turn).tree_interval(target))
    im = ComplexBall.from_real_interval(*two_cos(r.turn - Fraction(1, 4)).tree_interval(target))
    ball = (re + im * _I).scale(Fraction(1, 2))
    assert ball.rad <= Fraction(2, 2**precision_bits)
    return ball


def roots_of_unity_up_to(max_order: int) -> list[RootOfUnity]:
    """All roots of unity of order <= max_order, sorted by (order, turn)."""
    return [
        RootOfUnity(p, q) for q in range(1, max_order + 1) for p in range(q) if math.gcd(p, q) == 1
    ]


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(zeta_n)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _power_basis(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(coefficients of Phi_n, table of x^e mod Phi_n for e in [0, n)).

    Phi_n is monic, so every remainder has integer coefficients."""
    phi = cyclotomic_poly(n).coeffs
    deg = len(phi) - 1
    table = []
    cur = (1,) + (0,) * (deg - 1)
    for _ in range(n):
        table.append(qpoly.qtrim(cur))
        top = cur[-1]
        cur = (0,) + cur[:-1]
        if top:
            cur = tuple(c - top * p for c, p in zip(cur, phi))
    return phi, tuple(table)


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi(n), rows): row e - phi(n) is x^e mod Phi_n for e in
    [phi(n), 2*phi(n) - 1) as sparse (index, coefficient) pairs, which folds
    the high half of a product back onto the power basis."""
    phi, table = _power_basis(n)
    deg = len(phi) - 1
    return deg, tuple(
        tuple((k, c) for k, c in enumerate(table[e % n]) if c)  # x^n = 1
        for e in range(deg, 2 * deg - 1)
    )


class CycloNum:
    """Element of Q(zeta_n) on the power basis 1, zeta, ..., zeta^(phi(n)-1).

    The value is sum(num[i] * zeta^i) / den with integer numerators `num`
    (no trailing zero) and one positive denominator `den` coprime to their
    content; zero is ((), 1).  That form is canonical, so equality and
    hashing compare (n, num, den).  Sums and differences stay on integers,
    and a product is an integer convolution folded back by a cached integer
    table of x^e mod Phi_n.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: qpoly.QPoly):
        """From rational coefficients (int or Fraction), lowest degree first;
        a coefficient of zeta^e with e >= phi(n) is folded onto the power
        basis through x^e mod Phi_n, so the result is canonical."""
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > 1:
            phi, table = _power_basis(n)
            deg = len(phi) - 1
            high, num = num[deg:], num[:deg]
            for e, c in enumerate(high, deg):
                for k, t in enumerate(table[e % n]):  # zeta^n = 1
                    num[k] += c * t
        self.n = n
        self.num, self.den = _reduce(num, den)

    @staticmethod
    def _make(n: int, num: list[int], den: int) -> "CycloNum":
        """From integer numerators over den > 0, not necessarily reduced."""
        out = object.__new__(CycloNum)
        out.n = n
        out.num, out.den = _reduce(num, den)
        return out

    @staticmethod
    def from_rational(n: int, value) -> "CycloNum":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return CycloNum._make(n, [value.numerator], value.denominator)

    @staticmethod
    def from_root(root: RootOfUnity, n: int) -> "CycloNum":
        if n % root.q != 0:
            raise ValueError(f"order {root.q} does not divide ambient order {n}")
        exponent = root.p * (n // root.q)
        _, table = _power_basis(n)
        return CycloNum._make(n, list(table[exponent % n]), 1)

    @property
    def coeffs(self) -> qpoly.QPoly:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check(self, other: "CycloNum") -> None:
        if self.n != other.n:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "CycloNum") -> "CycloNum":
        return self._combine(other, 1)

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        return self._combine(other, -1)

    def _combine(self, other: "CycloNum", sign: int) -> "CycloNum":
        """self + sign * other on integer numerators."""
        self._check(other)
        a, b = self.num, other.num
        if not b:
            return self
        g = math.gcd(self.den, other.den)
        ma, mb = other.den // g, sign * (self.den // g)
        out = [x * ma for x in a] + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y * mb
        return CycloNum._make(self.n, out, self.den * ma)

    def __neg__(self) -> "CycloNum":
        return CycloNum._make(self.n, [-c for c in self.num], self.den)

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        a, b = self.num, other.num
        if not a or not b:
            return CycloNum._make(self.n, [], 1)
        if len(a) < len(b):
            a, b = b, a
        bz = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in bz:
                    out[i + j] += x * y
        deg, rows = _fold_rows(self.n)
        for e in range(deg, len(out)):
            c = out[e]
            if c:
                for k, t in rows[e - deg]:
                    out[k] += c * t
        del out[deg:]
        return CycloNum._make(self.n, out, self.den * other.den)

    def scale(self, c) -> "CycloNum":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return CycloNum._make(self.n, [x * c.numerator for x in self.num], self.den * c.denominator)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse in Q(zeta_n), via extended gcd with Phi_n."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        phi, _ = _power_basis(self.n)
        s, c = _integer_inverse(self.num, phi)
        if c < 0:
            s, c = [-x for x in s], -c
        return CycloNum._make(self.n, [x * self.den for x in s], c)

    def __rtruediv__(self, other) -> "CycloNum":
        """other / self for a rational other, e.g. Fraction(1) / self."""
        return self.inverse().scale(other)

    def ball(self, precision_bits: int = 96) -> ComplexBall:
        """Certified enclosure of the complex value: the integer numerators
        summed against the cached balls of zeta^i, divided by den once."""
        acc = _ZERO_BALL
        for i, c in enumerate(self.num):
            if c:
                acc = acc + _zeta_ball(self.n, i, precision_bits).scale(c)
        return acc if self.den == 1 else acc.scale(Fraction(1, self.den))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloNum)
            and self.n == other.n
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    def __repr__(self) -> str:
        return f"CycloNum(n={self.n}, {list(self.coeffs)})"


def _integer_inverse(num: tuple[int, ...], phi: tuple[int, ...]) -> tuple[list[int], int]:
    """(s, c) with s * num = c mod phi for a nonzero integer c, where num is
    nonzero, of lower degree than phi, and phi is irreducible.

    Extended Euclid on integer vectors: every remainder r is kept with its
    cofactor s, r = s * num mod phi.  A leading term of r0 is cancelled by
    the pair (a*r0 - b*x^k*r1, a*s0 - b*x^k*s1), and each new remainder pair
    is divided by its joint content.  As phi is irreducible the chain ends
    in a nonzero constant c.
    """
    r0, s0 = list(phi), []
    r1, s1 = list(num), [1]
    while len(r1) > 1:
        lead, d1 = r1[-1], len(r1) - 1
        while len(r0) > d1:
            shift = len(r0) - 1 - d1
            g = math.gcd(lead, r0[-1])
            a, b = lead // g, r0[-1] // g
            r0 = [x * a for x in r0]
            s0 = [x * a for x in s0] + [0] * (shift + len(s1) - len(s0))
            for i, y in enumerate(r1, shift):
                r0[i] -= b * y
            for i, y in enumerate(s1, shift):
                s0[i] -= b * y
            while r0 and not r0[-1]:
                r0.pop()
        assert r0, "phi must be coprime to a nonzero element"
        while not s0[-1]:
            s0.pop()
        g = math.gcd(*r0, *s0)
        r0, s0, r1, s1 = r1, s1, [x // g for x in r0], [x // g for x in s0]
    return s1, r1[0]


def _reduce(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Canonical (numerators, denominator): trailing zeros dropped and the
    common content of the numerators and den divided out."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


_ZERO_BALL, _I = ComplexBall(0, 0), ComplexBall(0, 1)


@lru_cache(maxsize=None)
def _zeta_ball(n: int, exponent: int, precision_bits: int) -> ComplexBall:
    return root_of_unity_value(RootOfUnity.make(exponent, n), precision_bits)


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out
