"""Roots of unity and exact cyclotomic arithmetic.

A root of unity is a reduced turn fraction p/q standing for exp(2*pi*i*p/q).
Its real and imaginary parts are halves of 2cos(2*pi*r) values, which are
roots of explicit integer minimal polynomials; certified enclosures therefore
come from exactly located roots rather than transcendental evaluation.

CycloNum provides exact field arithmetic in Q(zeta_n) on the power basis,
reduced modulo the n-th cyclotomic polynomial.  It is the certification
backend for the S-matrix checks.  Every Phi_n is monic with integer
coefficients, so the whole layer runs on Python ints: `cyclotomic_poly` by
integer long division, an element as integer numerators over one common
denominator, a product as an integer convolution folded back by a cached
integer table of x^e mod Phi_n, and an inverse as an extended Euclid on
integer vectors.  A combination sum c * zeta^e * v (`rotated_sum`) is a
sum of cyclic shifts in Z[x]/(x^n - 1), folded and reduced once.  Ball
enclosures (`CycloNum.ball`) are one integer dot product of the numerators
with cached integer balls of the powers of zeta.

`embed_real_algebraic` decides whether a real algebraic integer of degree
at most 3 lies in Q(zeta_n), and if so names it as a CycloNum, once per
(minimal polynomial, n): through the Gaussian periods of the real subfields
of prime degree, with an exact check of every answer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from . import qpoly
from .ball import ComplexBall
from .intpoly import IntPoly, cubic_discriminant, is_perfect_square
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
    """The roots of cos_minimal_poly(q), ascending: the values 2cos(2*pi*r/q)
    for r coprime to q, located from their floats."""
    estimates = sorted(2 * math.cos(2 * math.pi * r / q)
                       for r in range(1, q // 2 + 1) if math.gcd(r, q) == 1)
    return tuple(roots_of_irreducible(cos_minimal_poly(q), estimates))


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
    [phi(n), max(n, 2*phi(n) - 1)) as sparse (index, coefficient) pairs,
    which folds the high half of a product, or a vector of Z[x]/(x^n - 1),
    back onto the power basis."""
    phi, table = _power_basis(n)
    deg = len(phi) - 1
    return deg, tuple(
        tuple((k, c) for k, c in enumerate(table[e % n]) if c)  # x^n = 1
        for e in range(deg, max(n, 2 * deg - 1))
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
        """Certified enclosure of the complex value: one integer dot product
        of the numerators with the cached balls of zeta^i, for the exponents
        that occur, over den."""
        return ComplexBall.dot(
            [(c, _zeta_ball(self.n, i, precision_bits)) for i, c in enumerate(self.num) if c],
            self.den,
        )

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


def rotated_sum(n: int, terms) -> CycloNum:
    """sum c * zeta_n^e * v over the terms (c, e, v): c an int or Fraction,
    e any integer, v a CycloNum of order n.

    Each term rotates v's integer numerators by e in Z[x]/(x^n - 1), where
    multiplying by zeta^e is a cyclic shift, over one common denominator.
    The sum is folded onto the power basis once (x^e mod Phi_n for e >=
    phi(n)) and reduced once, so it forms no product and no intermediate
    CycloNum."""
    parts = []
    den = 1
    for c, e, v in terms:
        if v.n != n:
            raise ValueError("mixed cyclotomic orders")
        if c and v.num:
            parts.append((c, e % n, v))
            den = lcm(den, c.denominator * v.den)
    acc = [0] * n
    for c, e, v in parts:
        m = c.numerator * (den // (c.denominator * v.den))
        split = n - e  # numerator i lands on i + e, or on i + e - n past the end
        for j, x in enumerate(v.num[:split], e):
            acc[j] += m * x
        for j, x in enumerate(v.num[split:]):
            acc[j] += m * x
    deg, rows = _fold_rows(n)
    out = acc[:deg]
    for e in range(deg, n):
        c = acc[e]
        if c:
            for k, t in rows[e - deg]:
                out[k] += c * t
    return CycloNum._make(n, out, den)


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


_ZERO_BALL, _ONE_BALL, _I = ComplexBall(0, 0), ComplexBall(1, 0), ComplexBall(0, 1)


@lru_cache(maxsize=None)
def _zeta_ball(n: int, exponent: int, precision_bits: int) -> ComplexBall:
    return root_of_unity_value(RootOfUnity.make(exponent, n), precision_bits)


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def euler_phi(n: int) -> int:
    """The degree phi(n) of Q(zeta_n), by trial division of n."""
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


# ---------------------------------------------------------------------------
# Real algebraic numbers inside Q(zeta_n)
# ---------------------------------------------------------------------------

def embed_real_algebraic(alpha: RealAlgebraic, n: int) -> CycloNum | None:
    """alpha as an element of Q(zeta_n), or None when the field does not
    hold it; alpha is an algebraic integer of degree at most 3 with minimal
    polynomial m.

    So the minimal polynomial f of alpha over Q(zeta_n) is x - beta for an
    answer beta, and m for None: a polynomial of degree <= 3 with no root in
    a field is irreducible over it.  The answer is taken once per (m, n),
    for every root of m at once (`_roots_in_cyclotomic_field`)."""
    if alpha.is_rational:
        return CycloNum.from_rational(n, alpha.rational_value)
    roots = _roots_in_cyclotomic_field(alpha.minpoly, n)
    return None if roots is None else roots[alpha.root_index]


@lru_cache(maxsize=None)
def _roots_in_cyclotomic_field(m: IntPoly, n: int) -> tuple[CycloNum, ...] | None:
    """The real roots of the monic irreducible m of degree d in {2, 3} as
    elements of Q(zeta_n), ascending, or None when Q(zeta_n) holds none.

    K = Q(alpha) meets Q(zeta_n) in a field whose degree divides d and
    phi(n), so K is outside it when gcd(d, phi(n)) = 1.  An S3 cubic (non-
    square discriminant) is never inside: every subfield of Q(zeta_n) is
    abelian.  Otherwise a real K of prime degree d inside Q(zeta_n) is the
    fixed field of a subgroup H of index d of (Z/n)^x with -1 in H, and K =
    Q(eta) for each irrational period eta of H (`_real_subfield_periods`).
    With P the minimal polynomial of eta, disc(P) O_K lies in Z[eta], so
    alpha = r(eta) for r in Q[x] of degree < d with integer coefficients
    over disc(P) (`_integer_interpolant`).  Such an r is accepted only when
    m(r(eta)) = 0 holds exactly; its values at the conjugates of eta are
    then all the roots of m, put in order by certified balls.  Trying every
    H is complete, so None is a proof that no root of m lies in Q(zeta_n).
    """
    d = m.degree
    assert m.is_monic and d in (2, 3), "a monic generator of degree 2 or 3"
    if math.gcd(d, euler_phi(n)) == 1:
        return None
    if d == 3 and not is_perfect_square(cubic_discriminant(m)):
        return None
    roots = roots_of_irreducible(m)  # all real: a C3 cubic or a real quadratic
    for etas in _real_subfield_periods(n, d):
        vandermonde = _product(a - b for a, b in combinations(etas, 2))
        disc = (vandermonde * vandermonde).num[0]  # disc(P), an integer
        for conjugates in permutations(roots):
            ks = _integer_interpolant(etas, conjugates, disc)
            if ks is None:
                continue
            betas = [_horner(ks, eta).scale(Fraction(1, disc)) for eta in etas]
            if not _horner(m.coeffs, betas[0]):
                return _ascending(betas)
    return None


@lru_cache(maxsize=None)
def _real_subfield_periods(n: int, d: int) -> tuple[tuple[CycloNum, ...], ...]:
    """For each subgroup H of prime index d of (Z/n)^x with -1 in H: the d
    conjugates eta_g = sum_{a in H} zeta_n^(a b g), one per coset gH (the
    coset H first), of the first period with b = 1, 2, ... that is
    irrational.  Periods are the traces of the zeta_n^b down to the fixed
    field of H, so they span it and some b < phi(n) gives one; the field has
    prime degree, so that period generates it.

    Such an H contains M = <G^d, -1> for G = (Z/n)^x, and is a hyperplane of
    the F_d-space G/M: each element of G gets its coordinates in G/M on a
    basis of representatives, and each hyperplane is the kernel of one
    functional, taken with leading coefficient 1."""
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    coords = {pow(a, d, n): () for a in units}
    coords.update({n - a: () for a in list(coords)})
    for g in units:
        if g not in coords:
            coords = {
                a * pow(g, k, n) % n: c + (k,) for k in range(d) for a, c in coords.items()
            }
    rank = len(coords[1])
    out = []
    for f in product(range(d), repeat=rank):
        if next((v for v in f if v), 0) != 1:
            continue
        level = {a: sum(x * y for x, y in zip(f, c)) % d for a, c in coords.items()}
        subgroup = [a for a, v in level.items() if v == 0]
        cosets = [min(a for a, v in level.items() if v == j) for j in range(d)]
        for b in range(1, n):
            etas = tuple(_period(n, subgroup, b * g) for g in cosets)
            if len(etas[0].num) > 1:
                out.append(etas)
                break
        else:
            raise AssertionError("the periods span the fixed field of H")
    return tuple(out)


def _period(n: int, subgroup: list[int], b: int) -> CycloNum:
    coeffs = [0] * n
    for a in subgroup:
        coeffs[a * b % n] += 1
    return CycloNum(n, coeffs)


def _horner(coeffs, x: CycloNum) -> CycloNum:
    """The rational polynomial `coeffs` (lowest degree first) at x."""
    acc = CycloNum.from_rational(x.n, 0)
    for c in reversed(coeffs):
        acc = acc * x + CycloNum.from_rational(x.n, c)
    return acc


def _product(values) -> CycloNum:
    out = None
    for v in values:
        out = v if out is None else out * v
    return out


def _integer_interpolant(etas, conjugates, disc: int) -> list[int] | None:
    """The integer coefficients of disc * r, for the r of degree < d with
    r(eta_g) = conjugates[g], or None when one is not an integer.

    disc * r(x) = sum_g conjugates[g] D_g W_g^2 prod_{h != g} (x - eta_h),
    with D_g = prod_{h != g} (eta_g - eta_h) and W_g the Vandermonde product
    of the other periods (disc = D_g^2 W_g^2), so the coefficients take no
    division.  They are enclosed in balls at doubling precision until every
    radius is below 1/4; then a coefficient is an integer only if its ball
    holds the integer nearest its center."""
    d = len(etas)
    quarter = Fraction(1, 4)
    prec = 96
    while True:
        eb = [e.ball(prec) for e in etas]
        rb = [
            ComplexBall.from_real_interval(*r.tree_interval(Fraction(1, 2**prec)))
            for r in conjugates
        ]
        coeffs = [_ZERO_BALL] * d
        for g in range(d):
            others = [h for h in range(d) if h != g]
            w = rb[g]
            for h in others:
                w = w * (eb[g] - eb[h])
            for h1, h2 in combinations(others, 2):
                diff = eb[h1] - eb[h2]
                w = w * diff * diff
            basis = [_ONE_BALL]
            for h in others:  # times (x - eta_h)
                shifted = [_ZERO_BALL, *basis]
                scaled = [eb[h] * c for c in basis] + [_ZERO_BALL]
                basis = [a - b for a, b in zip(shifted, scaled)]
            for i, c in enumerate(basis):
                coeffs[i] = coeffs[i] + w * c
        if all(c.rad < quarter for c in coeffs):
            break
        prec *= 2
    out = []
    for c in coeffs:
        k = round(c.re)
        if abs(c.re - k) > c.rad:
            return None
        out.append(k)
    return out


def _ascending(values: list[CycloNum]) -> tuple[CycloNum, ...]:
    """Distinct real values of Q(zeta_n) in ascending order, sorted once
    their balls have pairwise disjoint real intervals."""
    prec = 96
    while True:
        spans = sorted(
            ((b.re - b.rad, b.re + b.rad), i)
            for i, b in ((i, v.ball(prec)) for i, v in enumerate(values))
        )
        if all(a[0][1] < b[0][0] for a, b in zip(spans, spans[1:])):
            return tuple(values[i] for _, i in spans)
        prec *= 2
