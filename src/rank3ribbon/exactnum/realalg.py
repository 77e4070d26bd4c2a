"""Exact real algebraic numbers via minimal polynomial + isolating interval.

Root isolation uses Sturm sequences with rational interval endpoints.  Every
sign is decided by integer evaluation at a rational point (homogeneous Horner,
`intpoly.sign_at`), so every comparison and refinement is exact and no
fraction is formed while bisecting.  A value is canonically identified by its
(irreducible, primitive, positive-leading) minimal polynomial together with
its rank among that polynomial's real roots; two values are equal iff those
agree, which makes equality decidable without separation bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import qpoly
from .intpoly import IntPoly, factor_into_irreducibles, from_q, sign_at

_DEFAULT_WIDTH = Fraction(1, 64)


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------

def sturm_chain(p: IntPoly) -> list[tuple[int, ...]]:
    """Sturm chain of a squarefree polynomial, each member scaled by a
    positive constant to primitive integer coefficients."""
    chain = [_positive_primitive(p.coeffs), _positive_primitive(p.derivative().coeffs)]
    while len(chain[-1]) > 1:
        f, g = chain[-2], chain[-1]
        # prem = lead(g)^k * (f mod g), so the next member -(f mod g) is a
        # positive multiple of -prem, or of prem when lead(g)^k < 0.
        k = len(f) - len(g) + 1
        flip = -1 if g[-1] < 0 and k % 2 else 1
        chain.append(_positive_primitive([-flip * c for c in _pseudo_remainder(f, g)]))
    return chain


def _pseudo_remainder(f: tuple[int, ...], g: tuple[int, ...]) -> list[int]:
    """Remainder of lead(g)^(deg f - deg g + 1) * f on division by g, over Z."""
    rem = list(f)
    lead, dg = g[-1], len(g) - 1
    while len(rem) > dg:
        c = rem.pop()
        shift = len(rem) - dg
        rem = [lead * r for r in rem]
        for j in range(dg):
            rem[shift + j] -= c * g[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _positive_primitive(coeffs) -> tuple[int, ...]:
    """Divide out the (positive) content, keeping every sign."""
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def _variations(signs: list[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def variations_at(chain: list[tuple[int, ...]], num: int, den: int) -> int:
    """Sign variations of the chain at num/den (den > 0)."""
    return _variations([sign_at(f, num, den) for f in chain])


def cauchy_bound(p: IntPoly) -> Fraction:
    """All real roots lie in (-B, B)."""
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else 0
    return Fraction(m, lead) + 1


# ---------------------------------------------------------------------------
# RealAlgebraic
# ---------------------------------------------------------------------------

class RealAlgebraic:
    """A real algebraic number.

    Rationals are stored exactly with a degree-1 minimal polynomial.  For
    irrational values the isolating interval is refined in place; refinement
    never changes which root is denoted.
    """

    __slots__ = ("minpoly", "_lo", "_hi", "root_index", "_rational", "_lo_sign", "_tree")

    def __init__(self, minpoly: IntPoly, lo: Fraction, hi: Fraction,
                 root_index: int, rational: Fraction | None):
        self.minpoly = minpoly
        self._lo = lo
        self._hi = hi
        self.root_index = root_index
        self._rational = rational
        # Sign of minpoly at _lo; it holds on all of (_lo, root), so it stays
        # valid as refinement moves _lo towards the root.
        self._lo_sign = None
        # (cauchy_bound(minpoly), {width: node width}) of tree_interval,
        # computed on its first call.
        self._tree = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "RealAlgebraic":
        r = Fraction(r)
        mp = IntPoly((-r.numerator, r.denominator)).primitive()
        return cls(mp, r, r, 0, r)

    @classmethod
    def _from_isolated(cls, minpoly: IntPoly, lo: Fraction, hi: Fraction,
                       root_index: int) -> "RealAlgebraic":
        if minpoly.degree == 1:
            b, a = minpoly.coeffs[1], minpoly.coeffs[0]
            return cls.from_rational(Fraction(-a, b))
        return cls(minpoly, lo, hi, root_index, None)

    # -- inspection ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_rational(self) -> bool:
        return self._rational is not None

    @property
    def rational_value(self) -> Fraction | None:
        return self._rational

    @property
    def is_integer(self) -> bool:
        return self._rational is not None and self._rational.denominator == 1

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    # -- refinement ---------------------------------------------------------

    def refine_once(self) -> None:
        if self._rational is not None:
            return
        mid = (self._lo + self._hi) / 2
        # The minimal polynomial is irreducible of degree >= 2, so it cannot
        # vanish at a rational midpoint.
        if self._lo_sign is None:
            self._lo_sign = self.minpoly.sign_at(self._lo)
        if self.minpoly.sign_at(mid) != self._lo_sign:
            self._hi = mid
        else:
            self._lo = mid

    def refine_to(self, width: Fraction) -> None:
        """Halve until the interval is at most `width` wide, on integer
        numerators; the midpoints are those of refine_once."""
        width = Fraction(width)
        if self._rational is not None or self._hi - self._lo <= width:
            return
        den = math.lcm(self._lo.denominator, self._hi.denominator)
        lo = self._lo.numerator * (den // self._lo.denominator)
        hi = self._hi.numerator * (den // self._hi.denominator)
        if self._lo_sign is None:
            self._lo_sign = sign_at(self.minpoly.coeffs, lo, den)
        lo, hi, den = _halve_isolated(self.minpoly.coeffs, lo, hi, den, self._lo_sign, width)
        self._lo, self._hi = Fraction(lo, den), Fraction(hi, den)

    def tree_interval(self, width) -> tuple[Fraction, Fraction]:
        """The coarsest node of the bisection tree of (-B, B), B =
        cauchy_bound(minpoly), that is at most `width` wide and holds the
        value.  Isolation and refinement only visit nodes of this tree, so the
        answer depends on the value and `width` alone, not on how far the
        value has been refined: a shallower interval is refined down to the
        node, a deeper one is coarsened up to its ancestor.  The bound and the
        node width of each `width` are computed once per value."""
        if self._rational is not None:
            return self._rational, self._rational
        if self._tree is None:
            self._tree = (cauchy_bound(self.minpoly), {})
        bound, steps = self._tree
        step = steps.get(width)
        if step is None:
            depth = (math.ceil(2 * bound / Fraction(width)) - 1).bit_length()
            step = steps[width] = 2 * bound / 2**depth
        self.refine_to(step)
        while True:
            lo = -bound + (self._lo + bound) // step * step
            if self._hi <= lo + step:
                return lo, lo + step
            self.refine_once()

    def sign(self) -> int:
        if self._rational is not None:
            return _sign(self._rational)
        while self._lo < 0 < self._hi:
            self.refine_once()
        return 1 if self._lo >= 0 else -1

    @property
    def is_zero(self) -> bool:
        return self._rational == 0

    # -- comparisons ----------------------------------------------------------

    def _key(self):
        if self._rational is not None:
            return ("rat", self._rational)
        return ("alg", self.minpoly.coeffs, self.root_index)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._rational is not None and self._rational == other
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._rational is not None:
            return hash(self._rational)
        return hash(self._key())

    def _cmp(self, other: "RealAlgebraic") -> int:
        if self == other:
            return 0
        if self._rational is not None and other._rational is not None:
            return -1 if self._rational < other._rational else 1
        # Distinct values: refine until the isolating intervals separate.
        while True:
            if self._hi < other._lo:
                return -1
            if other._hi < self._lo:
                return 1
            # Rational endpoints of the other value can split an interval.
            if self._rational is not None and not (other._lo < self._rational < other._hi):
                return -1 if self._rational <= other._lo else 1
            if other._rational is not None and not (self._lo < other._rational < self._hi):
                return 1 if other._rational <= self._lo else -1
            self.refine_once()
            other.refine_once()

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        return self._cmp(other) >= 0

    # -- rendering -------------------------------------------------------------

    def __float__(self) -> float:
        if self._rational is not None:
            return float(self._rational)
        self.refine_to(Fraction(1, 10**18))
        return float((self._lo + self._hi) / 2)

    def approx_fraction(self, width=Fraction(1, 10**15)) -> Fraction:
        self.refine_to(width)
        return (self._lo + self._hi) / 2

    def approx_str(self, sig: int = 12) -> str:
        return decimal_str(self.approx_fraction(Fraction(1, 10**(sig + 6))), sig)

    def __repr__(self) -> str:
        if self._rational is not None:
            return f"RealAlgebraic({self._rational})"
        return f"RealAlgebraic({self.minpoly}, ~{self.approx_str(8)})"


def _coerce(x) -> RealAlgebraic:
    if isinstance(x, RealAlgebraic):
        return x
    return RealAlgebraic.from_rational(x)


def decimal_str(value: Fraction, sig: int = 12) -> str:
    """Deterministic decimal rendering with `sig` significant digits."""
    if value == 0:
        return "0"
    negative = value < 0
    v = -value if negative else value
    exp = 0
    while v >= 10:
        v /= 10
        exp += 1
    while v < 1:
        v *= 10
        exp -= 1
    scaled = v * 10 ** (sig - 1)
    digits = int(scaled + Fraction(1, 2))
    if digits >= 10**sig:
        digits //= 10
        exp += 1
    text = str(digits)
    mantissa = text[0] + "." + text[1:]
    mantissa = mantissa.rstrip("0").rstrip(".")
    sign = "-" if negative else ""
    if -4 <= exp < sig:
        plain = Fraction(digits, 10 ** (sig - 1 - exp)) if exp < sig - 1 else Fraction(digits * 10 ** (exp - sig + 1))
        s = _plain_decimal(plain)
        return sign + s
    return f"{sign}{mantissa}e{exp:+d}"


def _plain_decimal(v: Fraction) -> str:
    num, den = v.numerator, v.denominator
    whole, rem = divmod(num, den)
    if rem == 0:
        return str(whole)
    digits = []
    while rem != 0 and len(digits) < 40:
        rem *= 10
        d, rem = divmod(rem, den)
        digits.append(str(d))
    return f"{whole}." + "".join(digits)


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

class IsolatedRoot(NamedTuple):
    value: RealAlgebraic
    multiplicity: int


def _isolate_squarefree(p: IntPoly, width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals, no wider than `width`, for all real roots
    of p, ascending.

    p must be irreducible of degree >= 2 (as `roots_of_irreducible` ensures):
    then it has no rational root, so no cut point is a root of p.  Intervals
    are halved at their midpoints.  While an interval holds several roots the
    Sturm chain is evaluated once per cut point, the variations at the ends
    being carried down from the parent; once it holds one root it is halved
    by the sign of p alone, which picks the same half as the Sturm count.
    Endpoints are integer numerators over a common denominator that doubles
    with each halving.
    """
    chain = sturm_chain(p)
    coeffs = p.coeffs
    bound = cauchy_bound(p)
    out: list[tuple[Fraction, Fraction]] = []

    def split(lo: int, hi: int, den: int, v_lo: int, v_hi: int) -> None:
        # (lo/den, hi/den] holds v_lo - v_hi roots.
        nroots = v_lo - v_hi
        if nroots == 0:
            return
        if nroots == 1:
            lo, hi, den = _halve_isolated(coeffs, lo, hi, den, sign_at(coeffs, lo, den), width)
            out.append((Fraction(lo, den), Fraction(hi, den)))
            return
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        assert sign_at(coeffs, mid, den), "an irreducible p of degree >= 2 has no rational root"
        v_mid = variations_at(chain, mid, den)
        split(lo, mid, den, v_lo, v_mid)
        split(mid, hi, den, v_mid, v_hi)

    num, den = bound.numerator, bound.denominator
    split(-num, num, den, variations_at(chain, -num, den), variations_at(chain, num, den))
    return out


def _halve_isolated(coeffs: tuple[int, ...], lo: int, hi: int, den: int, lo_sign: int,
                    width: Fraction) -> tuple[int, int, int]:
    """Halve (lo/den, hi/den), which holds exactly one root of the irreducible
    p of degree >= 2 with these coefficients, until it is at most `width`
    wide.  lo_sign is the sign of p at lo/den; the root lies in the half
    where the sign changes.  Returns the new (lo, hi, den)."""
    wnum, wden = width.numerator, width.denominator
    while (hi - lo) * wden > wnum * den:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        mid_sign = sign_at(coeffs, mid, den)
        assert mid_sign, "an irreducible p of degree >= 2 has no rational root"
        if mid_sign != lo_sign:
            hi = mid
        else:
            lo = mid
    return lo, hi, den


def isolate_real_roots(p: IntPoly, width=_DEFAULT_WIDTH) -> list[IsolatedRoot]:
    """All real roots of p as RealAlgebraic values, ascending, with multiplicity.

    Each root carries its true minimal polynomial (an irreducible factor of p)
    and an isolating interval no wider than `width`.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    found: list[IsolatedRoot] = []
    for factor, mult in factor_into_irreducibles(p):
        if factor.degree == 0:
            continue
        for val in roots_of_irreducible(factor, width):
            found.append(IsolatedRoot(val, mult))
    return sorted(found, key=_RootSortKey)


class _RootSortKey:
    """Exact comparison adapter for sorting IsolatedRoot entries."""

    def __init__(self, item: IsolatedRoot):
        self.value = item.value

    def __lt__(self, other: "_RootSortKey") -> bool:
        return self.value < other.value


def roots_of_irreducible(p: IntPoly, width=_DEFAULT_WIDTH) -> list[RealAlgebraic]:
    """Real roots of an irreducible primitive polynomial, ascending."""
    p = p.primitive()
    if p.degree == 1:
        return [RealAlgebraic.from_rational(Fraction(-p.coeffs[0], p.coeffs[1]))]
    intervals = _isolate_squarefree(p, Fraction(width))
    return [
        RealAlgebraic._from_isolated(p, lo, hi, idx)
        for idx, (lo, hi) in enumerate(intervals)
    ]


# ---------------------------------------------------------------------------
# Values defined by polynomial expressions in a known algebraic number
# ---------------------------------------------------------------------------

def _charpoly_of_multiplication(minpoly: IntPoly, expr: qpoly.QPoly) -> qpoly.QPoly:
    """Characteristic polynomial of multiplication by expr(x) on Q[x]/minpoly.

    The minimal polynomial of expr(alpha) divides this.
    """
    d = minpoly.degree
    m = minpoly.to_q()
    # cols[i][j] = coefficient of x^j in expr * x^i mod m.
    cols = []
    for i in range(d):
        col = qpoly.qmod(qpoly.qmul(expr, qpoly.qnormalize([0] * i + [1])), m)
        cols.append([col[j] if j < len(col) else Fraction(0) for j in range(d)])
    return qpoly.charpoly([[cols[i][j] for i in range(d)] for j in range(d)])


def _interval_eval(expr: qpoly.QPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval extension of expr over [lo, hi] via interval Horner."""
    acc_lo, acc_hi = Fraction(0), Fraction(0)
    for c in reversed(expr):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return acc_lo, acc_hi


def from_poly_expr(alpha: RealAlgebraic, expr) -> RealAlgebraic:
    """The real algebraic number expr(alpha), for rational-coefficient expr."""
    expr = qpoly.qnormalize(expr)
    if alpha.is_rational:
        return RealAlgebraic.from_rational(qpoly.qeval(expr, alpha.rational_value))
    reduced = qpoly.qmod(expr, alpha.minpoly.to_q())
    if qpoly.qdegree(reduced) <= 0:
        return RealAlgebraic.from_rational(reduced[0] if reduced else Fraction(0))
    charpoly = from_q(_charpoly_of_multiplication(alpha.minpoly, reduced))
    candidates: list[RealAlgebraic] = []
    for factor, _mult in factor_into_irreducibles(charpoly):
        if factor.degree >= 1:
            candidates.extend(roots_of_irreducible(factor))
    width = Fraction(1, 64)
    while True:
        lo, hi = _interval_eval(reduced, *alpha.interval())
        hits = [c for c in candidates if _overlaps((lo, hi), _refined(c, width))]
        if len(hits) == 1:
            hit = hits[0]
            if hit.is_rational:
                return hit
            # Tighten the stored interval to the expression's own bounds so
            # later refinement stays cheap.
            return RealAlgebraic._from_isolated(
                hit.minpoly, *_refined(hit, width), hit.root_index
            )
        alpha.refine_once()
        width /= 2
        for c in candidates:
            c.refine_to(width)


def _refined(x: RealAlgebraic, width: Fraction) -> tuple[Fraction, Fraction]:
    x.refine_to(width)
    return x.interval()


def _overlaps(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]
