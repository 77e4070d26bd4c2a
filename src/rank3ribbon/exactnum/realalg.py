"""Exact real algebraic numbers via minimal polynomial + isolating interval.

A value is canonically identified by its (irreducible, primitive,
positive-leading) minimal polynomial together with its rank among that
polynomial's real roots; two values are equal iff those agree, which makes
equality decidable without separation bounds.

Every irrational value is located one way.  Its minimal polynomial is an
irreducible factor of an integer polynomial the caller already holds: a
characteristic cubic, the Casimir polynomial of `fusion.global_fp_dim`, a
scaled minimal polynomial, a cosine minimal polynomial.  `from_poly_expr`
takes that polynomial rather than building one.  Root isolation uses integer
Sturm chains and stops as soon as the roots are separated; a caller that needs
a narrow interval asks for it (`refine_to`, `tree_interval`), and
`approx_str` and `__float__` render the midpoint of a `tree_interval` node,
`approx_str` through the integer digit rounding of `decimal_str`.  There is
one bisection, `RealAlgebraic.refine_to`: it halves on integer numerators
over a common denominator by the sign of the minimal polynomial (integer
Horner, `intpoly.sign_at`), and comparisons, signs and the root matching
of `from_poly_expr` all halve through it.  So every interval of an
irrational value, from isolation onwards, is a node of the bisection tree of
(-B, B), B = cauchy_bound(minpoly), and no fraction is formed while
bisecting, nor inside the interval Horner (`_interval_eval`) that matches
the roots of `from_poly_expr`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import qpoly
from .intpoly import IntPoly, factor_into_irreducibles, sign_at


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
        # valid as refinement moves _lo towards the root.  Set by refine_to.
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

    def refine_to(self, width) -> None:
        """Halve until the interval is at most `width` wide.  This is the
        value's only bisection: each step keeps the half where the minimal
        polynomial changes sign, with the endpoints as integer numerators over
        a common denominator that doubles per step.  The minimal polynomial
        is irreducible of degree >= 2, so it has no rational root and never
        vanishes at a midpoint."""
        width = Fraction(width)
        if self._rational is not None or self._hi - self._lo <= width:
            return
        coeffs = self.minpoly.coeffs
        den = math.lcm(self._lo.denominator, self._hi.denominator)
        lo = self._lo.numerator * (den // self._lo.denominator)
        hi = self._hi.numerator * (den // self._hi.denominator)
        if self._lo_sign is None:
            self._lo_sign = sign_at(coeffs, lo, den)
        wnum, wden = width.numerator, width.denominator
        while (hi - lo) * wden > wnum * den:
            mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
            mid_sign = sign_at(coeffs, mid, den)
            assert mid_sign, "an irreducible p of degree >= 2 has no rational root"
            if mid_sign != self._lo_sign:
                hi = mid
            else:
                lo = mid
        self._lo, self._hi = Fraction(lo, den), Fraction(hi, den)

    def tree_interval(self, width) -> tuple[Fraction, Fraction]:
        """The coarsest node of the bisection tree of (-B, B), B =
        cauchy_bound(minpoly), that is at most `width` wide and holds the
        value.  Isolation and refinement only visit nodes of this tree, so the
        answer depends on the value and `width` alone, not on how far the
        value has been refined: a shallower interval is refined down to the
        node, a deeper one is coarsened up to its ancestor.  The bound and the
        node width of each `width` (keyed by its integers: a Fraction hash
        is slow) are computed once per value.  Every interval of the value
        is already a node of this tree, so after refine_to the interval lies
        inside the node."""
        if self._rational is not None:
            return self._rational, self._rational
        if self._tree is None:
            self._tree = (cauchy_bound(self.minpoly), {})
        bound, steps = self._tree
        key = (width.numerator, width.denominator)
        step = steps.get(key)
        if step is None:
            depth = (math.ceil(2 * bound / Fraction(width)) - 1).bit_length()
            step = steps[key] = 2 * bound / 2**depth
        self.refine_to(step)
        if self._hi - self._lo == step:  # refined to the node, not below it
            return self._lo, self._hi
        lo = -bound + (self._lo + bound) // step * step
        assert self._hi <= lo + step, "the interval is not a node of the bisection tree"
        return lo, lo + step

    def sign(self) -> int:
        if self._rational is not None:
            return _sign(self._rational)
        while self._lo < 0 < self._hi:
            _halve(self)
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
            _halve(self)
            _halve(other)

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

    # Both read the midpoint of a tree node, not of the current interval, so
    # the digits do not depend on how far earlier work refined the value.

    def __float__(self) -> float:
        lo, hi = self.tree_interval(Fraction(1, 10**18))
        return float(lo + hi) / 2

    def approx_str(self, sig: int = 12) -> str:
        lo, hi = self.tree_interval(Fraction(1, 10**(sig + 6)))
        return decimal_str((lo + hi) / 2, sig)

    def __repr__(self) -> str:
        if self._rational is not None:
            return f"RealAlgebraic({self._rational})"
        return f"RealAlgebraic({self.minpoly}, ~{self.approx_str(8)})"


def _halve(x: RealAlgebraic) -> None:
    """One bisection step of an irrational value (none for a rational)."""
    x.refine_to((x._hi - x._lo) / 2)


def _coerce(x) -> RealAlgebraic:
    if isinstance(x, RealAlgebraic):
        return x
    return RealAlgebraic.from_rational(x)


def decimal_str(value: Fraction, sig: int = 12) -> str:
    """Deterministic decimal rendering with `sig` significant digits, rounded
    half up: plain between 1e-4 and 10^sig, scientific outside.  All on
    integers: the decimal exponent comes from the digit counts of numerator
    and denominator, and the digits from one rounding division."""
    num, den = value.numerator, value.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    # 10^(exp-1) < num/den < 10^(exp+1) for exp the difference of digit
    # counts; one comparison puts 10^exp <= num/den < 10^(exp+1).
    exp = len(str(num)) - len(str(den))
    if num * 10 ** max(-exp, 0) < den * 10 ** max(exp, 0):
        exp -= 1
    # digits = floor(num/den * 10^shift + 1/2), a sig-digit integer unless
    # the rounding carries to 10^sig.
    shift = sig - 1 - exp
    up, down = 10 ** max(shift, 0), 10 ** max(-shift, 0)
    digits = (2 * num * up + den * down) // (2 * den * down)
    if digits >= 10**sig:
        digits //= 10
        exp += 1
    text = str(digits)
    if -4 <= exp < sig:
        # The value is text with the point after digit exp + 1.
        if exp < 0:
            whole, frac = "0", "0" * (-exp - 1) + text
        else:
            whole, frac = text[:exp + 1], text[exp + 1:]
        frac = frac.rstrip("0")
        return sign + whole + ("." + frac if frac else "")
    mantissa = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{exp:+d}"


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

class IsolatedRoot(NamedTuple):
    value: RealAlgebraic
    multiplicity: int


def _isolate_squarefree(p: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for all real roots of p, ascending: the
    first nodes of the bisection tree of (-B, B), B = cauchy_bound(p), that
    hold one root each.

    p must be irreducible of degree >= 2 (as `roots_of_irreducible` ensures):
    then it has no rational root, so no cut point is a root of p.  Each cut
    point evaluates the Sturm chain once, the variations at the ends being
    carried down from the parent.  Endpoints are integer numerators over a
    common denominator that doubles with each halving.
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


def isolate_real_roots(p: IntPoly) -> list[IsolatedRoot]:
    """All real roots of p as RealAlgebraic values, ascending, with multiplicity.

    Each root carries its true minimal polynomial (an irreducible factor of p)
    and an interval that separates it from the other roots of that factor.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    found = [
        IsolatedRoot(val, mult)
        for factor, mult in factor_into_irreducibles(p)
        for val in roots_of_irreducible(factor)
    ]
    return sorted(found, key=lambda root: root.value)


def roots_of_irreducible(p: IntPoly) -> list[RealAlgebraic]:
    """Real roots of an irreducible polynomial, ascending, each with p made
    primitive as its minimal polynomial."""
    p = p.primitive()
    if p.degree == 1:
        return [RealAlgebraic.from_rational(Fraction(-p.coeffs[0], p.coeffs[1]))]
    return [
        RealAlgebraic(p, lo, hi, idx, None)
        for idx, (lo, hi) in enumerate(_isolate_squarefree(p))
    ]


# ---------------------------------------------------------------------------
# Values defined by polynomial expressions in a known algebraic number
# ---------------------------------------------------------------------------

def _interval_eval(expr: qpoly.QPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval extension of expr over [lo, hi] via interval Horner, on
    integers: L * expr has integer coefficients for L the lcm of their
    denominators, both endpoints are numerators over one denominator D, and
    after k steps the accumulator's endpoints are numerators over L * D^k.
    That denominator is positive, so the min and max of the numerators are
    those of the values."""
    scale = math.lcm(*(c.denominator for c in expr))
    coeffs = [c.numerator * (scale // c.denominator) for c in expr]
    den = math.lcm(lo.denominator, hi.denominator)
    lo_n, hi_n = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    acc_lo = acc_hi = 0
    power = 1
    for c in reversed(coeffs):
        power *= den
        products = (acc_lo * lo_n, acc_lo * hi_n, acc_hi * lo_n, acc_hi * hi_n)
        acc_lo, acc_hi = min(products) + c * power, max(products) + c * power
    return Fraction(acc_lo, scale * power), Fraction(acc_hi, scale * power)


def from_poly_expr(alpha: RealAlgebraic, expr, poly: IntPoly) -> RealAlgebraic:
    """The real algebraic number expr(alpha), for rational-coefficient expr,
    given a nonzero integer polynomial `poly` that has it as a root.

    The roots of `poly` are isolated, and the value is the one whose interval
    meets the interval image of expr over alpha's interval.  Interval Horner
    is inclusion-monotone, so while several roots meet the image, alpha and
    those roots are halved and the others are dropped.
    """
    expr = qpoly.qnormalize(expr)
    if alpha.is_rational:
        return RealAlgebraic.from_rational(qpoly.qeval(expr, alpha.rational_value))
    reduced = qpoly.qmod(expr, alpha.minpoly.to_q())
    if qpoly.qdegree(reduced) <= 0:
        return RealAlgebraic.from_rational(reduced[0] if reduced else Fraction(0))
    candidates = [
        root for factor, _mult in factor_into_irreducibles(poly)
        for root in roots_of_irreducible(factor)
    ]
    while True:
        lo, hi = _interval_eval(reduced, *alpha.interval())
        candidates = [c for c in candidates if c._lo <= hi and lo <= c._hi]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise ValueError("expr(alpha) is not a root of the given polynomial")
        _halve(alpha)
        for c in candidates:
            _halve(c)
