"""Exact real algebraic numbers via minimal polynomial + isolating interval.

A value is canonically identified by its (irreducible, primitive,
positive-leading) minimal polynomial together with its rank among that
polynomial's real roots; two values are equal iff those agree, which makes
equality decidable without separation bounds.

Every irrational value is located one way, by `roots_of_irreducible`.  Its
minimal polynomial is an irreducible factor of an integer polynomial the
caller already holds: a characteristic cubic, the Casimir polynomial of
`fusion.global_fp_dim`, a scaled minimal polynomial, a cosine minimal
polynomial.  `from_poly_expr` takes that polynomial rather than building
one.  The roots are placed straight on their nodes of width RENDER_WIDTH
from float estimates of all of them: `real_root_estimates` for a quadratic
or cubic, or the caller's where it knows them (the cosines of
`cyclotomic.two_cos`).  A placement stands only under an exact certificate:
Fourier-Budan on the top node, and sign changes of the polynomial on deg p
distinct nodes.  Where it fails (roots that floats cannot separate,
coefficients beyond float range, roots that are not all real), the roots
are isolated instead by integer Sturm chains (`isolate_irreducible`), which
stop as soon as the roots are separated.  `largest_root` locates the top
root alone in the same two steps.  No caller chooses between them: either
way the value is a node of the bisection tree of (-B, B), B =
cauchy_bound(minpoly), held as integers (index j at depth d), and every
rendering reads the node of its width, which depends on the value alone.

A caller that needs a narrow interval asks for it (`refine_to`,
`tree_interval`), and `approx_str` and `__float__` render the midpoint of a
`tree_interval` node from its integers, `approx_str` through the integer
digit rounding of `decimal_str`.  There is one refinement,
`RealAlgebraic.refine_to`.  With NEWTON_LEVELS or more levels to go it
jumps to the target depth: a float Newton estimate inside the node, then
integer Newton on the target depth's grid, accepted only when the exact signs
of the minimal polynomial at the two ends of the target node differ.  The
current node holds exactly one root, so that is the node bisection reaches.
Otherwise it bisects by the sign of the minimal polynomial at each midpoint
(integer Horner, `intpoly.sign_at`).  Comparisons, signs and the root matching
of `from_poly_expr` halve through the same bisection.  No fraction is formed
while refining or rendering, nor inside the interval Horner
(`_interval_eval`) that matches the roots of `from_poly_expr`; `interval` and
`tree_interval` hand reduced Fractions to the callers that read endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import qpoly
from .intpoly import IntPoly, factor_into_irreducibles, scaled_value, sign_at


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
    return Fraction(*_bound_pair(p.coeffs))


def _bound_pair(coeffs: tuple[int, ...]) -> tuple[int, int]:
    """cauchy_bound as integers (bn, bd), B = bn/bd = 1 + max|c_i|/|c_n|,
    not reduced: the tree depends on the value of B alone."""
    lead = abs(coeffs[-1])
    return max(map(abs, coeffs[:-1]), default=0) + lead, lead


# Width of the node that `__float__` and a 12-digit `approx_str` read.
RENDER_WIDTH = Fraction(1, 10**18)

# Levels below which refine_to bisects rather than try a Newton jump: on the
# character cubics a jump costs about as much as 20 bisection steps.
NEWTON_LEVELS = 20

# Bits of the Newton grid below the target node width.
_GUARD = 16


# ---------------------------------------------------------------------------
# RealAlgebraic
# ---------------------------------------------------------------------------

class RealAlgebraic:
    """A real algebraic number.

    Rationals are stored exactly with a degree-1 minimal polynomial.  An
    irrational value is held as a node of the bisection tree of (-B, B),
    B = bn/bd = cauchy_bound(minpoly): node j at depth d is the interval
    [B(2j/2^d - 1), B(2(j+1)/2^d - 1)], and it holds no other root of the
    minimal polynomial.  Refinement moves the node down the tree and never
    changes which root is denoted.
    """

    __slots__ = ("minpoly", "root_index", "_rational", "_bound", "_j", "_depth", "_lo_sign")

    def __init__(self, minpoly: IntPoly, root_index: int, rational: Fraction | None,
                 bound: tuple[int, int] | None = None, node: tuple[int, int] = (0, 0),
                 lo_sign: int | None = None):
        self.minpoly = minpoly
        self.root_index = root_index
        self._rational = rational
        self._bound = bound
        self._j, self._depth = node
        # Sign of minpoly at the node's low end; it holds on all of
        # (low end, root), so it stays valid as the node moves down.
        self._lo_sign = lo_sign

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "RealAlgebraic":
        r = Fraction(r)
        mp = IntPoly((-r.numerator, r.denominator)).primitive()
        return cls(mp, 0, r)

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

    def _cut(self, i: int, depth: int) -> tuple[int, int]:
        """Numerator and denominator of the tree's i-th cut point at
        `depth`, B(2i/2^depth - 1): node j spans cuts j and j + 1."""
        bn, bd = self._bound
        return bn * (2 * i - (1 << depth)), bd << depth

    def interval(self) -> tuple[Fraction, Fraction]:
        if self._rational is not None:
            return self._rational, self._rational
        j, d = self._j, self._depth
        return Fraction(*self._cut(j, d)), Fraction(*self._cut(j + 1, d))

    # -- refinement ---------------------------------------------------------

    def _depth_for(self, width: Fraction) -> int:
        """Depth of the tree's nodes at most `width` wide: the least d with
        2B/2^d <= width."""
        bn, bd = self._bound
        halvings = -(-2 * bn * width.denominator // (bd * width.numerator))
        return (halvings - 1).bit_length()

    def refine_to(self, width) -> None:
        """Descend to the first node at most `width` wide.  This is the
        value's only refinement.  When at least NEWTON_LEVELS levels remain
        it tries a Newton jump (`_newton_index`); otherwise, or when the jump
        is not confirmed, it bisects: each step keeps the half where the
        minimal polynomial changes sign, with the cut points as integer
        numerators over a denominator that doubles per step.  Both land on
        the same node: the one at that depth that holds the value.  The
        minimal polynomial is irreducible of degree >= 2, so it has no
        rational root and never vanishes at a cut point."""
        if self._rational is not None:
            return
        self._descend(self._depth_for(Fraction(width)))

    def _descend(self, depth: int) -> None:
        j, d = self._j, self._depth
        if depth <= d:
            return
        coeffs = self.minpoly.coeffs
        if self._lo_sign is None:
            self._lo_sign = sign_at(coeffs, *self._cut(j, d))
        if depth - d >= NEWTON_LEVELS:
            jump = self._newton_index(depth)
            if jump is not None:
                self._j, self._depth = jump, depth
                return
        lo_sign = self._lo_sign
        bn, bd = self._bound
        while d < depth:
            # The midpoint of node j at depth d is cut 2j + 1 at depth d + 1.
            mid_sign = sign_at(coeffs, bn * (2 * j + 1 - (1 << d)), bd << d)
            assert mid_sign, "an irreducible p of degree >= 2 has no rational root"
            j = 2 * j + (mid_sign == lo_sign)
            d += 1
        self._j, self._depth = j, d

    def _newton_index(self, depth: int) -> int | None:
        """The index of the node at `depth` that holds the value, from a
        Newton estimate (`_float_root`, then `_sign_change_node`), or None.

        The estimate is accepted only if its node lies inside the current
        one, which holds no other root, and the minimal polynomial takes
        opposite signs at its two ends, computed exactly: then it is the
        node that bisection reaches.  Anything else, float overflow on huge
        coefficients included, returns None."""
        j, d = self._j, self._depth
        lo, hi = self._cut(j, d), self._cut(j + 1, d)
        try:
            x = _float_root(self.minpoly.coeffs, lo[0] / lo[1], hi[0] / hi[1], self._lo_sign)
        except (OverflowError, ValueError, ZeroDivisionError):
            return None
        node = _sign_change_node(self, depth, x)
        return node[0] if node is not None and node[0] >> (depth - d) == j else None

    def _node_at(self, width: Fraction) -> tuple[int, int]:
        """(index, depth) of the coarsest tree node at most `width` wide that
        holds the value: the current node is refined down to it, or, when
        deeper, coarsened up to its ancestor."""
        depth = self._depth_for(width)
        if depth > self._depth:
            self.refine_to(width)
        return self._j >> (self._depth - depth), depth

    def tree_interval(self, width) -> tuple[Fraction, Fraction]:
        """The coarsest node of the bisection tree of (-B, B), B =
        cauchy_bound(minpoly), that is at most `width` wide and holds the
        value.  Every interval of the value is a node of this tree, so the
        answer depends on the value and `width` alone, not on how far the
        value has been refined, and after refine_to(width) the interval lies
        inside the node."""
        if self._rational is not None:
            return self._rational, self._rational
        j, depth = self._node_at(Fraction(width))
        return Fraction(*self._cut(j, depth)), Fraction(*self._cut(j + 1, depth))

    def sign(self) -> int:
        """The root is never the cut point 0, and from depth 1 on no node
        holds 0 inside, so the node's low end has the value's sign."""
        if self._rational is not None:
            return _sign(self._rational)
        self._descend(1)
        return 1 if 2 * self._j >= 1 << self._depth else -1

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
            (s_lo, s_hi), (o_lo, o_hi) = self.interval(), other.interval()
            if s_hi < o_lo:
                return -1
            if o_hi < s_lo:
                return 1
            # Rational endpoints of the other value can split an interval.
            if self._rational is not None and not (o_lo < self._rational < o_hi):
                return -1 if self._rational <= o_lo else 1
            if other._rational is not None and not (s_lo < other._rational < s_hi):
                return 1 if other._rational <= s_lo else -1
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
    # The midpoint of node j at depth d is cut 2j + 1 at depth d + 1.

    def __float__(self) -> float:
        if self._rational is not None:
            return float(self._rational)
        j, depth = self._node_at(RENDER_WIDTH)
        num, den = self._cut(2 * j + 1, depth + 1)
        return num / den

    def approx_str(self, sig: int = 12) -> str:
        if self._rational is not None:
            return decimal_str(self._rational, sig)
        j, depth = self._node_at(Fraction(1, 10**(sig + 6)))
        num, den = self._cut(2 * j + 1, depth + 1)
        return decimal_str(num, sig, den)

    def __repr__(self) -> str:
        if self._rational is not None:
            return f"RealAlgebraic({self._rational})"
        return f"RealAlgebraic({self.minpoly}, ~{self.approx_str(8)})"


def _halve(x: RealAlgebraic) -> None:
    """One bisection step of an irrational value (none for a rational)."""
    if x._rational is None:
        x._descend(x._depth + 1)


def _coerce(x) -> RealAlgebraic:
    if isinstance(x, RealAlgebraic):
        return x
    return RealAlgebraic.from_rational(x)


def decimal_str(value, sig: int = 12, den: int = 1) -> str:
    """Deterministic decimal rendering of value/den with `sig` significant
    digits, rounded half up, for `value` an int or Fraction and den a
    positive int: plain between 1e-4 and 10^sig, scientific outside.  All on
    integers: the decimal exponent comes from the digit counts of numerator
    and denominator, and the digits from one rounding division, so the
    fraction need not be in lowest terms."""
    num, den = value.numerator, value.denominator * den
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
# Newton estimates
# ---------------------------------------------------------------------------

def _float_root(coeffs: tuple[int, ...], lo: float, hi: float, lo_sign: int) -> float:
    """A float estimate of the one root of p in (lo, hi), where p has the
    sign lo_sign just above lo: Newton steps, each kept inside the bracket
    that the float signs of p narrow, and a bisection where a step leaves
    it.  Float signs near the root may be wrong; that only blurs the
    estimate, which exact signs confirm later."""
    c = [float(a) for a in coeffs]
    dc = [i * c[i] for i in range(1, len(c))]
    x = (lo + hi) / 2
    for _ in range(64):
        f = df = 0.0
        for a in reversed(c):
            f = f * x + a
        if f == 0.0:
            break
        if (f > 0.0) == (lo_sign > 0):
            lo = x
        else:
            hi = x
        for a in reversed(dc):
            df = df * x + a
        step = f / df if df else math.inf
        if abs(step) <= 1e-13 * abs(x):
            return x - step
        x -= step
        if not lo < x < hi:
            x = (lo + hi) / 2
    return x


def _newton_node(coeffs: tuple[int, ...], bound: tuple[int, int], depth: int,
                 x: float) -> int | None:
    """Index of the node at `depth` of the bisection tree of (-B, B) that
    holds the Newton limit started from the float x, or None if Newton does
    not settle.

    Newton runs on integers on the grid that splits each node at `depth`
    into 2^_GUARD cells: the point of cell U is B(2U/2^F - 1), F = depth +
    _GUARD, and a Newton step x - p(x)/p'(x) moves U by
    -scaled_value(p)/(2 bn scaled_value(p')) there.  Each step doubles the
    correct bits of the float estimate, and the node index is U >> _GUARD."""
    bn, bd = bound
    scale = depth + _GUARD
    den = bd << scale
    num, xden = x.as_integer_ratio()  # raises on inf and nan
    # U = floor((x/B + 1)/2 * 2^F) for the float x = num/xden.
    cell = ((num * bd + bn * xden) << scale) // (2 * bn * xden)
    dcoeffs = tuple(i * coeffs[i] for i in range(1, len(coeffs)))
    for _ in range(scale.bit_length() + 4):
        point = bn * (2 * cell - (1 << scale))
        slope = scaled_value(dcoeffs, point, den)
        if not slope:
            return None
        step = scaled_value(coeffs, point, den) // (2 * bn * slope)
        cell -= step
        if -1 <= step <= 1:
            return cell >> _GUARD
    return None


# ---------------------------------------------------------------------------
# Location
# ---------------------------------------------------------------------------

def roots_of_irreducible(p: IntPoly, estimates: list[float] | None = None) -> list[RealAlgebraic]:
    """Real roots of an irreducible polynomial, ascending, each with p made
    primitive as its minimal polynomial: placed from float estimates of all
    deg p of them, ascending (`estimates` where the caller knows them,
    `real_root_estimates` otherwise), or, where that is not certified
    (`_placed`), isolated (`isolate_irreducible`)."""
    p = p.primitive()
    if p.degree == 1:
        return [RealAlgebraic.from_rational(Fraction(-p.coeffs[0], p.coeffs[1]))]
    if estimates is None:
        estimates = real_root_estimates(p.coeffs)
    return _placed(p, estimates, p.degree) or isolate_irreducible(p)


def largest_root(p: IntPoly) -> RealAlgebraic:
    """The largest root of p, located alone as `roots_of_irreducible`
    locates them all: placed from the top estimate of `real_root_estimates`
    or, where that is not certified, isolated.  p must be irreducible of
    degree 2 or 3 with only real roots, as the factors of a Jacobi matrix's
    characteristic polynomial are, so a placed root has index deg p - 1."""
    p = p.primitive()
    placed = _placed(p, real_root_estimates(p.coeffs)[-1:], 1)
    return placed[0] if placed else isolate_irreducible(p)[-1]


def _placed(p: IntPoly, estimates: list[float], count: int) -> list[RealAlgebraic]:
    """The `count` largest roots of p, ascending, each on the node of width
    RENDER_WIDTH to which `_newton_node` takes its estimate in `estimates`,
    or [] when that is not certified.  The certificate is exact:
    - p takes opposite signs at the two ends of each node, and the nodes
      ascend.  Distinct nodes of one depth meet only at their ends, where p
      does not vanish (it has no rational root), so each holds an odd
      number of roots; with count = deg p, each holds exactly one, all the
      roots are real, and their order is the order of the roots;
    - at the low end a of the top node, p^(i) > 0 for every i >= 1, so p
      increases above a (p(a) < 0 < p(b) at the node's ends) and by
      Fourier-Budan has one root above a, the largest."""
    if len(estimates) != count:
        return []
    bound = _bound_pair(p.coeffs)
    out: list[RealAlgebraic] = []
    for root_index, estimate in enumerate(estimates, p.degree - count):
        value = RealAlgebraic(p, root_index, None, bound)
        depth = value._depth_for(RENDER_WIDTH)
        node = _sign_change_node(value, depth, estimate)
        if node is None or out and node[0] <= out[-1]._j:
            return []
        value._j, value._depth, value._lo_sign = node[0], depth, node[1]
        out.append(value)
    a, coeffs = value._cut(value._j, depth), p.coeffs
    while len(coeffs) > 1:  # p', p'', ... at a
        coeffs = tuple(i * c for i, c in enumerate(coeffs) if i)
        if sign_at(coeffs, *a) <= 0:
            return []
    return out


def _sign_change_node(value: RealAlgebraic, depth: int, estimate: float) -> tuple[int, int] | None:
    """(index, sign of p at its low end) of the node at `depth` of value's
    tree to which `_newton_node` takes the float `estimate`, when p takes
    opposite signs at its two ends, and None otherwise, float overflow on
    huge coefficients included."""
    coeffs = value.minpoly.coeffs
    try:
        index = _newton_node(coeffs, value._bound, depth, estimate)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if index is None or not 0 <= index < 1 << depth:
        return None
    lo_sign = sign_at(coeffs, *value._cut(index, depth))
    if sign_at(coeffs, *value._cut(index + 1, depth)) != -lo_sign:
        return None
    return index, lo_sign


def real_root_estimates(coeffs: tuple[int, ...]) -> list[float]:
    """Float estimates of the roots of a quadratic or cubic whose roots are
    all real, ascending: the quadratic formula, or the trigonometric form of
    the depressed cubic.  Empty where floats cannot give them: other degrees,
    coefficients beyond float range, or a cubic that is not of that shape.
    Estimates only propose nodes, which `roots_of_irreducible` certifies
    exactly, so roots that are not all real cost a fallback, not a wrong
    root."""
    if len(coeffs) not in (3, 4):
        return []
    try:
        lead = coeffs[-1]
        if len(coeffs) == 3:
            b, c = coeffs[1] / lead, coeffs[0] / lead
            root = math.sqrt(max(b * b - 4 * c, 0.0))
            out = [(-b - root) / 2, (-b + root) / 2]
        else:
            a, b, c = coeffs[2] / lead, coeffs[1] / lead, coeffs[0] / lead
            # x = t - a/3 gives t^3 + p t + q with p < 0 when the three roots
            # are real; then t = 2 r cos((acos(3q / (2pr)) - 2 pi j) / 3).
            p = b - a * a / 3
            q = 2 * a * a * a / 27 - a * b / 3 + c
            r = math.sqrt(-p / 3)
            angle = math.acos(max(-1.0, min(1.0, 3 * q / (2 * p * r))))
            out = [2 * r * math.cos((angle - 2 * math.pi * j) / 3) - a / 3 for j in (2, 1, 0)]
    except (OverflowError, ValueError, ZeroDivisionError):
        return []
    return out if all(map(math.isfinite, out)) else []


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

class IsolatedRoot(NamedTuple):
    value: RealAlgebraic
    multiplicity: int


def _isolate_squarefree(p: IntPoly, bound: tuple[int, int]) -> list[tuple[int, int]]:
    """Isolating nodes (index, depth) for all real roots of p, ascending: the
    first nodes of the bisection tree of (-B, B), B = bn/bd = `bound`, that
    hold one root each.

    p must be irreducible of degree >= 2 (as `isolate_irreducible` ensures):
    then it has no rational root, so no cut point is a root of p.  Each cut
    point evaluates the Sturm chain once, the variations at the ends being
    carried down from the parent.  Cut i at depth d is the integer numerator
    bn(2i - 2^d) over bd 2^d.  The nodes still to split wait on a stack, the
    lower half on top, so they are split depth first from the left however
    deep the roots lie.
    """
    chain = sturm_chain(p)
    coeffs = p.coeffs
    bn, bd = bound
    out: list[tuple[int, int]] = []
    stack = [(0, 0, variations_at(chain, -bn, bd), variations_at(chain, bn, bd))]
    while stack:
        # Node j at depth d, (cut j, cut j + 1], holds v_lo - v_hi roots.
        j, d, v_lo, v_hi = stack.pop()
        nroots = v_lo - v_hi
        if nroots == 1:
            out.append((j, d))
        elif nroots > 1:
            mid, den = bn * (2 * j + 1 - (1 << d)), bd << d
            assert sign_at(coeffs, mid, den), "an irreducible p of degree >= 2 has no rational root"
            v_mid = variations_at(chain, mid, den)
            stack.append((2 * j + 1, d + 1, v_mid, v_hi))
            stack.append((2 * j, d + 1, v_lo, v_mid))
    return out


def isolate_irreducible(p: IntPoly) -> list[RealAlgebraic]:
    """The real roots of the irreducible p of degree >= 2, ascending, each on
    the first node of its bisection tree that holds no other root
    (`_isolate_squarefree`), with p made primitive as its minimal
    polynomial: the fallback of `roots_of_irreducible` and `largest_root`."""
    p = p.primitive()
    bound = _bound_pair(p.coeffs)
    return [
        RealAlgebraic(p, idx, None, bound, node)
        for idx, node in enumerate(_isolate_squarefree(p, bound))
    ]


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

    The roots of `poly` are located, and the value is the one whose interval
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
        meeting = []
        for c in candidates:
            c_lo, c_hi = c.interval()
            if c_lo <= hi and lo <= c_hi:
                meeting.append(c)
        candidates = meeting
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise ValueError("expr(alpha) is not a root of the given polynomial")
        _halve(alpha)
        for c in candidates:
            _halve(c)
