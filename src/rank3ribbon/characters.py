"""Ring homomorphisms of rank-3 based rings and their Galois orbit types.

For the self-dual family the multiplication matrices are symmetric, so all
three characters are real.  They are read off the integer cubics in one
pass: `galois_type` finds the integer roots of char_poly_x from one float
estimate of its three roots, reads the orbit type off them, and takes its
roots in the order of the characters, ordering them by integer tests.  It
locates the dimension root alone; the other two are located on first use
(`GaloisInfo.roots`), which only the searched rings make.  The twist search
reads the characters' floats straight off those roots (`float_characters`),
and the exact zeros off the integer data.  `solve_characters` builds the
characters from the same roots, for the rings where a candidate reaches
exact certification: each y-value is (x^2 - m x - 1)/k, and K(0,1,0,n) has
the closed form (1, y+), (-1, 0), (1, y-).  `_selfdual_characters` proves
that these pairs satisfy the ring relations, are three and distinct, and
that only the first is everywhere positive, so none of this is re-checked
at run time.  Each
character is stored with an exact generator of the field it lives in, plus
polynomial expressions for its two values in that generator; this makes
every downstream identity check a matter of polynomial reduction over Q.
So an irrational y-value with k >= 1 is located as a root of char_poly_y
only on its first exact read (a rendered witness, `ring`'s characters), and
solving the characters of a ring whose x is irrational factors nothing on
char_poly_y and locates none of its roots.  Every root is located by
`realalg.roots_of_irreducible` or, for the dimension root alone,
`realalg.largest_root`, which decide between placing it from floats and
isolating it; this module does not."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .exactnum import (
    IntPoly,
    RealAlgebraic,
    RootOfUnity,
    cubic_discriminant,
    is_perfect_square,
    roots_of_irreducible,
)
from .exactnum.intpoly import sign_at, split_rational_roots
from .exactnum.qpoly import QPoly, qconst, qeval, qmod, qnormalize, qscale, X
from .exactnum.realalg import RENDER_WIDTH, from_poly_expr, largest_root, real_root_estimates
from .fusion import FusionRing, Rank3Params, StarViolation, make_z3_ring


class DegenerateSystem(ValueError):
    """A ring this module does not solve: neither Z/3 nor a parameter ring."""


def char_poly_x(params: Rank3Params) -> IntPoly:
    """Characteristic polynomial of multiplication by X:
    x^3 - (m+l) x^2 + (ml - k^2 - 1) x + l."""
    if not params.satisfies_star:
        raise StarViolation(f"{params.name()} violates the star constraint")
    k, l, m, n = params.as_tuple()
    return IntPoly((l, m * l - k * k - 1, -(m + l), 1))


def char_poly_y(params: Rank3Params) -> IntPoly:
    """Characteristic polynomial of multiplication by Y:
    y^3 - (n+k) y^2 + (nk - l^2 - 1) y + k."""
    return char_poly_x(params.swapped())


class Character:
    """One ring homomorphism, given by its values on the two non-unit basis
    elements.  Real-family values are RealAlgebraic; Z/3 values are roots of
    unity.  `gen` generates the field of the values; `x_rep`/`y_rep` express
    the values as polynomials in `gen` (identically the values when rational).

    A real character built with `y_poly` instead of `y` locates its y-value
    on the first read of `y`, as the root of `y_poly` that y_rep(gen) is, and
    keeps it.  Its zero tests (`nonzero`, and an empty rep for a value that
    is exactly 0), its floats (`value_complex`) and exact certification read
    only `gen` and the reps, so a ring that yields no witness never locates
    its irrational y-values.
    """

    __slots__ = ("x", "_y", "gen", "x_rep", "y_rep", "_y_poly", "_json")

    def __init__(self, x, y=None, gen: RealAlgebraic | None = None,
                 x_rep: QPoly = (), y_rep: QPoly = (), y_poly: IntPoly | None = None):
        self.x = x
        self._y = y
        self.gen = gen
        self.x_rep = x_rep
        self.y_rep = y_rep
        self._y_poly = y_poly
        self._json = None

    @property
    def y(self):
        if self._y is None:
            self._y = from_poly_expr(self.gen, self.y_rep, self._y_poly)
        return self._y

    @property
    def is_cyclotomic(self) -> bool:
        return isinstance(self.x, RootOfUnity)

    def value(self, j: int):
        """Value on basis element j (0 is the unit)."""
        if j == 0:
            return RootOfUnity.one() if self.is_cyclotomic else RealAlgebraic.from_rational(1)
        return self.x if j == 1 else self.y

    def value_complex(self, j: int) -> complex:
        """Float value on basis element j: a real value is its rep evaluated
        at float(gen), which a constant rep does not read.  The twist search
        reads this only on Z/3; on a parameter ring it reads the same floats
        off the located roots (`float_characters`), before any character is
        built."""
        if self.is_cyclotomic:
            return self.value(j).complex_approx()
        if j == 0:
            return 1 + 0j
        rep = self.x_rep if j == 1 else self.y_rep
        t = float(self.gen) if len(rep) > 1 else 0.0
        acc = 0.0
        for c in reversed(rep):
            acc = acc * t + float(c)
        return complex(acc)

    @property
    def all_rational(self) -> bool:
        return (
            not self.is_cyclotomic
            and self.x.is_rational
            and self.y.is_rational
        )

    @property
    def is_positive(self) -> bool:
        if self.is_cyclotomic:
            return self.x.is_one and self.y.is_one
        return self.x.sign() > 0 and self.y.sign() > 0

    def nonzero(self) -> bool:
        """No value is zero, read off the reps: a nonzero rep of degree below
        the generator's cannot vanish at it."""
        if self.is_cyclotomic:
            return True
        return bool(self.x_rep) and bool(self.y_rep)

    def to_json(self) -> dict:
        """Rendered on the first call; later calls share that dict, so every
        witness on this character prints it without rendering it again."""
        if self._json is None:
            self._json = self._render()
        return self._json

    def _render(self) -> dict:
        if self.is_cyclotomic:
            return {
                "kind": "cyclotomic",
                "turn_x": str(self.x.turn),
                "turn_y": str(self.y.turn),
            }
        out = {"kind": "real-algebraic"}
        for name, v in (("x", self.x), ("y", self.y)):
            # The tree node, not the current interval: a value shared with a
            # generator that zero tests refined deeper prints the same.
            lo, hi = v.tree_interval(RENDER_WIDTH)
            out[f"minpoly_{name}"] = list(v.minpoly.coeffs)
            out[f"interval_{name}"] = [str(lo), str(hi)]
            out[f"approx_{name}"] = v.approx_str(12)
        out["approx_note"] = "approx fields are non-authoritative renderings"
        return out

    def __repr__(self) -> str:
        if self.is_cyclotomic:
            return f"Character(x=e^(2pi*i*{self.x.turn}), y=e^(2pi*i*{self.y.turn}))"
        return f"Character(x~{self.x.approx_str(8)}, y~{self.y.approx_str(8)})"


class GaloisType(enum.Enum):
    TRIVIAL = "Trivial"
    C2_FIXING_FP = "C2FixingFP"
    C2_MOVING_FP = "C2MovingFP"
    C3 = "C3"
    S3 = "S3"


@dataclass(frozen=True)
class GaloisInfo:
    tag: GaloisType
    orbits: tuple[tuple[int, ...], ...]
    # What it is read from, not compared and not in the payload: the integer
    # roots of char_poly_x, ascending; the root of char_poly_x (of
    # char_poly_y when k = 0) that gives the dimension character; and what
    # locates the other two roots, in the order of their characters.
    x_roots: tuple[int, ...] = field(default=(), compare=False, repr=False)
    top: RealAlgebraic | None = field(default=None, compare=False, repr=False)
    lower: Callable[[], Sequence[RealAlgebraic]] | None = field(
        default=None, compare=False, repr=False)

    @cached_property
    def roots(self) -> tuple[RealAlgebraic, ...]:
        """The three roots in the order of the characters; the two below
        the dimension root are located on this first read."""
        return (self.top, *self.lower())

    def to_json(self) -> dict:
        return {"tag": self.tag.value, "orbits": [list(o) for o in self.orbits]}


@dataclass(frozen=True)
class CharacterSystem:
    """The three characters of a rank-3 ring, dimension character first."""

    ring: FusionRing
    chars: tuple[Character, ...]

    def to_json(self) -> dict:
        return {"characters": [c.to_json() for c in self.chars]}


def solve_characters(ring: FusionRing, info: GaloisInfo | None = None) -> CharacterSystem:
    """All ring homomorphisms to the complex numbers; exactly three for a
    valid rank-3 based ring, ordered with the dimension character first.

    A parameter ring is solved from `info`, the `galois_type` of
    `ring.params`, computed here unless the caller already holds it; the
    characters come in the order of `info.roots`, which its orbits index,
    and reading them locates the two roots below the dimension root."""
    if ring.rank != 3:
        raise ValueError("only rank-3 rings are supported")
    if ring.dual == (0, 2, 1):
        if ring.N != make_z3_ring().N:
            raise DegenerateSystem("unrecognized ring with nontrivial duality")
        return _z3_characters(ring)
    if ring.params is None:
        raise DegenerateSystem("a self-dual ring is solved from its parameters")
    if info is None:
        info = galois_type(ring.params)
    return CharacterSystem(ring=ring, chars=_selfdual_characters(ring.params, info.roots))


def _z3_characters(ring: FusionRing) -> CharacterSystem:
    one = RootOfUnity.one()
    w = RootOfUnity.make(1, 3)
    w2 = RootOfUnity.make(2, 3)
    chars = (
        Character(x=one, y=one),
        Character(x=w, y=w2),
        Character(x=w2, y=w),
    )
    return CharacterSystem(ring=ring, chars=chars)


def _selfdual_characters(params: Rank3Params, roots) -> tuple[Character, ...]:
    """The characters of K(k,l,m,n), one per root in `roots`, in their
    order: the `roots` of its `galois_type`, or a prefix of them.

    With k >= 1 the root is x, and y = (x^2 - m x - 1)/k.  The ring relations
    X^2 = 1 + mX + kY, Y^2 = 1 + lX + nY and XY = kX + lY hold for every such
    pair by construction, so nothing is re-checked at run time:
    - the first relation gives Y = (X^2 - mX - 1)/k, so X generates the
      3-dimensional ring;
    - by Cayley-Hamilton that ring is then Q[t]/(char_poly_x), t -> X;
    - so every root x of char_poly_x is a ring homomorphism, and its value on
      Y is (x^2 - m x - 1)/k; the other two relations hold because they hold
      in the ring.
    There are exactly three, pairwise distinct, and only the first is
    everywhere positive.  N_X = [[0,1,0],[1,m,k],[0,k,l]] is a Jacobi matrix:
    symmetric tridiagonal with nonzero off-diagonal entries 1 and k.  So its
    roots are real and simple, and as N_X is irreducible and nonnegative, its
    largest root has a positive eigenvector (Perron-Frobenius).  Each
    character (1, x, y) is an eigenvector of the symmetric N_X, so that one is
    the dimension character, and every other is orthogonal to it and has an
    entry <= 0.
    With k = 0 the star equation forces K(0,1,0,n), whose N_X has the double
    root 1.  Its roots are the y-values y+, 0, y- of the characters
    (1, y+), (-1, 0), (1, y-): the second relation, with l = 1, gives
    X = Y^2 - nY - 1, which is 1 where y^2 - n y - 2 = 0 and -1 at y = 0.
    """
    k, _l, m, _n = params.as_tuple()
    if k == 0:
        return tuple(
            _rational_character(Fraction(x), y.rational_value) if y.is_rational
            else Character(x=RealAlgebraic.from_rational(x), y=y, gen=y, x_rep=qconst(x), y_rep=X)
            for x, y in zip((1, -1, 1), roots)
        )
    ypoly = char_poly_y(params)
    y_expr: QPoly = qscale(qnormalize((Fraction(-1), Fraction(-m), Fraction(1))), Fraction(1, k))
    return tuple(
        _rational_character(x.rational_value, qeval(y_expr, x.rational_value)) if x.is_rational
        else Character(x=x, gen=x, x_rep=X, y_rep=qmod(y_expr, x.minpoly.to_q()), y_poly=ypoly)
        for x in roots
    )


class FloatCharacter(NamedTuple):
    """A character's values at the unit, X and Y as floats, and which of
    them are exactly zero."""

    values: tuple[complex, complex, complex]
    zero: tuple[bool, bool, bool]


def float_characters(params: Rank3Params, roots) -> list[FloatCharacter]:
    """The characters that `_selfdual_characters(params, roots)` builds, as
    floats: each root is read off its node (`float`), and y = (x^2 - m x -
    1)/k for k >= 1.  A value is exactly zero only where the root giving it
    is the rational 0: x = 0 on a ring with l = 0, and the y-value of (-1,
    0) on K(0,1,0,n); y = 0 is no root of char_poly_y when k >= 1, whose
    constant term is k."""
    k, _l, m, _n = params.as_tuple()
    out = []
    for j, root in enumerate(roots):
        value = float(root)
        if k == 0:
            out.append(FloatCharacter(
                (1.0, (1.0, -1.0, 1.0)[j], value), (False, False, root.is_zero)))
            continue
        x = root.rational_value
        y = ((value - m) * value - 1) / k if x is None else float((x * x - m * x - 1) / k)
        out.append(FloatCharacter((1.0, value, y), (False, root.is_zero, False)))
    return out


def _rational_character(x: Fraction, y: Fraction) -> Character:
    return Character(
        x=RealAlgebraic.from_rational(x),
        y=RealAlgebraic.from_rational(y),
        x_rep=qconst(x),
        y_rep=qconst(y),
    )


def galois_type(params: Rank3Params) -> GaloisInfo:
    """Image of the rational Galois action on the characters of K(k,l,m,n),
    read off the integer roots of char_poly_x, with the root of the
    dimension character and, located on first use (`GaloisInfo.roots`), the
    two roots that `solve_characters` builds the other characters from.

    The roots come in solve order: the dimension character first, then the
    other two by x-value (by (x, y) when k = 0).  Integer tests place them,
    so no two roots are compared.  With k >= 1, y = (x^2 - m x - 1)/k, so
    the action is the one on the roots of char_poly_x, which are simple and
    real with the largest the dimension (see `_selfdual_characters`).
    - No rational root: one orbit, C3 iff the discriminant is a square.
    - Three rational roots: Trivial.
    - One rational root r and quadratic rest q: C2-fixing if r lies above
      both roots of q, that is q(r) > 0 and 2r > -q_1.  Otherwise C2-moving:
      r lies between the roots of q if q(r) < 0, and below both if not.
    The integer roots are named by float estimates of the three
    (`_integer_roots`), and `realalg` locates the irrational ones, placed
    from floats or, where that is not certified, isolated: the dimension
    root alone here (`largest_root`), and the two lower roots on first use
    (`roots_of_irreducible`).
    With k = 0 the star equation forces K(0,1,0,n), with characters (1, y+),
    (-1, 0), (1, y-) for the roots y of y^2 - n y - 2; n^2 + 8 is a square
    only for n = 1, which is Trivial, and every other n is C2-moving.  Both
    y-roots are located here: the nonmodular filter reads them.
    """
    xpoly = char_poly_x(params)  # raises StarViolation off the star equation
    if params.k == 0:
        # char_poly_x = (x - 1)^2 (x + 1) and char_poly_y = y (y^2 - n y - 2).
        if params.n == 1:
            tag, orbits = GaloisType.TRIVIAL, ((0,), (1,), (2,))
            low, high = RealAlgebraic.from_rational(-1), RealAlgebraic.from_rational(2)
        else:
            tag, orbits = GaloisType.C2_MOVING_FP, ((0, 2), (1,))
            low, high = roots_of_irreducible(IntPoly((-2, -params.n, 1)))
        lower = (RealAlgebraic.from_rational(0), low)
        return GaloisInfo(tag, orbits, (-1, 1, 1), high, lambda: lower)
    xs, rest = _integer_roots(xpoly)
    if len(xs) == 3:
        ascending = [RealAlgebraic.from_rational(x) for x in xs]
        return GaloisInfo(GaloisType.TRIVIAL, ((0,), (1,), (2,)), xs, ascending[-1],
                          lambda: ascending[:-1])
    if not xs:
        tag = GaloisType.C3 if is_perfect_square(cubic_discriminant(rest)) else GaloisType.S3
        orbits, place = ((0, 1, 2),), None
    else:
        (r,) = xs
        q0, q1, _ = rest.coeffs
        q_at_r = r * r + q1 * r + q0
        if q_at_r > 0 and 2 * r > -q1:  # above both roots of q
            tag, orbits, place = GaloisType.C2_FIXING_FP, ((0,), (1, 2)), 2
        elif q_at_r < 0:  # between them: the conjugate of the dimension comes first
            tag, orbits, place = GaloisType.C2_MOVING_FP, ((0, 1), (2,)), 1
        else:  # below both
            tag, orbits, place = GaloisType.C2_MOVING_FP, ((0, 2), (1,)), 0

    def lower() -> list[RealAlgebraic]:
        """All but the largest root, ascending: the roots of rest, with the
        integer root in its place."""
        located = roots_of_irreducible(rest)
        if xs:
            located.insert(place, RealAlgebraic.from_rational(xs[0]))
        return located[:-1]

    top = RealAlgebraic.from_rational(xs[0]) if place == 2 else largest_root(rest)
    return GaloisInfo(tag, orbits, xs, top, lower)


def _integer_roots(xpoly: IntPoly) -> tuple[tuple[int, ...], IntPoly]:
    """The integer roots of the monic cubic xpoly, ascending, and the
    quotient rest of xpoly by their linear factors.

    xpoly is monic, so its rational roots are integers.  The integers
    nearest the float estimates of its roots are tested exactly and divided
    out, and the rest is certified to have no rational root: a quadratic
    rest when its discriminant is no square; a cubic one when the estimates
    name three distinct integers u, each with xpoly of opposite signs at u -
    1/2 and u + 1/2, as those intervals then hold the three roots, one each,
    and their integers u are no roots.  Otherwise `split_rational_roots`
    finds the rational roots."""
    nearest = {round(e) for e in real_root_estimates(xpoly.coeffs)}
    xs = [u for u in sorted(nearest) if not sign_at(xpoly.coeffs, u, 1)]
    rest = xpoly
    for u in xs:
        rest = rest.exact_div(IntPoly((-u, 1)))
    if rest.degree == 3:
        certified = len(nearest) == 3 and all(
            sign_at(rest.coeffs, 2 * u - 1, 2) * sign_at(rest.coeffs, 2 * u + 1, 2) < 0
            for u in nearest)
    elif rest.degree == 2:
        c, b, _ = rest.coeffs
        certified = not is_perfect_square(b * b - 4 * c)
    else:
        certified = rest.degree == 0
    if not certified:
        roots, rest = split_rational_roots(xpoly)
        xs = sorted(u for u, _v in roots)
    return tuple(xs), rest
