"""Ring homomorphisms of rank-3 based rings and their Galois orbit types.

For the self-dual family the multiplication matrices are symmetric, so all
three characters are real.  They are read off the integer cubics: the
x-values are the roots of char_poly_x, found by factoring it on integers
(`factor_into_irreducibles`), and each y-value is (x^2 - m x - 1)/k, located
as a root of char_poly_y.  `_selfdual_characters` proves that these pairs
satisfy the ring relations, so none is re-checked at run time.  Each
character is stored with an exact generator of the field it lives in, plus
polynomial expressions for its two values in that generator; this makes every
downstream identity check a matter of polynomial reduction over Q.
`galois_type` reads the orbit type off the factorization of char_poly_x
alone, without solving.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import (
    IntPoly,
    RealAlgebraic,
    RootOfUnity,
    cubic_discriminant,
    factor_into_irreducibles,
    is_perfect_square,
    roots_of_irreducible,
)
from .exactnum.intpoly import split_rational_roots
from .exactnum.qpoly import QPoly, qconst, qeval, qmod, qnormalize, qscale, X
from .exactnum.realalg import from_poly_expr
from .fusion import FusionRing, Rank3Params, StarViolation, make_z3_ring, rank3_tensor


class DegenerateSystem(ValueError):
    """Fewer than three distinct characters: the input is not a valid ring."""


class NoPositiveCharacter(ValueError):
    """No everywhere-positive character exists: the input is not a valid ring."""


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


@dataclass(frozen=True)
class Character:
    """One ring homomorphism, given by its values on the two non-unit basis
    elements.  Real-family values are RealAlgebraic; Z/3 values are roots of
    unity.  `gen` generates the field of the values; `x_rep`/`y_rep` express
    the values as polynomials in `gen` (identically the values when rational).
    """

    x: object
    y: object
    gen: RealAlgebraic | None = None
    x_rep: QPoly = field(default=())
    y_rep: QPoly = field(default=())

    @property
    def is_cyclotomic(self) -> bool:
        return isinstance(self.x, RootOfUnity)

    def value(self, j: int):
        """Value on basis element j (0 is the unit)."""
        if j == 0:
            return RootOfUnity.one() if self.is_cyclotomic else RealAlgebraic.from_rational(1)
        return self.x if j == 1 else self.y

    def value_complex(self, j: int) -> complex:
        v = self.value(j)
        if isinstance(v, RootOfUnity):
            return v.complex_approx()
        return complex(float(v))

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
        if self.is_cyclotomic:
            return True
        return not (self.x.is_zero or self.y.is_zero)

    def to_json(self) -> dict:
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
            lo, hi = v.tree_interval(Fraction(1, 10**18))
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
    # The factorization of char_poly_x it is read from: the integer roots,
    # ascending, and the irreducible rest.  Not compared, not in the payload.
    x_roots: tuple[int, ...] = field(default=(), compare=False, repr=False)
    x_rest: IntPoly = field(default=IntPoly((1,)), compare=False, repr=False)

    def to_json(self) -> dict:
        return {"tag": self.tag.value, "orbits": [list(o) for o in self.orbits]}


@dataclass(frozen=True)
class CharacterSystem:
    """The three characters of a rank-3 ring, dimension character first."""

    ring: FusionRing
    chars: tuple[Character, ...]
    params: Rank3Params | None

    def to_json(self) -> dict:
        return {"characters": [c.to_json() for c in self.chars]}


def solve_characters(ring: FusionRing) -> CharacterSystem:
    """All ring homomorphisms to the complex numbers; exactly three for a
    valid rank-3 based ring, ordered with the dimension character first."""
    if ring.rank != 3:
        raise ValueError("only rank-3 rings are supported")
    if ring.dual == (0, 2, 1):
        if ring.N != make_z3_ring().N:
            raise DegenerateSystem("unrecognized ring with nontrivial duality")
        return _z3_characters(ring)
    params = _extract_params(ring)
    if params is None:
        raise DegenerateSystem("tensor is not of the self-dual rank-3 form")
    chars = _selfdual_characters(params)
    fp = [i for i, c in enumerate(chars) if c.is_positive]
    if len(fp) != 1:
        raise NoPositiveCharacter(f"{len(fp)} everywhere-positive characters found")
    # Exact RealAlgebraic comparison; float() would refine each value to 1e-18.
    ordered = [chars[fp[0]]] + sorted(
        (c for i, c in enumerate(chars) if i != fp[0]), key=lambda c: (c.x, c.y)
    )
    if len({(c.x, c.y) for c in ordered}) < 3:
        raise DegenerateSystem("characters are not pairwise distinct")
    return CharacterSystem(ring=ring, chars=tuple(ordered), params=params)


def _extract_params(ring: FusionRing) -> Rank3Params | None:
    n_tensor = ring.N
    params = Rank3Params(
        k=n_tensor[1][1][2], l=n_tensor[2][2][1], m=n_tensor[1][1][1], n=n_tensor[2][2][2]
    )
    if not params.satisfies_star:
        return None
    if n_tensor != rank3_tensor(params):
        return None
    return params


def _z3_characters(ring: FusionRing) -> CharacterSystem:
    one = RootOfUnity.one()
    w = RootOfUnity.make(1, 3)
    w2 = RootOfUnity.make(2, 3)
    chars = (
        Character(x=one, y=one),
        Character(x=w, y=w2),
        Character(x=w2, y=w),
    )
    return CharacterSystem(ring=ring, chars=chars, params=None)


def _selfdual_characters(params: Rank3Params) -> list[Character]:
    """The characters of K(k,l,m,n), one per root x of char_poly_x, with
    y = (x^2 - m x - 1)/k.

    The ring relations X^2 = 1 + mX + kY, Y^2 = 1 + lX + nY and
    XY = kX + lY hold for every such pair by construction, so nothing is
    re-checked at run time:
    - with k >= 1 the first relation gives Y = (X^2 - mX - 1)/k, so X
      generates the 3-dimensional ring;
    - by Cayley-Hamilton that ring is then Q[t]/(char_poly_x), t -> X;
    - so every root x of char_poly_x is a ring homomorphism, and its value on
      Y is (x^2 - m x - 1)/k; the other two relations hold because they hold
      in the ring.
    A repeated root raises DegenerateSystem.  A k = 0 ring is solved through its swap, which has
    k = 1.
    """
    k, l, m, n = params.as_tuple()
    if k == 0:
        # The star constraint forces l = 1 here, so the swapped ring has a
        # nonzero pairing coefficient: solve it and swap X and Y back.
        return [
            Character(x=c.y, y=c.x, gen=c.gen, x_rep=c.y_rep, y_rep=c.x_rep)
            for c in _selfdual_characters(params.swapped())
        ]
    xpoly = char_poly_x(params)
    ypoly = char_poly_y(params)
    # With k != 0 the first defining relation determines y = (x^2 - m x - 1)/k,
    # a root of char_poly_y.
    y_expr: QPoly = qscale(qnormalize((Fraction(-1), Fraction(-m), Fraction(1))), Fraction(1, k))
    chars = []
    for factor, mult in factor_into_irreducibles(xpoly):
        if mult > 1:
            raise DegenerateSystem("repeated eigenvalue with k != 0")
        for root in roots_of_irreducible(factor):
            if root.is_rational:
                xv = root.rational_value
                yv = qeval(y_expr, xv)
                chars.append(
                    Character(
                        x=root,
                        y=RealAlgebraic.from_rational(yv),
                        gen=None,
                        x_rep=qconst(xv),
                        y_rep=qconst(yv),
                    )
                )
            else:
                y_rep = qmod(y_expr, root.minpoly.to_q())
                chars.append(
                    Character(
                        x=root,
                        y=from_poly_expr(root, y_expr, ypoly),
                        gen=root,
                        x_rep=X,
                        y_rep=y_rep,
                    )
                )
    if len(chars) != 3:
        raise DegenerateSystem(f"expected 3 characters, found {len(chars)}")
    return chars


def fp_character(system: CharacterSystem) -> int:
    """Index of the everywhere-positive (dimension) character."""
    hits = [i for i, c in enumerate(system.chars) if c.is_positive]
    if len(hits) != 1:
        raise NoPositiveCharacter(f"{len(hits)} positive characters")
    return hits[0]


def galois_type(params: Rank3Params) -> GaloisInfo:
    """Image of the rational Galois action on the characters of K(k,l,m,n),
    with orbits indexed as `solve_characters` orders them, read off one
    integer factorization of char_poly_x; no character is solved.

    With k >= 1, y = (x^2 - m x - 1)/k, so the action is the one on the
    roots of char_poly_x.  N_X is symmetric tridiagonal with off-diagonal
    entries 1 and k, so they are simple and the largest is the dimension.
    - No rational root: one orbit, C3 iff the discriminant is a square.
    - Three rational roots: Trivial.
    - One rational root r and quadratic rest q: C2-fixing if r is the largest
      root.  Otherwise C2-moving, and of the other two characters, sorted by
      x, the conjugate comes first iff r lies between the roots: q(r) < 0.
    With k = 0 the star equation forces K(0,1,0,n), with characters (1, y+),
    (-1, 0), (1, y-) for the roots y of y^2 - n y - 2; n^2 + 8 is a square
    only for n = 1, which is Trivial, and every other n is C2-moving.
    """
    xpoly = char_poly_x(params)  # raises StarViolation off the star equation
    if params.k == 0:
        # char_poly_x = (x - 1)^2 (x + 1), in closed form.
        if params.n == 1:
            return GaloisInfo(GaloisType.TRIVIAL, ((0,), (1,), (2,)), (-1, 1, 1), IntPoly((1,)))
        return GaloisInfo(GaloisType.C2_MOVING_FP, ((0, 2), (1,)), (-1, 1, 1), IntPoly((1,)))
    roots, rest = split_rational_roots(xpoly)
    xs = tuple(sorted(u for u, _v in roots))  # monic, so every root is an integer
    if not xs:
        tag = GaloisType.C3 if is_perfect_square(cubic_discriminant(rest)) else GaloisType.S3
        return GaloisInfo(tag, ((0, 1, 2),), xs, rest)
    if len(xs) == 3:
        return GaloisInfo(GaloisType.TRIVIAL, ((0,), (1,), (2,)), xs, rest)
    (r,) = xs
    q0, q1, _ = rest.coeffs
    q_at_r = r * r + q1 * r + q0
    if q_at_r > 0 and 2 * r > -q1:  # above both roots of q
        return GaloisInfo(GaloisType.C2_FIXING_FP, ((0,), (1, 2)), xs, rest)
    orbits = ((0, 1), (2,)) if q_at_r < 0 else ((0, 2), (1,))
    return GaloisInfo(GaloisType.C2_MOVING_FP, orbits, xs, rest)


def vieta_products(system: CharacterSystem) -> tuple[Fraction, Fraction]:
    """Exact products of all x-values and all y-values, from the
    characteristic polynomials (product of roots of a monic cubic = -c0)."""
    if system.params is None:
        raise ValueError("vieta_products applies to the self-dual family")
    px = char_poly_x(system.params).coeffs[0]
    py = char_poly_y(system.params).coeffs[0]
    return -Fraction(px), -Fraction(py)
