"""Complex ball arithmetic with exact rational centers and radii.

Every operation is outward-rounded in the strong sense that the radius bound
is computed with exact rational arithmetic, so the true value of an expression
always lies inside the resulting ball.  There is no division: balls enclose
the values of exact numbers for rendering and for the separation step of the
exact zero test.

A ball is held as integer numerators of its center and radius over one
positive integer denominator, not necessarily in lowest terms.  Arithmetic
stays on integers and reduces nothing: a product multiplies the
denominators, and a sum puts both operands over the lcm of theirs, so a sum
of tree-node enclosures, whose denominators are powers of two times one
leading coefficient, never multiplies two of them together.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ComplexBall:
    """Disk { z : |z - (re + i*im)| <= rad } with rational data, held as
    integer numerators over one positive denominator."""

    __slots__ = ("_re", "_im", "_rad", "_den")

    def __init__(self, re, im, rad=0):
        re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
        if rad < 0:
            raise ValueError("radius must be nonnegative")
        den = math.lcm(re.denominator, im.denominator, rad.denominator)
        self._re = re.numerator * (den // re.denominator)
        self._im = im.numerator * (den // im.denominator)
        self._rad = rad.numerator * (den // rad.denominator)
        self._den = den

    @classmethod
    def _of(cls, re: int, im: int, rad: int, den: int) -> "ComplexBall":
        """A ball from the integers of an arithmetic result, whose radius is
        nonnegative and den positive by construction: no check."""
        out = object.__new__(cls)
        out._re, out._im, out._rad, out._den = re, im, rad, den
        return out

    @staticmethod
    def from_rational(value) -> "ComplexBall":
        value = Fraction(value)
        return ComplexBall._of(value.numerator, 0, 0, value.denominator)

    @staticmethod
    def from_real_interval(lo, hi) -> "ComplexBall":
        """The ball with diameter [lo, hi], from the endpoints' integers."""
        den = math.lcm(lo.denominator, hi.denominator)
        lo_n = lo.numerator * (den // lo.denominator)
        hi_n = hi.numerator * (den // hi.denominator)
        return ComplexBall._of(lo_n + hi_n, 0, hi_n - lo_n, 2 * den)

    @staticmethod
    def dot(pairs, den: int = 1) -> "ComplexBall":
        """sum c * ball over the (c, ball) pairs, integer c, divided by the
        positive integer den: one sum on integers over the lcm of the balls'
        denominators, the same exact ball as adding the scaled balls."""
        common = math.lcm(*(b._den for _, b in pairs))
        re = im = rad = 0
        for c, b in pairs:
            m = c * (common // b._den)
            re += m * b._re
            im += m * b._im
            rad += abs(m) * b._rad
        return ComplexBall._of(re, im, rad, common * den)

    # -- exact views ----------------------------------------------------------

    @property
    def integers(self) -> tuple[int, int, int, int]:
        """(re, im, rad, den): the center and radius numerators over den."""
        return self._re, self._im, self._rad, self._den

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    @property
    def rad(self) -> Fraction:
        return Fraction(self._rad, self._den)

    # -- arithmetic -----------------------------------------------------------

    def _combine(self, other: "ComplexBall", sign: int) -> "ComplexBall":
        """self + sign * other over the lcm of the two denominators."""
        da, db = self._den, other._den
        if da == db:
            return ComplexBall._of(self._re + sign * other._re, self._im + sign * other._im,
                                   self._rad + other._rad, da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return ComplexBall._of(
            self._re * ma + sign * other._re * mb,
            self._im * ma + sign * other._im * mb,
            self._rad * ma + other._rad * mb,
            da * ma,
        )

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return self._combine(other, 1)

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return self._combine(other, -1)

    def __neg__(self) -> "ComplexBall":
        return ComplexBall._of(-self._re, -self._im, self._rad, self._den)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        ar, ai, arad = self._re, self._im, self._rad
        br, bi, brad = other._re, other._im, other._rad
        # |c1| r2 + |c2| r1 + r1 r2 with the L1 overestimate of |c|.
        rad = (abs(ar) + abs(ai)) * brad + (abs(br) + abs(bi)) * arad + arad * brad
        return ComplexBall._of(ar * br - ai * bi, ar * bi + ai * br, rad, self._den * other._den)

    def scale(self, c) -> "ComplexBall":
        """The ball times a rational c (int or Fraction)."""
        num, den = c.numerator, c.denominator
        return ComplexBall._of(self._re * num, self._im * num, self._rad * abs(num), self._den * den)

    # -- magnitude queries ---------------------------------------------------

    def definitely_nonzero(self) -> bool:
        """True only if every point of the ball is nonzero."""
        return max(abs(self._re), abs(self._im)) > self._rad

    def center_complex(self) -> complex:
        return complex(self._re / self._den, self._im / self._den)

    def __repr__(self) -> str:
        return (f"ComplexBall({self._re / self._den:.6g}{self._im / self._den:+.6g}j, "
                f"rad~{self._rad / self._den:.3g})")
