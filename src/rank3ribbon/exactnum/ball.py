"""Complex ball arithmetic with exact rational centers and radii.

Every operation is outward-rounded in the strong sense that the radius bound
is computed with exact rational arithmetic, so the true value of an expression
always lies inside the resulting ball.  There is no division: balls enclose
the values of exact numbers for rendering and for the separation step of the
exact zero test.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


class ComplexBall:
    """Disk { z : |z - (re + i*im)| <= rad } with rational data."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re, im, rad=0):
        self.re = Fraction(re)
        self.im = Fraction(im)
        self.rad = Fraction(rad)
        if self.rad < 0:
            raise ValueError("radius must be nonnegative")

    @classmethod
    def _of(cls, re: Fraction, im: Fraction, rad: Fraction) -> "ComplexBall":
        """A ball from the Fractions of an arithmetic result, whose radius is
        nonnegative by construction: no coercion and no check."""
        out = object.__new__(cls)
        out.re, out.im, out.rad = re, im, rad
        return out

    @staticmethod
    def from_rational(value) -> "ComplexBall":
        return ComplexBall._of(Fraction(value), _ZERO, _ZERO)

    @staticmethod
    def from_real_interval(lo: Fraction, hi: Fraction) -> "ComplexBall":
        return ComplexBall((lo + hi) / 2, 0, (hi - lo) / 2)

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall._of(self.re + other.re, self.im + other.im, self.rad + other.rad)

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall._of(self.re - other.re, self.im - other.im, self.rad + other.rad)

    def __neg__(self) -> "ComplexBall":
        return ComplexBall._of(-self.re, -self.im, self.rad)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        # |c1| r2 + |c2| r1 + r1 r2 with the L1 overestimate of |c|.
        mag1 = abs(self.re) + abs(self.im)
        mag2 = abs(other.re) + abs(other.im)
        rad = mag1 * other.rad + mag2 * self.rad + self.rad * other.rad
        return ComplexBall._of(re, im, rad)

    def scale(self, c) -> "ComplexBall":
        c = Fraction(c)
        return ComplexBall._of(self.re * c, self.im * c, self.rad * abs(c))

    # -- magnitude queries ---------------------------------------------------

    def definitely_nonzero(self) -> bool:
        """True only if every point of the ball is nonzero."""
        return max(abs(self.re), abs(self.im)) > self.rad

    def center_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"ComplexBall({float(self.re):.6g}{float(self.im):+.6g}j, rad~{float(self.rad):.3g})"

