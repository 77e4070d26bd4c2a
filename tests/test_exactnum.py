"""Tests for the exact arithmetic substrate."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rank3ribbon.exactnum import (
    ComplexBall,
    CycloNum,
    IntPoly,
    RealAlgebraic,
    RootOfUnity,
    cos_minimal_poly,
    cubic_discriminant,
    cyclotomic_poly,
    decimal_str,
    factor_into_irreducibles,
    is_perfect_square,
    isolate_real_roots,
    root_of_unity_value,
    roots_of_irreducible,
    two_cos,
)
from rank3ribbon.characters import char_poly_x, char_poly_y
from rank3ribbon.classify import enumerate_star_solutions
from rank3ribbon.fusion import Rank3Params, rank3_tensor
from rank3ribbon.exactnum import realalg
from rank3ribbon.exactnum.cyclotomic import _zeta_ball, rotated_sum
from rank3ribbon.exactnum.intpoly import sign_at, split_rational_roots
from rank3ribbon.exactnum.qpoly import charpoly, qdivmod, qeval, qmod, qtrim
from rank3ribbon.exactnum.realalg import (
    RENDER_WIDTH, from_poly_expr, isolate_irreducible, largest_root,
)


def _qgcd(p, q):
    """Monic gcd of two polynomials over a field, by the Euclidean
    algorithm on `qmod`: over Q, or over Q(zeta_n) with CycloNum
    coefficients."""
    a, b = qtrim(p), qtrim(q)
    while b:
        a, b = b, qmod(a, b)
    if not a:
        return ()
    inv = Fraction(1) / a[-1]
    return tuple(c * inv for c in a)


# ---------------------------------------------------------------------------
# rational roots (split_rational_roots)
# ---------------------------------------------------------------------------

def rational_roots(p):
    """The rational roots that split_rational_roots finds, as Fractions,
    once per multiplicity, ascending."""
    roots, _rest = split_rational_roots(p)
    return sorted(Fraction(u, v) for u, v in roots)


def test_rational_roots_with_multiplicity():
    # x^3 - x^2 - x + 1 = (x-1)^2 (x+1), by synthetic division
    assert rational_roots(IntPoly((1, -1, -1, 1))) == [-1, 1, 1]


def test_rational_roots_none():
    # rational-root test on +-1 rules everything out
    assert rational_roots(IntPoly((1, -1, -2, 1))) == []


def test_rational_roots_linear():
    assert rational_roots(IntPoly((-5, 1))) == [5]


def test_rational_roots_fractional_and_zero():
    # (2x - 3) * x^2
    p = IntPoly((0, 0, -3, 2))
    assert rational_roots(p) == [0, 0, Fraction(3, 2)]


def test_rational_roots_zero_poly_rejected():
    with pytest.raises(ValueError):
        rational_roots(IntPoly(()))


def _fraction_rational_roots(p):
    """Reference: every candidate +-u/v (u | a_0, v | a_n) as a sorted set of
    Fractions, tested and deflated in Fraction arithmetic."""
    work = tuple(Fraction(c) for c in p.primitive().coeffs)
    roots = []
    while work[0] == 0:
        roots.append(Fraction(0))
        work = work[1:]
    divisors = lambda m: [d for d in range(1, m + 1) if m % d == 0]
    a0, an = int(abs(work[0])), int(abs(work[-1]))
    candidates = {s * Fraction(u, v) for u in divisors(a0) for v in divisors(an) for s in (1, -1)}
    for c in sorted(candidates):
        while len(work) > 1 and qeval(work, c) == 0:
            roots.append(c)
            work = qdivmod(work, (-c, Fraction(1)))[0]
    return sorted(roots)


def test_rational_roots_matches_fraction_reference():
    """The integer candidate test, one path for monic and non-monic inputs,
    agrees with the Fraction reference on every char_poly_x up to bound 30
    and on seeded random polynomials with planted rational roots."""
    polys = [char_poly_x(p) for p in enumerate_star_solutions(30)]
    assert all(p.is_monic for p in polys)
    rng = random.Random(31)
    for _ in range(300):
        p = IntPoly((rng.choice((1, 1, 1, -1, 2, 6)),))
        for _ in range(rng.randint(0, 4)):
            p = p * IntPoly((-rng.randint(-12, 12), rng.choice((1, 1, 1, 2, 3))))
        p = p * IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 2))] + [1])
        polys.append(p)
    assert any(p.primitive().is_monic for p in polys[-300:])
    assert any(not p.primitive().is_monic for p in polys[-300:])
    for p in polys:
        got = rational_roots(p)
        assert got == _fraction_rational_roots(p), p
        assert all(isinstance(r, Fraction) for r in got)


# ---------------------------------------------------------------------------
# cubic discriminant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ((1, -1, -2, 1), 49),
        ((0, -2, 0, 1), 32),
        ((0, 0, 0, 1), 0),
    ],
)
def test_cubic_discriminant(coeffs, expected):
    assert cubic_discriminant(IntPoly(coeffs)) == expected


def test_cubic_discriminant_rejects_bad_input():
    with pytest.raises(ValueError):
        cubic_discriminant(IntPoly((1, 1)))
    with pytest.raises(ValueError):
        cubic_discriminant(IntPoly((0, 0, 0, 2)))


def test_perfect_square():
    assert is_perfect_square(49)
    assert not is_perfect_square(32)
    assert not is_perfect_square(-4)


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def test_isolate_sqrt2_family():
    roots = isolate_real_roots(IntPoly((0, -2, 0, 1)))
    assert len(roots) == 3
    values = [r.value for r in roots]
    for v in values:
        v.refine_to(Fraction(1, 100))
    assert values[0].minpoly == IntPoly((-2, 0, 1))
    assert values[1].rational_value == 0
    assert values[2].minpoly == IntPoly((-2, 0, 1))
    assert all(r.multiplicity == 1 for r in roots)
    lo, hi = values[2].interval()
    assert hi - lo <= Fraction(1, 100)


def test_isolate_quadratic():
    roots = isolate_real_roots(IntPoly((-2, -2, 1)))
    for r in roots:
        r.value.refine_to(Fraction(1, 100))
    approx = [float(r.value) for r in roots]
    assert approx == pytest.approx([1 - math.sqrt(3), 1 + math.sqrt(3)], abs=1e-6)


def test_isolate_linear_any_width():
    roots = isolate_real_roots(IntPoly((-1, 1)))
    roots[0].value.refine_to(Fraction(10))
    assert len(roots) == 1 and roots[0].value.rational_value == 1


def test_isolate_reports_multiplicity():
    # (x-1)^2 (x+1)
    roots = isolate_real_roots(IntPoly((1, -1, -1, 1)))
    assert [(float(r.value), r.multiplicity) for r in roots] == [(-1.0, 1), (1.0, 2)]


def test_rational_roots_subset_of_isolated():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 9)]
        p = IntPoly(coeffs)
        rr = rational_roots(p)
        isolated = isolate_real_roots(p)
        rational_isolated = [
            r.value.rational_value for r in isolated if r.value.is_rational
            for _ in range(r.multiplicity)
        ]
        assert sorted(rr) == sorted(rational_isolated)


def _general_cubic_discriminant(d, c, b, a):
    """Discriminant of a x^3 + b x^2 + c x + d; zero iff a root repeats."""
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


def test_isolation_against_companion_matrix_oracle():
    """Count and sign pattern of real roots vs a floating eigenvalue oracle,
    over 1000 random integer cubics."""
    rng = random.Random(12345)
    checked = 0
    while checked < 1000:
        coeffs = [rng.randint(-9, 9) for _ in range(3)] + [rng.choice([-9, -5, -2, -1, 1, 2, 5, 9])]
        p = IntPoly(coeffs)
        monic = [Fraction(c, coeffs[3]) for c in coeffs[:3]]
        # Skip the measure-zero repeated-root cases; the oracle cannot
        # distinguish multiplicities reliably there.
        if _general_cubic_discriminant(*coeffs) == 0:
            continue
        companion = np.array(
            [[0, 0, -float(monic[0])], [1, 0, -float(monic[1])], [0, 1, -float(monic[2])]]
        )
        eig = np.linalg.eigvals(companion)
        oracle_reals = sorted(e.real for e in eig if abs(e.imag) < 1e-6)
        ours = [float(r.value) for r in isolate_real_roots(p)]
        assert len(ours) == len(oracle_reals)
        for a, b in zip(ours, oracle_reals):
            assert a == pytest.approx(b, abs=1e-6)
            if abs(b) > 1e-6:
                assert (a > 0) == (b > 0)
        checked += 1


# ---------------------------------------------------------------------------
# integer root isolation against a plain Fraction reference
# ---------------------------------------------------------------------------

def _fraction_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _reference_isolation(p: IntPoly, width: Fraction):
    """Plain Fraction Sturm bisection: halve at midpoints from the Cauchy
    bound, count roots by Sturm variations at both ends of every cut, and
    stop once an interval holds one root and is no wider than `width`.

    Returns the isolating intervals and the number of cuts made while an
    interval held two or more roots.
    """
    chain = [p.to_q(), p.derivative().to_q()]
    while chain[-1]:
        chain.append(tuple(-c for c in qmod(chain[-2], chain[-1])))
    chain.pop()

    def variations(x):
        signs = [s for s in (_fraction_sign(qeval(f, x)) for f in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.leading)) + 1
    out = []
    multi_root_cuts = 0

    def split(lo, hi, nroots):
        nonlocal multi_root_cuts
        if nroots == 0:
            return
        if nroots == 1 and hi - lo <= width:
            out.append((lo, hi))
            return
        multi_root_cuts += nroots > 1
        mid = (lo + hi) / 2
        left = variations(lo) - variations(mid)
        split(lo, mid, left)
        split(mid, hi, nroots - left)

    split(-bound, bound, variations(-bound) - variations(bound))
    return out, multi_root_cuts


def _reference_halve(p: IntPoly, lo: Fraction, hi: Fraction):
    """One Fraction bisection step of an interval isolating a root of p."""
    q = p.to_q()
    mid = (lo + hi) / 2
    if _fraction_sign(qeval(q, lo)) != _fraction_sign(qeval(q, mid)):
        return lo, mid
    return mid, hi


def _reference_refine(p: IntPoly, lo: Fraction, hi: Fraction, width: Fraction):
    while hi - lo > width:
        lo, hi = _reference_halve(p, lo, hi)
    return lo, hi


def _character_factors(bound: int) -> list[IntPoly]:
    factors = set()
    for params in enumerate_star_solutions(bound):
        for poly in (char_poly_x(params), char_poly_y(params)):
            factors.update(f for f, _ in factor_into_irreducibles(poly) if f.degree >= 2)
    return sorted(factors, key=lambda f: (f.degree, f.coeffs))


def _assert_matches_reference(p: IntPoly, width: Fraction) -> None:
    """Isolation stops at the first nodes that separate the roots (the
    reference run with a width above the whole Cauchy interval), and
    refine_to(width) then lands on the reference's intervals at `width`."""
    roots = isolate_irreducible(p)
    separated, _ = _reference_isolation(p, 2 * realalg.cauchy_bound(p))
    assert [r.interval() for r in roots] == separated
    for root in roots:
        root.refine_to(width)
    expected, _ = _reference_isolation(p, width)
    assert [r.interval() for r in roots] == expected
    target = Fraction(1, 10**18)
    for root, (lo, hi) in zip(roots, expected):
        root.refine_to(target)
        assert root.interval() == _reference_refine(p, lo, hi, target)


def test_isolation_matches_fraction_reference_on_character_polys():
    factors = _character_factors(10)
    assert any(f.degree == 2 for f in factors) and any(f.degree == 3 for f in factors)
    for p in factors:
        _assert_matches_reference(p, Fraction(1, 1 << 20))


@pytest.mark.parametrize("q", [q for q in range(1, 41) if cos_minimal_poly(q).degree >= 2])
def test_isolation_matches_fraction_reference_on_cos_minimal_polys(q):
    _assert_matches_reference(cos_minimal_poly(q), Fraction(1, 1 << 16))


@pytest.mark.parametrize("coeffs", [(-2, 0, 3), (-1, -1, 0, 5)])
def test_isolation_matches_fraction_reference_off_dyadic_points(coeffs):
    """3x^2 - 2 and 5x^3 - x - 1 have Cauchy bounds 5/3 and 6/5, so every cut
    point has a non-power-of-two denominator."""
    p = IntPoly(coeffs)
    assert realalg.cauchy_bound(p).denominator in (3, 5)
    for width in (Fraction(1, 64), Fraction(1, 1 << 20)):
        _assert_matches_reference(p, width)


@pytest.mark.parametrize("coeffs", [(-2, 0, 3), (-1, -1, 0, 5), (1, -2, -1, 1)])
def test_refine_to_continues_the_refine_once_chain(coeffs):
    """refine_to bisects on integer numerators, yet from any point of the
    bisection chain it lands on the interval that repeated one-step Fraction
    halvings (`_reference_halve`) give, non-dyadic endpoints included."""
    p = IntPoly(coeffs)
    for steps, root in enumerate(isolate_irreducible(p)):
        root.refine_to(Fraction(1, 64))
        lo, hi = root.interval()
        for _ in range(steps):
            lo, hi = _reference_halve(p, lo, hi)
        root.refine_to(hi - lo)
        assert root.interval() == (lo, hi)
        # (hi - lo) / 2^20 is met exactly: refine_to stops there, not after.
        for width in (Fraction(1, 10**6), (hi - lo) / 2**20, Fraction(1, 2**129)):
            start = root.interval()
            root.refine_to(width)
            while hi - lo > width:
                lo, hi = _reference_halve(p, lo, hi)
            assert root.interval() == (lo, hi)
            assert root.interval() == _reference_refine(p, *start, width)


def test_integer_sign_matches_fraction_evaluation():
    rng = random.Random(2026)
    for _ in range(500):
        p = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 7))])
        num, den = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        # Points need not be in lowest terms.
        scale = rng.randint(1, 50)
        expected = _fraction_sign(qeval(p.to_q(), Fraction(num, den)))
        assert sign_at(p.coeffs, num * scale, den * scale) == expected
        assert sign_at(p.coeffs, num, den) == expected
    assert sign_at((-2, 0, 3), 0, 1) == -1
    assert sign_at((-4, 0, 9), 2, 3) == 0


def test_sturm_chain_evaluated_only_before_isolation(monkeypatch):
    """Each cut point made while an interval holds several roots evaluates
    the Sturm chain once; the two ends of the Cauchy interval add one each.
    Halving an isolated interval and refine_to use the sign of p alone, so
    the count does not grow with the requested width."""
    calls = 0
    original = realalg.variations_at

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(realalg, "variations_at", counting)
    p = IntPoly((1, -2, -1, 1))  # three real roots
    _, multi_root_cuts = _reference_isolation(p, Fraction(1, 64))
    roots = isolate_irreducible(p)
    assert len(roots) == 3
    assert calls <= 2 + multi_root_cuts
    for width in (Fraction(1, 64), Fraction(1, 1 << 20), Fraction(1, 1 << 60), Fraction(1, 10**30)):
        for root in roots:
            root.refine_to(width)
        assert calls <= 2 + multi_root_cuts


def test_equality_stable_under_refinement():
    a = roots_of_irreducible(IntPoly((-2, 0, 1)))[1]
    b = roots_of_irreducible(IntPoly((-2, 0, 1)))[1]
    b.refine_to(Fraction(1, 10**9))
    assert a == b
    a.refine_to(Fraction(1, 10**30))
    assert a == b
    assert not (a == roots_of_irreducible(IntPoly((-2, 0, 1)))[0])


def test_real_algebraic_ordering():
    sqrt2 = roots_of_irreducible(IntPoly((-2, 0, 1)))[1]
    sqrt3 = roots_of_irreducible(IntPoly((-3, 0, 1)))[1]
    assert sqrt2 < sqrt3
    assert sqrt2 > 1
    assert sqrt2 <= Fraction(3, 2)
    assert sqrt2.sign() == 1
    assert RealAlgebraic.from_rational(-2) < sqrt2


def test_from_poly_expr():
    sqrt2 = roots_of_irreducible(IntPoly((-2, 0, 1)))[1]
    square = from_poly_expr(sqrt2, (Fraction(0), Fraction(0), Fraction(1)), IntPoly((4, -4, 1)))
    assert square.rational_value == 2
    # 1 + sqrt(2) against both roots of its minimal polynomial and the
    # rational root 3 of a multiple of it.
    poly = IntPoly((-1, -2, 1)) * IntPoly((-3, 1))
    shifted = from_poly_expr(sqrt2, (Fraction(1), Fraction(1)), poly)
    assert shifted.minpoly == IntPoly((-1, -2, 1)) and shifted.root_index == 1
    assert float(shifted) == pytest.approx(1 + math.sqrt(2))
    # No root of (x - 5)(x - 7) meets the image of 1 + x over sqrt(2)'s interval.
    with pytest.raises(ValueError, match="not a root"):
        from_poly_expr(sqrt2, (Fraction(1), Fraction(1)), IntPoly((35, -12, 1)))


def test_factor_into_irreducibles():
    # (x-1)^2 (x^2 - 2)
    p = IntPoly((1, -1, -1, 1)) * IntPoly((-2, 0, 1))
    factors = dict(factor_into_irreducibles(p))
    assert factors[IntPoly((-1, 1))] == 2
    assert factors[IntPoly((1, 1))] == 1
    assert factors[IntPoly((-2, 0, 1))] == 1


def _clear_denominators(p):
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of the rational polynomial p."""
    den = math.lcm(*(c.denominator for c in p))
    return IntPoly(int(c * den) for c in p).primitive()


def _divisors(m):
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return set(small) | {m // d for d in small}


def _yun_factor_into_irreducibles(p):
    """Reference: Yun's squarefree decomposition with Fraction gcds, then the
    rational roots of each squarefree part found by the sign of the part at
    every candidate u/v and stripped by Fraction deflation; a part left with
    degree above 3 is rejected."""
    def gcd(a, b):
        return _clear_denominators(_qgcd(a.to_q(), b.to_q()))

    p = p.primitive()
    parts = []
    if p.degree > 0:
        g = gcd(p, p.derivative())
        w = p.exact_div(g)
        mult = 1
        while w.degree > 0:
            y = gcd(w, g)
            factor = w.exact_div(y)
            if factor.degree > 0:
                parts.append((factor.primitive(), mult))
            w = y
            g = g.exact_div(y)
            mult += 1
    out = {}
    for sqf, mult in parts:
        work = sqf.to_q()
        # A squarefree part has at most a simple root at 0, so the numerators
        # of its other rational roots divide its lowest nonzero coefficient.
        low = next(abs(c) for c in sqf.coeffs if c)
        candidates = {Fraction(0)} | {
            Fraction(s * u, v) for u in _divisors(low) for v in _divisors(sqf.leading) for s in (1, -1)
        }
        for root in sorted(candidates):
            if sign_at(sqf.coeffs, root.numerator, root.denominator) == 0:
                lin = IntPoly((-root.numerator, root.denominator))
                out[lin] = out.get(lin, 0) + mult
                work = qdivmod(work, (-root, Fraction(1)))[0]
        rest = _clear_denominators(work)
        if rest.degree > 3:
            raise ValueError("factorization beyond degree 3 is not supported")
        if rest.degree > 0:
            out[rest] = out.get(rest, 0) + mult
    return sorted(out.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


def test_factor_into_irreducibles_matches_yun_reference():
    """The rational-root factorization gives the factors and multiplicities
    of the Yun-based reference on every char_poly_x and char_poly_y up to
    bound 100, and on seeded non-monic products of planted roots u/v, each
    possibly repeated, with an irreducible factor of degree at most 3."""
    for params in enumerate_star_solutions(100):
        for poly in (char_poly_x(params), char_poly_y(params)):
            assert factor_into_irreducibles(poly) == _yun_factor_into_irreducibles(poly), poly
    rng = random.Random(53)
    planted = []
    while len(planted) < 400:
        degree = rng.randint(0, 3)
        core = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 4)])
        if _fraction_rational_roots(core):
            continue
        p = core * IntPoly((rng.choice((1, -1, 2, -3)),))
        for _ in range(rng.randint(1, 4)):
            u, v = rng.randint(-12, 12), rng.randint(1, 6)
            p = p * IntPoly((-u, v))
            if rng.random() < 0.3:
                p = p * IntPoly((-u, v))
        expected = _yun_factor_into_irreducibles(p)
        assert factor_into_irreducibles(p) == expected, p
        planted.append((p, expected))
    assert any(not p.primitive().is_monic for p, _ in planted)
    assert any(m > 1 for _, expected in planted for _f, m in expected)
    assert any(f.degree == 3 for _, expected in planted for f, _m in expected)


def test_factor_into_irreducibles_rejects_a_quartic_remainder():
    """A remainder of degree 4 with no rational root raises, whether it is
    a square, a product of quadratics or irreducible, and so does the zero
    polynomial; a cubic remainder under repeated linear factors does not."""
    sqrt2 = IntPoly((-2, 0, 1))
    for quartic in (sqrt2 * sqrt2, sqrt2 * IntPoly((-3, 0, 1)), IntPoly((-2, 0, 0, 0, 1))):
        with pytest.raises(ValueError, match="beyond degree 3"):
            factor_into_irreducibles(quartic * IntPoly((-1, 2)))
    with pytest.raises(ValueError, match="zero polynomial"):
        factor_into_irreducibles(IntPoly(()))
    cube_root = IntPoly((-2, 0, 0, 1))
    p = cube_root * IntPoly((-1, 1)) * IntPoly((-1, 1)) * IntPoly((-1, 1))
    assert factor_into_irreducibles(p) == [(IntPoly((-1, 1)), 3), (cube_root, 1)]


def _divisor_split_rational_roots(p):
    """Reference: the divisor route.  Every candidate +-u/v with u | a_0 and
    v | a_n in lowest terms, the divisors found by trial division, is tried by
    exact integer division by v*x - u, repeated for multiplicity."""
    work = p.primitive()
    roots = []
    while work.coeffs[0] == 0:
        roots.append((0, 1))
        work = IntPoly(work.coeffs[1:])
    for v in sorted(_divisors(work.leading)):
        for u in sorted(_divisors(abs(work.coeffs[0]))):
            if math.gcd(u, v) != 1:
                continue
            for cand in (u, -u):
                while work.degree > 0:
                    try:
                        work = work.exact_div(IntPoly((-cand, v)))
                    except ValueError:
                        break
                    roots.append((cand, v))
    return sorted(roots), work


def test_split_rational_roots_matches_divisor_reference():
    """The real-root search finds the roots, multiplicities and quotient of
    the divisor route on every char_poly_x and char_poly_y up to bound 100
    and on seeded products of planted roots u/v, up to degree 10."""
    polys = []
    for params in enumerate_star_solutions(100):
        polys += [char_poly_x(params), char_poly_y(params)]
    rng = random.Random(61)
    planted = 0
    while planted < 2000:
        p = IntPoly((rng.choice((1, -1, 2, -3, 6)),))
        for _ in range(rng.randint(0, 6)):
            p = p * IntPoly((-rng.randint(-30, 30), rng.randint(1, 6)))
        p = p * IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 5)])
        if p.degree <= 10:
            polys.append(p)
            planted += 1
    assert max(p.degree for p in polys) == 10
    for p in polys:
        roots, rest = split_rational_roots(p)
        assert (sorted(roots), rest) == _divisor_split_rational_roots(p), p


def test_split_rational_roots_of_a_huge_constant_term():
    """The search bisects over the real line, so a constant term far beyond
    trial division costs a few hundred evaluations: the Casimir cubic of
    K(1,10000,10000,0) (constant term about 4e16, where trial division took
    half a minute) and a planted product with constant term above 10^60."""
    k, l, m, n = 1, 10000, 10000, 0
    N = rank3_tensor(Rank3Params(k, l, m, n))
    casimir = IntPoly(charpoly([
        [3 * (r == c) + (m + l) * N[1][c][r] + (k + n) * N[2][c][r] for c in range(3)]
        for r in range(3)
    ]))
    assert casimir.coeffs[0] == -40000001300000032
    # An S3 ring: its global dimension is a cubic irrationality.
    assert split_rational_roots(casimir) == ([], casimir)
    big = [(10**20 + 39, 1), (-(10**21) - 117, 1), (3 * 10**22 + 1, 2)]
    p = IntPoly((-2, 0, 1))
    for u, v in big:
        p = p * IntPoly((-u, v))
    roots, rest = split_rational_roots(p)
    assert sorted(roots) == sorted(big) and rest == IntPoly((-2, 0, 1))


# ---------------------------------------------------------------------------
# roots of unity and cyclotomic values
# ---------------------------------------------------------------------------

def test_root_of_unity_values():
    one = root_of_unity_value(RootOfUnity.make(0, 1), 64)
    assert one.center_complex() == pytest.approx(1 + 0j, abs=1e-15)
    minus = root_of_unity_value(RootOfUnity.make(1, 2), 64)
    assert minus.center_complex() == pytest.approx(-1 + 0j, abs=1e-15)
    third = root_of_unity_value(RootOfUnity.make(1, 3), 64)
    assert third.center_complex() == pytest.approx(complex(-0.5, math.sqrt(3) / 2), abs=1e-15)


def test_root_of_unity_radius_bound():
    for p, q in [(1, 7), (3, 16), (5, 60), (0, 1)]:
        for bits in (32, 80, 128):
            ball = root_of_unity_value(RootOfUnity.make(p, q), bits)
            assert ball.rad <= Fraction(2, 2**bits)


def test_root_of_unity_value_of_large_prime_order():
    """Order 97 needs the degree-48 (real part) and degree-96 (imaginary
    part, order 388) cosine minimal polynomials isolated and refined to
    2^-130; this once took minutes."""
    ball = root_of_unity_value(RootOfUnity.make(1, 97), 128)
    assert ball.rad <= Fraction(2, 2**128)
    z = cmath.exp(2j * cmath.pi / 97)
    # The float error of z dwarfs the radius, so allow for it.
    assert abs(ball.center_complex() - z) <= float(ball.rad) + 1e-15


def test_root_of_unity_requires_precision():
    with pytest.raises(ValueError):
        root_of_unity_value(RootOfUnity.make(1, 3), 8)


@pytest.mark.parametrize(
    "q,coeffs",
    [
        (1, (-2, 1)),
        (2, (2, 1)),
        (3, (1, 1)),
        (4, (0, 1)),
        (5, (-1, 1, 1)),
        (7, (-1, -2, 1, 1)),
        (8, (-2, 0, 1)),
        (12, (-3, 0, 1)),
        (16, (2, 0, -4, 0, 1)),
    ],
)
def test_cos_minimal_poly(q, coeffs):
    assert cos_minimal_poly(q) == IntPoly(coeffs)


def test_two_cos_matches_float():
    for q in range(1, 31):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            v = two_cos(Fraction(p, q))
            assert float(v) == pytest.approx(2 * math.cos(2 * math.pi * p / q), abs=1e-12)


def test_root_of_unity_algebra():
    w = RootOfUnity.make(1, 3)
    assert (w * w * w).is_one
    assert w.inverse() == RootOfUnity.make(2, 3)
    assert (w**2).turn == Fraction(2, 3)
    assert RootOfUnity.make(5, 10) == RootOfUnity(1, 2)


def test_cyclotomic_poly_basics():
    assert cyclotomic_poly(1) == IntPoly((-1, 1))
    assert cyclotomic_poly(4) == IntPoly((1, 0, 1))
    assert cyclotomic_poly(12) == IntPoly((1, 0, -1, 0, 1))


def _mobius(m):
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def test_cyclotomic_poly_matches_reference_constructions_up_to_400():
    """Integer division gives the same Phi_n as the Fraction division it
    replaced (kept here for n <= 100) and as the independent product
    prod_{d | n} (x^d - 1)^mu(n/d), run on int lists, for every n <= 400."""
    by_fractions = {}
    for n in range(1, 101):
        num = (Fraction(-1),) + (Fraction(0),) * (n - 1) + (Fraction(1),)
        for d in range(1, n):
            if n % d == 0:
                num, rem = qdivmod(num, by_fractions[d])
                assert rem == ()
        by_fractions[n] = num
        assert cyclotomic_poly(n).to_q() == num, n
    for n in range(1, 401):
        acc = [1]
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d in (d for d in divisors if _mobius(n // d) == 1):
            acc = [0] * d + acc  # times x^d - 1
            for i in range(len(acc) - d):
                acc[i] -= acc[i + d]
        for d in (d for d in divisors if _mobius(n // d) == -1):
            for i in range(len(acc) - d - 1, -1, -1):  # divided by x^d - 1
                acc[i] += acc[i + d]
            assert not any(acc[:d])
            acc = acc[d:]
        assert cyclotomic_poly(n) == IntPoly(acc), n


def test_exact_div_rejects_inexact_and_nonintegral_quotients():
    p = IntPoly((-1, 0, 1))
    assert p.exact_div(IntPoly((1, 1))) == IntPoly((-1, 1))
    assert IntPoly((-4, 0, 4)).exact_div(IntPoly((-2, 2))) == IntPoly((2, 2))
    with pytest.raises(ValueError):
        p.exact_div(IntPoly((2, 1)))  # remainder 3
    with pytest.raises(ValueError):
        p.exact_div(IntPoly((1, 2)))  # quotient x/2 - 1/4


def _ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _ref_add(p, q, sign=1):
    n = max(len(p), len(q))
    return _ref_trim(
        (p[i] if i < len(p) else 0) + sign * (q[i] if i < len(q) else 0) for i in range(n)
    )


def _ref_mul_mod(p, q, phi):
    """Plain Fraction product of p and q, reduced modulo the monic phi."""
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    deg = len(phi) - 1
    for top in range(len(out) - 1, deg - 1, -1):
        c = out[top]
        for k in range(deg + 1):
            out[top - deg + k] -= c * phi[k]
    return _ref_trim(out[:deg])


def _random_coeffs(rng, deg, den_pool):
    """Random rational coefficients over one of a few denominators, so both
    equal and mixed denominators occur; sometimes zero."""
    if rng.random() < 0.1:
        return ()
    den = rng.choice(den_pool)
    return _ref_trim(
        Fraction(rng.randint(-30, 30), den * rng.choice((1, 1, 2, 3)))
        for _ in range(rng.randint(1, deg))
    )


def _assert_canonical(z):
    assert not z.num or z.num[-1] != 0
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1
    assert z.num or z.den == 1


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12, 16, 48, 60, 97])
def test_cyclonum_matches_fraction_reference(n):
    """+, -, *, scale, inverse and == on integer numerators agree with plain
    Fraction arithmetic reduced modulo Phi_n, on seeded random elements with
    equal and mixed denominators and with zero results."""
    rng = random.Random(7000 + n)
    phi = tuple(Fraction(c) for c in cyclotomic_poly(n).coeffs)
    deg = len(phi) - 1
    trials = 4 if n == 97 else 40
    for _ in range(trials):
        a = _random_coeffs(rng, deg, (1, 6, 35))
        b = _random_coeffs(rng, deg, (1, 6, 35)) if rng.random() < 0.8 else a
        x, y = CycloNum(n, a), CycloNum(n, b)
        assert x.coeffs == a and y.coeffs == b
        results = {
            "add": (x + y, _ref_add(a, b)),
            "sub": (x - y, _ref_add(a, b, -1)),
            "mul": (x * y, _ref_mul_mod(a, b, phi)),
            "neg": (-x, _ref_add((), a, -1)),
        }
        for c in (0, 1, -3, Fraction(5, 6), Fraction(-35, 4)):
            results[f"scale {c}"] = (x.scale(c), _ref_trim(v * c for v in a))
        for name, (got, expected) in results.items():
            _assert_canonical(got)
            assert got.coeffs == expected, (n, name, a, b)
            assert got == CycloNum(n, expected) and hash(got) == hash(CycloNum(n, expected))
            assert got.is_zero == (expected == ()) == (not got)
        assert (x == y) == (a == b)
        assert (x == x.scale(Fraction(1, 2))) == (not a)  # same numerators, other denominator
        assert (x - x).is_zero and (x + (-x)).is_zero
        if x:
            inv = x.inverse()
            _assert_canonical(inv)
            assert _ref_mul_mod(a, inv.coeffs, phi) == (Fraction(1),)
            assert Fraction(1) / x == inv
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()


def test_cyclonum_field_ops():
    w = CycloNum.from_root(RootOfUnity.make(1, 3), 3)
    one = CycloNum.from_rational(3, 1)
    assert (one + w + w * w).is_zero
    inv = w.inverse()
    assert (w * inv - one).is_zero
    mixed = CycloNum.from_root(RootOfUnity.make(1, 4), 12)
    assert (mixed * mixed + CycloNum.from_rational(12, 1)).is_zero


def test_cyclonum_constructor_folds_powers_beyond_phi():
    """zeta_4^2 = -1, so CycloNum(4, (0, 0, 1)) is the canonical -1.  On
    seeded random vectors up to 2n + 3 long the constructor gives the
    canonical form of their Fraction remainder modulo Phi_n."""
    assert CycloNum(4, (0, 0, 1)) == CycloNum.from_rational(4, -1)
    rng = random.Random(8)
    for n in (1, 2, 3, 4, 7, 12, 15):
        phi = tuple(Fraction(c) for c in cyclotomic_poly(n).coeffs)
        for _ in range(20):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6)))
                for _ in range(rng.randint(1, 2 * n + 3))
            ]
            expected = _ref_mul_mod(_ref_trim(coeffs), (Fraction(1),), phi)
            got = CycloNum(n, coeffs)
            _assert_canonical(got)
            assert got.coeffs == expected
            assert got == CycloNum(n, expected) and hash(got) == hash(CycloNum(n, expected))


def test_qdivmod_and_qgcd_over_cyclotomic_field():
    """Over Q(zeta_8), x^2 - 2 and 2x - 2(zeta_8 + zeta_8^-1) = 2x - 2sqrt(2)
    have the monic gcd x - sqrt(2), which divides x^2 - 2 exactly."""
    n = 8
    s = CycloNum.from_root(RootOfUnity.make(1, 8), n) + CycloNum.from_root(RootOfUnity.make(7, 8), n)
    zero, one = CycloNum.from_rational(n, 0), CycloNum.from_rational(n, 1)
    modulus = (CycloNum.from_rational(n, -2), zero, one)
    g = _qgcd(modulus, (-s - s, one + one))
    assert g == (-s, one)
    quot, rem = qdivmod(modulus, g)
    assert rem == ()
    assert quot == (s, one)


def test_qdivmod_int_coefficients_stay_exact():
    """x^2 + 1 = (3x + 1)(x/3 - 1/9) + 10/9: no coefficient goes through a
    float, which could not hold 1/3."""
    quot, rem = qdivmod((1, 0, 1), (1, 3))
    assert quot == (Fraction(-1, 9), Fraction(1, 3))
    assert rem == (Fraction(10, 9),)
    assert not any(isinstance(c, float) for c in quot + rem)


def test_charpoly_small_matrices():
    int_poly = charpoly([[0, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert int_poly == (1, -2, -1, 1)
    assert all(type(c) is int for c in int_poly)
    assert charpoly([[Fraction(1, 2), 1], [2, Fraction(1, 3)]]) == (
        Fraction(1, 6) - 2, -Fraction(5, 6), 1
    )
    assert charpoly([[Fraction(5, 7)]]) == (-Fraction(5, 7), 1)


def test_cyclonum_ball_containment():
    z = CycloNum.from_root(RootOfUnity.make(1, 5), 5)
    ball = z.ball(96)
    expected = complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))
    assert abs(ball.center_complex() - expected) < 1e-20 + float(ball.rad)


# ---------------------------------------------------------------------------
# complex balls
# ---------------------------------------------------------------------------

def test_ball_containment_random_expressions():
    """Exact rational evaluation always lies inside the computed ball."""
    rng = random.Random(99)
    for _ in range(200):
        exact = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(4)]
        balls = [
            ComplexBall(v + Fraction(rng.randint(-1, 1), 10**6), 0, Fraction(2, 10**6))
            for v in exact
        ]
        expr_exact = exact[0] * exact[1] + exact[2] * exact[3] - exact[0]
        expr_ball = balls[0] * balls[1] + balls[2] * balls[3] - balls[0]
        # |exact - center| <= radius
        diff = abs(expr_exact - expr_ball.re)
        assert diff <= expr_ball.rad
        assert abs(expr_ball.im) <= expr_ball.rad


def test_ball_nonzero_certificate():
    assert ComplexBall(1, 0, Fraction(1, 2)).definitely_nonzero()
    assert not ComplexBall(Fraction(1, 4), 0, Fraction(1, 2)).definitely_nonzero()


def test_decimal_str():
    assert decimal_str(Fraction(141421356237309515, 10**17), 12) == "1.41421356237"
    assert decimal_str(Fraction(0), 12) == "0"
    assert decimal_str(Fraction(-6), 12) == "-6"
    assert decimal_str(Fraction(1, 3), 5) == "0.33333"


# ---------------------------------------------------------------------------
# integer kernels against their Fraction references
# ---------------------------------------------------------------------------

def _fraction_decimal_str(value, sig=12):
    """Reference: the Fraction rendering, scaled by tens to [1, 10), rounded
    half up, and its plain form expanded digit by digit."""
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
    digits = int(v * 10 ** (sig - 1) + Fraction(1, 2))
    if digits >= 10**sig:
        digits //= 10
        exp += 1
    text = str(digits)
    mantissa = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    sign = "-" if negative else ""
    if -4 <= exp < sig:
        if exp < sig - 1:
            plain = Fraction(digits, 10 ** (sig - 1 - exp))
        else:
            plain = Fraction(digits * 10 ** (exp - sig + 1))
        whole, rem = divmod(plain.numerator, plain.denominator)
        out = []
        while rem != 0 and len(out) < 40:
            d, rem = divmod(rem * 10, plain.denominator)
            out.append(str(d))
        return sign + (f"{whole}." + "".join(out) if out else str(whole))
    return f"{sign}{mantissa}e{exp:+d}"


def _decimal_cases():
    """Seeded random values from 1e-30 to 1e30, both signs, and the edge
    cases: a rounding carry to 10^sig (also across the plain/scientific
    switch), exponents -5, -4, sig - 1 and sig, exact halves, integers."""
    rng = random.Random(161)
    cases = []
    for _ in range(600):
        sig = rng.choice((1, 2, 5, 8, 12, 12, 12, 17))
        num = rng.randint(1, 10 ** rng.randint(1, 40))
        den = rng.randint(1, 10 ** rng.randint(0, 40))
        value = Fraction(num, den) * Fraction(10) ** rng.randint(-30, 30)
        cases.append((rng.choice((1, -1)) * value, sig))
    for sig in (1, 2, 5, 12):
        for exp in (-6, -5, -4, -3, 0, 1, sig - 2, sig - 1, sig, sig + 1):
            top = Fraction(10) ** exp
            half_ulp = top / 10 ** (sig - 1) / 2
            for value in (top, 10 * top - half_ulp, 10 * top - half_ulp / 2, 10 * top - 3 * half_ulp,
                          top + half_ulp, top + 3 * half_ulp, top + half_ulp / 3, 7 * top / 3):
                cases += [(value, sig), (-value, sig)]
        for _ in range(40):  # exact halves between two sig-digit values
            digits = rng.randint(10 ** (sig - 1), 10**sig - 1)
            cases.append((Fraction(2 * digits + 1, 2) * Fraction(10) ** rng.randint(-8, 8 - sig), sig))
    cases += [(Fraction(99999999999996, 10**13), 12), (Fraction(-99999999999996, 10**13), 12),
              (Fraction(99999999999996, 10**18), 12), (Fraction(9999999999996, 10), 12),
              (Fraction(5, 2), 1), (Fraction(-25, 2), 2), (Fraction(0), 12), (7, 12), (-10**20, 12)]
    return cases


def test_decimal_str_matches_fraction_reference():
    """decimal_str on integers renders every value exactly as the Fraction
    reference does, ties included."""
    for value, sig in _decimal_cases():
        assert decimal_str(value, sig) == _fraction_decimal_str(value, sig), (value, sig)
    assert decimal_str(Fraction(99999999999996, 10**13), 12) == "10"
    assert decimal_str(Fraction(99999999999996, 10**18), 12) == "0.0001"
    assert decimal_str(Fraction(9999999999996, 10), 12) == "1e+12"
    assert decimal_str(Fraction(5, 2), 1) == "3" and decimal_str(Fraction(-25, 2), 2) == "-13"


class _FractionBall:
    """Reference: ComplexBall arithmetic on Fraction center and radius."""

    def __init__(self, re, im, rad):
        self.re, self.im, self.rad = Fraction(re), Fraction(im), Fraction(rad)

    def __add__(self, other):
        return _FractionBall(self.re + other.re, self.im + other.im, self.rad + other.rad)

    def __sub__(self, other):
        return _FractionBall(self.re - other.re, self.im - other.im, self.rad + other.rad)

    def __mul__(self, other):
        mag1, mag2 = abs(self.re) + abs(self.im), abs(other.re) + abs(other.im)
        return _FractionBall(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re,
                             mag1 * other.rad + mag2 * self.rad + self.rad * other.rad)

    def scale(self, c):
        return _FractionBall(self.re * c, self.im * c, self.rad * abs(c))

    def definitely_nonzero(self):
        return max(abs(self.re), abs(self.im)) > self.rad


def _same_ball(ball, ref):
    return ((ball.re, ball.im, ball.rad) == (ref.re, ref.im, ref.rad)
            and ball.definitely_nonzero() == ref.definitely_nonzero()
            and ball.center_complex() == complex(float(ref.re), float(ref.im)))


def test_ball_arithmetic_matches_fraction_reference():
    """Integer balls give the reference's exact centers, radii and nonzero
    verdicts: on seeded random expressions over balls with radius 0, with
    dyadic tree-node data (from_real_interval), and with numerators and
    denominators sharing factors, and on Horner loops of the
    _eval_ball_at_gen shape."""
    rng = random.Random(162)

    def rational():
        den = rng.choice((1, 3, 12, 2 ** rng.randint(0, 90), 6 * 2 ** rng.randint(0, 60)))
        return Fraction(rng.randint(-10**12, 10**12), den)

    def pair():
        kind = rng.randrange(3)
        if kind == 0:  # radius 0
            re, im = rational(), rational()
            return ComplexBall(re, im), _FractionBall(re, im, 0)
        if kind == 1:  # a tree node
            den = 2 ** rng.randint(0, 100) * rng.choice((1, 3))
            lo = rng.randint(-10**30, 10**30)
            lo, hi = Fraction(lo, den), Fraction(lo + rng.randint(0, 4) * 2, den)
            return ComplexBall.from_real_interval(lo, hi), _FractionBall((lo + hi) / 2, 0, (hi - lo) / 2)
        re, im, rad = rational(), rational(), abs(rational())
        return ComplexBall(re, im, rad), _FractionBall(re, im, rad)

    for _ in range(300):
        (a, ra), (b, rb), (c, rc) = pair(), pair(), pair()
        k = rational()
        for ball, ref in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                          (a * b - c, ra * rb - rc), (a.scale(k), ra.scale(k)),
                          (a.scale(7), ra.scale(7)), (-a, ra.scale(-1))):
            assert _same_ball(ball, ref)
        x, rx = pair()
        acc, racc = ComplexBall.from_rational(0), _FractionBall(0, 0, 0)
        for _ in range(rng.randint(1, 5)):
            c, rc = pair()
            acc, racc = acc * x + c, racc * rx + rc
        assert _same_ball(acc, racc)
    with pytest.raises(ValueError):
        ComplexBall(0, 0, Fraction(-1, 3))


def _sequential_zeta_ball_sum(z, bits):
    """CycloNum.ball as a chain of ball sums: each cached zeta^i ball scaled
    by its numerator and added in turn, then divided by den."""
    acc = ComplexBall(0, 0)
    for i, c in enumerate(z.num):
        if c:
            acc = acc + _zeta_ball(z.n, i, bits).scale(c)
    return acc if z.den == 1 else acc.scale(Fraction(1, z.den))


def test_root_and_cyclonum_balls_match_fraction_reference():
    """root_of_unity_value and CycloNum.ball enclose the same exact balls as
    the Fraction forms: the tree-node midpoints of 2cos, and the sum of the
    Fraction coefficients times the zeta^i balls.  CycloNum.ball, one
    integer dot product over the common denominator of the zeta^i balls,
    also gives the same rational re, im and rad as the chain of scaled ball
    sums, at every precision the package reads."""
    rng = random.Random(163)
    for q in (1, 2, 3, 4, 5, 7, 8, 12, 16, 60):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            r = RootOfUnity(p, q)
            for bits in (32, 96, 144):
                target = Fraction(1, 2 ** (bits + 2))
                re_lo, re_hi = two_cos(r.turn).tree_interval(target)
                im_lo, im_hi = two_cos(r.turn - Fraction(1, 4)).tree_interval(target)
                ref = _FractionBall((re_lo + re_hi) / 4, (im_lo + im_hi) / 4,
                                    (re_hi - re_lo) / 4 + (im_hi - im_lo) / 4)
                assert _same_ball(root_of_unity_value(r, bits), ref)
    for n in (1, 2, 3, 5, 7, 8, 12, 16, 48, 80):
        deg = cyclotomic_poly(n).degree
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-50, 50), rng.choice((1, 2, 6, 35))) if rng.random() < 0.7 else 0
                      for _ in range(deg)]
            z = CycloNum(n, coeffs)
            ref = _FractionBall(0, 0, 0)
            for i, c in enumerate(z.coeffs):
                if c:
                    zeta = root_of_unity_value(RootOfUnity.make(i, n), 96)
                    ref = ref + _FractionBall(zeta.re, zeta.im, zeta.rad).scale(c)
            assert _same_ball(z.ball(96), ref), (n, coeffs)
            for bits in (96, 144, 288):
                ball, chain = z.ball(bits), _sequential_zeta_ball_sum(z, bits)
                assert (ball.re, ball.im, ball.rad) == (chain.re, chain.im, chain.rad), (n, coeffs)
    zero = CycloNum.from_rational(16, 0).ball(144)
    assert (zero.re, zero.im, zero.rad) == (0, 0, 0)


def test_rotated_sum_matches_products_of_roots():
    """rotated_sum(n, terms) equals sum c * from_root(zeta_n^e) * v formed by
    products and sums, on seeded random terms: exponents negative and >= n,
    int and Fraction coefficients, zero coefficients and zero elements, and
    term lists that cancel to zero (each term with its negation at an
    exponent shifted by a multiple of n)."""
    rng = random.Random(2025)
    zeros = 0
    for n in (1, 2, 3, 7, 12, 16, 48, 80):
        deg = cyclotomic_poly(n).degree

        def element():
            return CycloNum(n, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10)))
                                if rng.random() < 0.6 else 0 for _ in range(deg)])

        for _ in range(40):
            terms = []
            for _ in range(rng.randint(0, 5)):
                c = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-7, 7), rng.randint(1, 6))))
                terms.append((c, rng.randint(-3 * n, 3 * n), element()))
            if terms and rng.random() < 0.3:
                terms += [(-c, e + n * rng.randint(-2, 2), v) for c, e, v in terms]
            ref = CycloNum.from_rational(n, 0)
            for c, e, v in terms:
                ref = ref + CycloNum.from_root(RootOfUnity.make(e, n), n) * v.scale(c)
            got = rotated_sum(n, terms)
            assert got == ref, (n, terms)
            zeros += not ref
    assert zeros >= 10
    assert rotated_sum(5, []) == CycloNum.from_rational(5, 0)


def _fraction_interval_eval(expr, lo, hi):
    """Reference: interval Horner in Fractions."""
    acc_lo, acc_hi = Fraction(0), Fraction(0)
    for c in reversed(expr):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return acc_lo, acc_hi


def test_interval_eval_matches_fraction_reference():
    """The integer interval Horner returns the reference's exact endpoints,
    on seeded random expressions and intervals: both signs, a point interval,
    endpoints over unrelated denominators and over powers of two."""
    rng = random.Random(164)
    for _ in range(500):
        expr = tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 9, 10, 35)))
                     for _ in range(rng.randint(1, 6)))
        den = rng.choice((1, 7, 2 ** rng.randint(0, 80), 3 * 2 ** rng.randint(0, 40)))
        lo = Fraction(rng.randint(-10**20, 10**20), den)
        hi = lo + rng.choice((0, Fraction(1, den), Fraction(rng.randint(1, 9), rng.choice((2, 5, 2**30)))))
        got = realalg._interval_eval(expr, lo, hi)
        assert got == _fraction_interval_eval(expr, lo, hi), (expr, lo, hi)
        assert all(type(e) is Fraction for e in got)


def test_renderings_do_not_depend_on_refinement():
    """approx_str and float() read the bisection-tree node of the rendered
    width, so a value first refined far below that width renders the same.
    Both values sit within 1e-24 above a rounding boundary, where the
    midpoint of a deeper interval and that of the node round apart:
    sqrt(a^2 + 1)/10^12 just above the 12-digit boundary a/10^12, and
    sqrt(b^2 + 1)/2^53 just above b/2^53, midway between two doubles."""
    a, b = 1000000000005, 2**53 + 1
    for poly in (IntPoly((-(a * a + 1), 0, 10**24)), IntPoly((-(b * b + 1), 0, 2**106))):
        fresh = roots_of_irreducible(poly)[-1]
        deep = roots_of_irreducible(poly)[-1]
        deep.refine_to(Fraction(1, 2**200))
        assert fresh.approx_str(12) == deep.approx_str(12)
        assert float(fresh) == float(deep)


# ---------------------------------------------------------------------------
# Newton jumps and the placed largest root
# ---------------------------------------------------------------------------

def _bisection_interval(root, width):
    """Test-local pure bisection: halve the isolating interval of a fresh
    copy of `root` by the sign of its minimal polynomial at each midpoint,
    on integer numerators over a common denominator, until it is at most
    `width` wide."""
    fresh = isolate_irreducible(root.minpoly)[root.root_index]
    lo, hi = fresh.interval()
    coeffs = root.minpoly.coeffs
    den = math.lcm(lo.denominator, hi.denominator)
    lo_n, hi_n = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    lo_sign = sign_at(coeffs, lo_n, den)
    while (hi_n - lo_n) * width.denominator > width.numerator * den:
        mid, lo_n, hi_n, den = lo_n + hi_n, 2 * lo_n, 2 * hi_n, 2 * den
        if sign_at(coeffs, mid, den) == lo_sign:
            lo_n = mid
        else:
            hi_n = mid
    return Fraction(lo_n, den), Fraction(hi_n, den)


def _assert_newton_matches_bisection(poly, widths):
    for root in isolate_irreducible(poly):
        for width in widths:
            root.refine_to(width)
            assert root.interval() == _bisection_interval(root, width), (poly, width)


def test_newton_refinement_matches_bisection_on_character_polys():
    """refine_to jumps by Newton wherever several levels remain, yet lands on
    the node that bisection reaches, for every root of every irreducible
    factor of char_poly_x and char_poly_y up to bound 50, at the rendering
    width and at the 2^-130 of the cosine and generator balls."""
    factors = _character_factors(50)
    assert len(factors) > 1000
    for poly in factors:
        _assert_newton_matches_bisection(poly, (RENDER_WIDTH, Fraction(1, 2**130)))


def test_newton_refinement_matches_bisection_on_cos_minimal_polys():
    polys = [cos_minimal_poly(q) for q in range(1, 61)]
    assert max(p.degree for p in polys) == 29
    for poly in polys:
        if poly.degree >= 2:
            _assert_newton_matches_bisection(poly, (Fraction(1, 2**130),))


@pytest.mark.parametrize("offset", [-1, 1, -(2**40), 2**200],
                         ids=["one-below", "one-above", "far-below", "far-above"])
def test_newton_estimate_off_its_node_still_lands_on_the_bisection_node(monkeypatch, offset):
    """A Newton estimate one node beside the root, or far from it, fails the
    exact sign check at the node's ends, and refine_to bisects instead;
    the placement is declined, so largest_root and roots_of_irreducible
    isolate the roots."""
    original = realalg._newton_node

    def off(coeffs, bound, depth, x):
        index = original(coeffs, bound, depth, x)
        return None if index is None else index + offset

    monkeypatch.setattr(realalg, "_newton_node", off)
    for poly in (IntPoly((1, -2, -1, 1)), IntPoly((-2, 0, 1)), IntPoly((-1, -1, 0, 5))):
        for width in (RENDER_WIDTH, Fraction(1, 2**130)):
            _assert_newton_matches_bisection(poly, (width,))
        isolated = isolate_irreducible(poly)
        assert [r.interval() for r in roots_of_irreducible(poly)] == [r.interval() for r in isolated]
        if poly.coeffs[-1] == 1:
            assert largest_root(poly).interval() == isolated[-1].interval()


def test_largest_root_is_not_placed_on_a_lower_root(monkeypatch):
    """At the smallest root of a cubic the signs of p bracket a root, as at
    the largest; only the Fourier-Budan check (p'' < 0 there) refuses it,
    and largest_root isolates the largest root instead."""
    poly = IntPoly((1, -2, -1, 1))  # three real roots
    isolated = isolate_irreducible(poly)
    index, depth = isolated[0]._node_at(RENDER_WIDTH)
    monkeypatch.setattr(realalg, "_newton_node", lambda coeffs, bound, d, x: index)
    top = largest_root(poly)
    assert top == isolated[-1] and top.interval() == isolated[-1].interval()


def test_largest_root_matches_isolation():
    for poly in (IntPoly((1, -2, -1, 1)), IntPoly((-2, 0, 1)), IntPoly((-1, -6, -1, 1))):
        top = largest_root(poly)
        ref = isolate_irreducible(poly)[-1]
        assert top == ref
        assert top.minpoly == ref.minpoly and top.root_index == ref.root_index
        assert top.interval() == ref.tree_interval(RENDER_WIDTH)
        assert top.approx_str(12) == ref.approx_str(12) and float(top) == float(ref)


def test_coefficients_beyond_float_range_fall_back_to_bisection():
    """10^400 x^2 - (2*10^400 + 1) has coefficients no float holds: the
    Newton jump gives up without an OverflowError and bisection places the
    root; largest_root places it or isolates it, never wrongly."""
    big = 10**400
    poly = IntPoly((-(2 * big + 1), 0, big))
    _assert_newton_matches_bisection(poly, (RENDER_WIDTH, Fraction(1, 2**130)))
    root = roots_of_irreducible(poly)[1]
    assert root.approx_str(12) == "1.41421356237" and float(root) == math.sqrt(2)
    top = largest_root(poly)
    assert top == root and top.tree_interval(RENDER_WIDTH) == root.tree_interval(RENDER_WIDTH)
