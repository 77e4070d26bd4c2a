"""Tests for character systems and Galois orbit types."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rank3ribbon.characters import (
    FloatCharacter,
    GaloisType,
    char_poly_x,
    char_poly_y,
    float_characters,
    galois_type,
    solve_characters,
)
from rank3ribbon.classify import enumerate_star_solutions
from rank3ribbon.exactnum import (
    IntPoly,
    RealAlgebraic,
    cubic_discriminant,
    is_perfect_square,
)
from rank3ribbon.exactnum import cos_minimal_poly, isolate_real_roots, roots_of_irreducible
from rank3ribbon.exactnum.intpoly import sign_at, split_rational_roots
from rank3ribbon.exactnum.qpoly import X, charpoly, qadd, qconst, qmod, qmul, qnormalize, qscale
from rank3ribbon.exactnum.realalg import cauchy_bound, from_poly_expr, isolate_irreducible
from rank3ribbon.fusion import (
    Rank3Params,
    StarViolation,
    global_fp_dim,
    make_rank3_ring,
    make_z3_ring,
)
from rank3ribbon.premodular import (
    TWIST_ORDER_BOUND,
    _pinned_pairs,
    _twist_index,
)


def test_char_polys():
    assert char_poly_x(Rank3Params(1, 1, 1, 0)) == IntPoly((1, -1, -2, 1))
    assert char_poly_y(Rank3Params(0, 1, 0, 0)) == IntPoly((0, -2, 0, 1))
    assert char_poly_y(Rank3Params(0, 1, 0, 1)) == IntPoly((0, -2, -1, 1))


def test_char_poly_requires_star():
    with pytest.raises(StarViolation):
        char_poly_x(Rank3Params(1, 1, 2, 0))


def _char_values(params):
    system = solve_characters(make_rank3_ring(Rank3Params(*params)))
    return sorted((float(c.x), float(c.y)) for c in system.chars)


def test_characters_ising():
    system = solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 0)))
    values = {(round(float(c.x), 9), round(float(c.y), 9)) for c in system.chars}
    s = round(math.sqrt(2), 9)
    assert values == {(1.0, s), (1.0, -s), (-1.0, 0.0)}
    # dimension character first
    assert float(system.chars[0].y) == pytest.approx(math.sqrt(2))


def test_characters_rep_s3():
    system = solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 1)))
    values = {(float(c.x), float(c.y)) for c in system.chars}
    assert values == {(1.0, 2.0), (1.0, -1.0), (-1.0, 0.0)}
    assert float(system.chars[0].y) == 2.0


def test_characters_z3():
    system = solve_characters(make_z3_ring())
    turns = [(str(c.x.turn), str(c.y.turn)) for c in system.chars]
    assert turns == [("0", "0"), ("1/3", "2/3"), ("2/3", "1/3")]


@pytest.mark.parametrize("params", [(1, 1, 0, 1), (0, 1, 0, 3)])
def test_characters_ordered_by_exact_comparison(monkeypatch, params):
    """The non-dimension characters are placed by integer tests and come
    out sorted: solving renders no value through float() or repr()."""
    ring = make_rank3_ring(Rank3Params(*params))
    calls = []
    for name in ("__float__", "__repr__"):
        original = getattr(RealAlgebraic, name)

        def counted(self, _original=original, _name=name):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(RealAlgebraic, name, counted)
    system = solve_characters(ring)
    assert calls == []
    monkeypatch.undo()
    first, second = system.chars[1], system.chars[2]
    assert (first.x, first.y) < (second.x, second.y)


def test_galois_types():
    assert galois_type(Rank3Params(0, 1, 0, 1)).tag == GaloisType.TRIVIAL
    info = galois_type(Rank3Params(1, 1, 1, 0))
    assert info.tag == GaloisType.C3
    assert cubic_discriminant(char_poly_x(Rank3Params(1, 1, 1, 0))) == 49
    info2 = galois_type(Rank3Params(0, 1, 0, 0))
    assert info2.tag == GaloisType.C2_MOVING_FP
    # the fixed character is the rational one, in its own orbit
    assert info2.orbits == ((0, 2), (1,))
    # the swap K(1,0,0,0): x-values sqrt2, -sqrt2, 0, so the conjugate of
    # the dimension character comes before the rational one
    assert galois_type(Rank3Params(1, 0, 0, 0)).orbits == ((0, 1), (2,))
    # K(1,2,1,2): char_poly_x = (x - 1)(x^2 - 2x - 2), and 1 lies between
    # the roots 1 -+ sqrt3 of the quadratic rest
    info3 = galois_type(Rank3Params(1, 2, 1, 2))
    assert info3.tag == GaloisType.C2_MOVING_FP and info3.x_roots == (1,)
    assert info3.orbits == ((0, 1), (2,))


def test_s3_type_exists():
    info = galois_type(Rank3Params(1, 2, 2, 0))
    assert info.tag == GaloisType.S3


@pytest.fixture(scope="module")
def systems_bound_50():
    return [solve_characters(make_rank3_ring(p)) for p in enumerate_star_solutions(50)]


def test_fp_character(systems_bound_50):
    """On every ring up to bound 50, chars[0] is the only everywhere-positive
    character and the three characters are pairwise distinct: the Jacobi
    matrix argument of `_selfdual_characters`, which the solver does not
    re-check at run time."""
    for system in systems_bound_50:
        assert [c.is_positive for c in system.chars] == [True, False, False], system.ring
        assert len({(c.x, c.y) for c in system.chars}) == 3, system.ring
    by_params = {s.ring.params.as_tuple(): s.chars[0] for s in systems_bound_50}
    fp = by_params[(0, 1, 0, 2)]
    assert fp.x.rational_value == 1
    assert fp.y.minpoly == IntPoly((-2, -2, 1))
    assert float(fp.y) == pytest.approx(1 + math.sqrt(3))
    fp2 = solve_characters(make_rank3_ring(Rank3Params(2, 1, 2, 1))).chars[0]
    assert float(fp2.x) == pytest.approx(2 + math.sqrt(3))
    assert float(fp2.y) == pytest.approx(1 + math.sqrt(3))
    assert solve_characters(make_z3_ring()).chars[0].is_positive


def _numpy_characters(ring):
    """The characters by floating simultaneous diagonalization, in solve
    order: the everywhere-positive one first, then the rest by (x, y)."""
    m1 = np.array(ring.mult_matrix(1), dtype=float)
    m2 = np.array(ring.mult_matrix(2), dtype=float)
    _vals, vecs = np.linalg.eig(m1 + math.pi * m2)
    out = []
    for idx in range(3):
        v = vecs[:, idx]
        i0 = int(np.argmax(np.abs(v)))
        x = (m1 @ v)[i0] / v[i0]
        y = (m2 @ v)[i0] / v[i0]
        out.append((x.real, y.real))
    positive = [c for c in out if c[0] > 1e-9 and c[1] > 1e-9]
    assert len(positive) == 1
    return positive + sorted(c for c in out if c is not positive[0])


def test_character_oracle_equivalence_bound_30():
    """Exact characters match a floating simultaneous-diagonalization oracle
    to 1e-9, in solve order, on every canonical parameter ring up to bound
    30 and its swap.  The oracle shares no code with `galois_type`, whose
    orbits index that order."""
    for canon in enumerate_star_solutions(30):
        for params in (canon, canon.swapped()):
            ring = make_rank3_ring(params)
            system = solve_characters(ring)
            exact = [(float(c.x), float(c.y)) for c in system.chars]
            oracle = _numpy_characters(ring)
            for (xa, ya), (xb, yb) in zip(exact, oracle):
                assert xa == pytest.approx(xb, abs=1e-9), params
                assert ya == pytest.approx(yb, abs=1e-9), params


def test_solve_from_a_given_typing_bound_20():
    """Passing the ring's `galois_type` only hands over work already done:
    the solve gives the same characters as one that types the ring itself."""
    for params in enumerate_star_solutions(20):
        ring = make_rank3_ring(params)
        given = solve_characters(ring, galois_type(params))
        assert given.to_json() == solve_characters(ring).to_json(), params


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_rem(p, modulus):
    """Remainder of the rational polynomial p on division by a monic integer
    modulus, lowest degree first."""
    rem = [Fraction(c) for c in p]
    d = len(modulus) - 1
    while len(rem) > d:
        top = rem.pop()
        for i in range(d):
            rem[len(rem) - d + i] -= top * modulus[i]
    return rem


def _poly_combination(*terms):
    """sum of c * p over (c, p) pairs of a rational and a polynomial."""
    out = [Fraction(0)] * max(len(p) for _c, p in terms)
    for c, p in terms:
        for i, a in enumerate(p):
            out[i] += c * a
    return out


def test_character_count_and_exact_relations_bound_50(systems_bound_50):
    """Every valid ring up to bound 50 has exactly 3 distinct characters and
    each satisfies the three defining relations: numerically in its values,
    and exactly for rational characters directly, for the others by reducing
    each relation in the character's x_rep and y_rep modulo the minimal
    polynomial of its generator.  The solver
    does not re-check them; its proof rests on char_poly_x being the
    characteristic polynomial of multiplication by X, which is checked for
    every ring as well."""
    for system in systems_bound_50:
        params, ring = system.ring.params, system.ring
        k, l, m, n = params.as_tuple()
        assert char_poly_x(params) == IntPoly(charpoly(ring.mult_matrix(1)))
        assert len(system.chars) == 3
        assert len({(c.x, c.y) for c in system.chars}) == 3
        for c in system.chars:
            # The values themselves, not only their representations.
            x, y = float(c.x), float(c.y)
            assert x * x == pytest.approx(1 + m * x + k * y, abs=1e-9)
            assert y * y == pytest.approx(1 + l * x + n * y, abs=1e-9)
            assert x * y == pytest.approx(k * x + l * y, abs=1e-9)
            if c.gen is None:
                x, y = c.x.rational_value, c.y.rational_value
                assert x * x == 1 + m * x + k * y
                assert y * y == 1 + l * x + n * y
                assert x * y == k * x + l * y
                continue
            assert c.gen.minpoly.is_monic
            assert c.gen == (c.x if c.x_rep == X else c.y)
            xr, yr, one = list(c.x_rep), list(c.y_rep), [Fraction(1)]
            relations = (
                _poly_combination((1, _poly_mul(xr, xr)), (-1, one), (-m, xr), (-k, yr)),
                _poly_combination((1, _poly_mul(yr, yr)), (-1, one), (-l, xr), (-n, yr)),
                _poly_combination((1, _poly_mul(xr, yr)), (-k, xr), (-l, yr)),
            )
            for relation in relations:
                assert not any(_poly_rem(relation, c.gen.minpoly.coeffs)), (params, c)


def test_vieta_products():
    """The products of all x-values and of all y-values are minus the
    constant terms of the monic characteristic cubics."""
    for params in enumerate_star_solutions(10):
        system = solve_characters(make_rank3_ring(params))
        px, py = -char_poly_x(params).coeffs[0], -char_poly_y(params).coeffs[0]
        assert px == -params.l
        assert py == -params.k
        # numeric cross-check from the solved characters
        prod_x = np.prod([complex(float(c.x)) for c in system.chars])
        prod_y = np.prod([complex(float(c.y)) for c in system.chars])
        assert prod_x.real == pytest.approx(float(px), abs=1e-7)
        assert prod_y.real == pytest.approx(float(py), abs=1e-7)


def test_spectral_bound():
    """|x| and |y| of every character are bounded by the dimension character."""
    for params in enumerate_star_solutions(8):
        system = solve_characters(make_rank3_ring(params))
        fp = system.chars[0]
        fx, fy = float(fp.x), float(fp.y)
        for c in system.chars:
            assert abs(float(c.x)) <= fx + 1e-12
            assert abs(float(c.y)) <= fy + 1e-12


def test_galois_type_consistency_bound_10():
    """Trivial iff both cubics split rationally; C3 implies both cubic
    discriminants are perfect squares."""
    for params in enumerate_star_solutions(10):
        tag = galois_type(params).tag
        px, py = char_poly_x(params), char_poly_y(params)
        fully_rational = (
            len(split_rational_roots(px)[0]) == 3 and len(split_rational_roots(py)[0]) == 3
        )
        assert (tag == GaloisType.TRIVIAL) == fully_rational
        if tag == GaloisType.C3:
            for poly in (px, py):
                if not split_rational_roots(poly)[0]:
                    assert is_perfect_square(cubic_discriminant(poly))


def _degree_reading_galois_type(system):
    """Reference: the Galois type read from the degrees of the solved values.
    Degree 1 everywhere is Trivial; a cubic value gives one 3-cycle, cyclic
    iff the discriminant of its minimal polynomial is a square; otherwise
    the two characters with an irrational value form one orbit, and the type
    is C2-fixing iff the rational character is the dimension character."""
    chars = system.chars
    degrees = [max(c.x.degree, c.y.degree) for c in chars]
    if max(degrees) == 1:
        return GaloisType.TRIVIAL, ((0,), (1,), (2,))
    if max(degrees) == 3:
        c = chars[degrees.index(3)]
        cubic = c.x.minpoly if c.x.degree == 3 else c.y.minpoly
        square = is_perfect_square(cubic_discriminant(cubic))
        return (GaloisType.C3 if square else GaloisType.S3), ((0, 1, 2),)
    irrational = tuple(i for i, c in enumerate(chars) if not c.all_rational)
    rational = tuple(i for i, c in enumerate(chars) if c.all_rational)
    assert len(irrational) == 2 and len(rational) == 1
    if rational == (0,):
        return GaloisType.C2_FIXING_FP, (rational, irrational)
    return GaloisType.C2_MOVING_FP, (irrational, rational)


def test_galois_type_matches_degree_reading_bound_100():
    """The integer typing gives the tag and orbits that the degrees of the
    solved characters give, on every ring up to bound 100 in both
    orientations."""
    seen = set()
    for canon in enumerate_star_solutions(100):
        for params in (canon, canon.swapped()):
            info = galois_type(params)
            system = solve_characters(make_rank3_ring(params))
            assert (info.tag, info.orbits) == _degree_reading_galois_type(system), params
            seen.add((info.tag, info.orbits))
    # every type occurs except C2-fixing, which no ring up to bound 100 has
    assert {tag for tag, _ in seen} == set(GaloisType) - {GaloisType.C2_FIXING_FP}
    assert {orbits for tag, orbits in seen if tag == GaloisType.C2_MOVING_FP} == {
        ((0, 1), (2,)), ((0, 2), (1,))
    }


def test_character_json():
    system = solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 0)))
    data = system.to_json()["characters"]
    assert data[0]["kind"] == "real-algebraic"
    assert data[0]["minpoly_y"] == [-2, 0, 1]
    assert "approx_y" in data[0]
    z3 = solve_characters(make_z3_ring()).to_json()["characters"]
    assert z3[1] == {"kind": "cyclotomic", "turn_x": "1/3", "turn_y": "2/3"}


@pytest.mark.parametrize("params", [
    Rank3Params(0, 1, 0, 0), Rank3Params(1, 1, 0, 1),
    Rank3Params(2, 3, 2, 3), Rank3Params(1, 2, 0, 4),
], ids=lambda p: p.name())
def test_character_json_does_not_depend_on_refinement(params):
    """Values refined far below the printed width, as zero tests refine a
    shared character generator, print the intervals of a fresh solve."""
    ring = make_rank3_ring(params)
    fresh = solve_characters(ring).to_json()
    refined = solve_characters(ring)
    for c in refined.chars:
        for v in (c.x, c.y):
            v.refine_to(Fraction(1, 2**300))
    assert refined.to_json() == fresh


# ---------------------------------------------------------------------------
# Where real algebraic values are located
# ---------------------------------------------------------------------------

def _systems_up_to(bound):
    return [solve_characters(make_rank3_ring(p)) for p in enumerate_star_solutions(bound)]


def _assert_tree_node(v):
    """The interval of an irrational value is a node of the bisection tree
    of (-B, B), B = cauchy_bound(minpoly), and isolates the value."""
    lo, hi = v.interval()
    if v.is_rational:
        assert lo == hi == v.rational_value
        return
    bound = cauchy_bound(v.minpoly)
    halvings = 2 * bound / (hi - lo)
    assert halvings.denominator == 1 and halvings.numerator & (halvings.numerator - 1) == 0
    assert ((lo + bound) / (hi - lo)).denominator == 1
    coeffs = v.minpoly.coeffs
    assert sign_at(coeffs, lo.numerator, lo.denominator) == -sign_at(coeffs, hi.numerator, hi.denominator) != 0


def _assert_tree_nodes_through_refinement(v):
    _assert_tree_node(v)
    for width in (Fraction(1, 2**20), Fraction(1, 10**7)):
        v.refine_to(width)
        _assert_tree_node(v)
    v.tree_interval(Fraction(1, 10**18))
    _assert_tree_node(v)


def test_every_value_interval_is_a_bisection_tree_node():
    """Placement, isolation, from_poly_expr's root matching, refine_to and
    tree_interval keep every interval a node of the value's bisection tree:
    every character value and global FP dimension up to bound 30, and every
    root of cos_minimal_poly(q) for q <= 40, placed and isolated."""
    for system in _systems_up_to(30):
        # Fresh from the solve: location and the matching of from_poly_expr.
        for c in system.chars:
            _assert_tree_node(c.x)
            _assert_tree_node(c.y)
        values = [c.x for c in system.chars] + [c.y for c in system.chars]
        for v in values + [global_fp_dim(system)]:
            _assert_tree_nodes_through_refinement(v)
    for q in range(1, 41):
        p = cos_minimal_poly(q)
        isolated = isolate_irreducible(p) if p.degree > 1 else []
        for v in [*roots_of_irreducible(p), *isolated]:
            _assert_tree_nodes_through_refinement(v)


def _charpoly_of_multiplication(minpoly, expr):
    """Characteristic polynomial of multiplication by expr(x) on
    Q[x]/minpoly; the minimal polynomial of expr(alpha) divides it."""
    d = minpoly.degree
    m = minpoly.to_q()
    # cols[i][j] = coefficient of x^j in expr * x^i mod m.
    cols = []
    for i in range(d):
        col = qmod(qmul(expr, qnormalize([0] * i + [1])), m)
        cols.append([col[j] if j < len(col) else Fraction(0) for j in range(d)])
    return charpoly([[cols[i][j] for i in range(d)] for j in range(d)])


def _from_q(p):
    """The integer polynomial den * p for the least common denominator den
    of the rational polynomial p."""
    den = math.lcm(*(c.denominator for c in p))
    return IntPoly(int(c * den) for c in p)


def _reference_value(alpha, expr):
    """expr(alpha) located among the roots of the characteristic polynomial
    of multiplication by expr, refining a fresh copy of alpha and the roots
    to a common width until exactly one root meets the interval image."""
    reduced = qmod(qnormalize(expr), alpha.minpoly.to_q())
    if len(reduced) <= 1:
        return RealAlgebraic.from_rational(reduced[0] if reduced else 0)
    poly = _from_q(_charpoly_of_multiplication(alpha.minpoly, reduced))
    candidates = [root.value for root in isolate_real_roots(poly)]
    a = isolate_irreducible(alpha.minpoly)[alpha.root_index]
    width = Fraction(1, 64)
    while True:
        a.refine_to(width)
        lo = hi = Fraction(0)
        for c in reversed(reduced):  # interval Horner over a's interval
            ends = [e * t for e in (lo, hi) for t in a.interval()]
            lo, hi = min(ends) + c, max(ends) + c
        hits = []
        for c in candidates:
            c.refine_to(width)
            if c.interval()[0] <= hi and lo <= c.interval()[1]:
                hits.append(c)
        if len(hits) == 1:
            return hits[0]
        width /= 2


def _assert_same_value(value, reference):
    assert value == reference
    assert value.minpoly == reference.minpoly and value.root_index == reference.root_index


def test_values_from_given_polynomials_match_the_charpoly_route():
    """Every y-value (x-value for k = 0 rings) located among the roots of
    char_poly_y, every global FP dimension located among the roots of the
    Casimir cubic is the root that the characteristic polynomial of
    multiplication gives, up to bound 30."""
    checked = 0
    for system in _systems_up_to(30):
        for c in system.chars:
            if c.gen is None:
                continue
            for value, rep in ((c.x, c.x_rep), (c.y, c.y_rep)):
                if rep != X:
                    _assert_same_value(value, _reference_value(c.gen, rep))
                    checked += 1
        fp = system.chars[0]
        if fp.gen is not None:
            expr = qadd(qconst(1), qadd(qmul(fp.x_rep, fp.x_rep), qmul(fp.y_rep, fp.y_rep)))
            _assert_same_value(global_fp_dim(system), _reference_value(fp.gen, expr))
            checked += 1
    assert checked > 1000


def _exact_floats(params, c):
    """The float values of character c on 1, X and Y, each the float of an
    exact value.  With k >= 1 and x irrational, y = (x^2 - m x - 1)/k is
    located here among the roots of char_poly_y, not read through `c.y`."""
    if c.is_cyclotomic:
        return [c.value(j).complex_approx() for j in range(3)]
    k, _l, m, _n = params.as_tuple()
    values = [c.value(0), c.x]
    if k == 0 or c.x.is_rational:
        values.append(c.y)
    else:
        y_expr = qscale((Fraction(-1), Fraction(-m), Fraction(1)), Fraction(1, k))
        values.append(from_poly_expr(c.x, y_expr, char_poly_y(params)))
    return [complex(float(v)) for v in values]


def test_rep_floats_match_the_exact_values_bound_30():
    """`value_complex` evaluates a rep at float(gen); on every character of
    every ring up to bound 30, in both orientations, that is within
    1e-12 * max(1, |v|) of the float of the exact value v."""
    for canon in enumerate_star_solutions(30):
        for params in (canon, canon.swapped()):
            for c in solve_characters(make_rank3_ring(params)).chars:
                for j, v in enumerate(_exact_floats(params, c)):
                    assert abs(c.value_complex(j) - v) <= 1e-12 * max(1.0, abs(v)), (params, j)


def test_scan_sees_no_difference_between_rep_and_exact_floats():
    """On Z/3 and on every ring up to bound 10 in both orientations, the
    pinning-row solve proposes the same twist pairs at orders 16 and 60
    whether it reads the floats of the placed roots (`float_characters`, as
    the search does), the rep floats or the floats of the exact values, with
    the exact zeros of the reps; and the placed-root floats are within
    1e-12 * max(1, |v|) of the exact values v."""
    rings = [(make_z3_ring(), None)]
    for canon in enumerate_star_solutions(10):
        rings += [(make_rank3_ring(p), p) for p in (canon, canon.swapped())]
    kept = 0
    for ring, params in rings:
        system = solve_characters(ring)
        zeros = [(False, not c.is_cyclotomic and not c.x_rep, not c.is_cyclotomic and not c.y_rep)
                 for c in system.chars]
        reps = [FloatCharacter(tuple(c.value_complex(j) for j in range(3)), z)
                for c, z in zip(system.chars, zeros)]
        exact = [FloatCharacter(tuple(_exact_floats(params, c)), z)
                 for c, z in zip(system.chars, zeros)]
        placed = reps if params is None else float_characters(params, galois_type(params).roots)
        for p, e in zip(placed, exact):
            assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(p.values, e.values))
        assert [p.zero for p in placed] == zeros
        for order in (16, 60):
            twists = _twist_index(min(order, TWIST_ORDER_BOUND))
            for index, dims in enumerate(system.chars):
                if not dims.nonzero():
                    continue
                pairs = _pinned_pairs(ring, placed[index], placed, twists)
                assert pairs == _pinned_pairs(ring, reps[index], reps, twists), ring
                assert pairs == _pinned_pairs(ring, exact[index], exact, twists), ring
                kept += len(pairs)
    assert kept > 0


@pytest.mark.parametrize("params, tag", [
    ((1, 2, 0, 4), GaloisType.S3),
    ((1, 2, 1, 2), GaloisType.C2_MOVING_FP),
])
def test_solving_locates_no_y_value_until_it_is_read(monkeypatch, params, tag):
    """Solving a ring with irrational x factors and isolates nothing on
    char_poly_y; the first read of each irrational y-value locates it once,
    and later reads keep it.  Calls are counted through every name a module
    binds them to."""
    import sys
    from collections import Counter

    params = Rank3Params(*params)
    info = galois_type(params)
    assert info.tag == tag
    ypoly = char_poly_y(params)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name, args[-1]] += 1
            return original(*args)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("rank3ribbon") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)

    counted("split_rational_roots", split_rational_roots)
    counted("from_poly_expr", from_poly_expr)
    system = solve_characters(make_rank3_ring(params), info)
    assert [c.nonzero() for c in system.chars] == [True] * 3
    assert calls["split_rational_roots", ypoly] == calls["from_poly_expr", ypoly] == 0
    irrational = [c for c in system.chars if not c.x.is_rational]
    assert [c.y for c in irrational] == [c.y for c in irrational]
    assert calls["from_poly_expr", ypoly] == len(irrational) > 0


# ---------------------------------------------------------------------------
# The dimension root, placed alone at typing
# ---------------------------------------------------------------------------

def test_dimension_root_is_the_top_isolated_root_bound_100(monkeypatch):
    """Where the dimension root is irrational (S3, C3, C2-moving with k >= 1),
    typing places it alone on its RENDER_WIDTH node, certified by signs and
    a Descartes count; it is the largest isolated root of the irreducible rest of
    char_poly_x: the same minimal polynomial, root index and node.  Every
    ring up to bound 100, in both orientations, and no placement declined:
    nothing is isolated."""
    from rank3ribbon.exactnum import realalg
    from rank3ribbon.exactnum.realalg import RENDER_WIDTH

    isolated = []
    monkeypatch.setattr(realalg, "isolate_irreducible",
                        lambda p: isolated.append(p) or isolate_irreducible(p))
    placed = 0
    for canon in enumerate_star_solutions(100):
        for params in {canon, canon.swapped()}:
            if params.k == 0:
                continue
            _roots, rest = split_rational_roots(char_poly_x(params))
            top = galois_type(params).top
            if top.is_rational:
                continue
            ref = isolate_irreducible(rest)[-1]
            assert top.minpoly == ref.minpoly and top.root_index == ref.root_index, params
            assert top.interval() == ref.tree_interval(RENDER_WIDTH), params
            placed += 1
    assert isolated == [] and placed > 9000


def _assert_placed_like_isolation(located, poly, placed=True):
    """`located` are the roots of the irreducible `poly`, ascending, as
    isolation and then refine_to(RENDER_WIDTH) give them: the same minimal
    polynomial, root index and node of width RENDER_WIDTH, on which each
    root already is when `placed`."""
    from rank3ribbon.exactnum.realalg import RENDER_WIDTH

    reference = isolate_irreducible(poly)
    assert len(located) == len(reference), poly
    for value, ref in zip(located, reference):
        ref.refine_to(RENDER_WIDTH)
        assert value.minpoly == ref.minpoly and value.root_index == ref.root_index, poly
        node = value.interval() if placed else value.tree_interval(RENDER_WIDTH)
        assert node == ref.interval(), poly


def test_placed_roots_match_isolation_bound_100(monkeypatch):
    """Every root that typing locates, on every ring up to bound 100 in both
    orientations: the integer roots of char_poly_x are those of
    `split_rational_roots`, and each irrational root, the dimension root at
    typing and the two lower ones on first read, is the root that isolation
    and refine_to(RENDER_WIDTH) give, on the same node.  No placement is
    declined, so nothing is isolated."""
    from rank3ribbon.exactnum import realalg

    isolated = []
    monkeypatch.setattr(realalg, "isolate_irreducible",
                        lambda p: isolated.append(p) or isolate_irreducible(p))
    placed = 0
    for canon in enumerate_star_solutions(100):
        for params in {canon, canon.swapped()}:
            info = galois_type(params)
            roots = info.roots
            if params.k == 0:
                poly = IntPoly((-2, -params.n, 1))
            else:
                integer, poly = split_rational_roots(char_poly_x(params))
                assert info.x_roots == tuple(sorted(u for u, _v in integer)), params
            irrational = sorted((r for r in roots if not r.is_rational), key=lambda r: r.root_index)
            if irrational:
                _assert_placed_like_isolation(irrational, poly)
                placed += len(irrational)
    assert isolated == [] and placed > 25000


def test_root_location_falls_back_on_close_roots(monkeypatch):
    """Monic cubics whose roots are closer than 1e-12, seeded: Mignotte's
    x^3 - 2(ax - 1)^2, two of whose roots lie within sqrt(2) a^(-5/2) of
    1/a, and (x - u)(x^2 - (u + M)x + uM - 1), whose root near u lies within
    1/(M - u) of it.  Where the float estimates cannot certify, the
    integer roots come from `split_rational_roots` and the irrational ones
    from isolation, and either way they are the right roots on the right
    nodes."""
    import random

    from rank3ribbon import characters
    from rank3ribbon.exactnum import realalg

    fallbacks = []
    for module, name in ((characters, "split_rational_roots"), (realalg, "isolate_irreducible")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda p, _o=original, _n=name: fallbacks.append(_n) or _o(p))
    rng = random.Random(2029)
    cubics = []
    for _ in range(6):
        a = rng.randrange(10**5, 10**6)
        cubics.append(IntPoly((-2, 4 * a, -2 * a * a, 1)))
        u, big = rng.randrange(-50, 50), rng.randrange(10**12, 10**13)
        cubics.append(IntPoly((-u, 1)) * IntPoly((u * big - 1, -(u + big), 1)))
    for cubic in cubics:
        xs, rest = characters._integer_roots(cubic)
        integer, reference_rest = split_rational_roots(cubic)
        assert xs == tuple(sorted(u for u, _v in integer)) and rest == reference_rest, cubic
        _assert_placed_like_isolation(characters.roots_of_irreducible(rest), rest, placed=False)
    assert {"split_rational_roots", "isolate_irreducible"} <= set(fallbacks)


@pytest.mark.parametrize("shift", [-0.6, 0.3, 0.6, 1.5])
def test_integer_roots_are_certified_whatever_the_estimates(monkeypatch, shift):
    """The float estimates only name candidates: with every estimate moved by
    `shift`, the integer roots and the rest of every char_poly_x up to bound
    20, in both orientations, are still those of `split_rational_roots`, and
    the roots of the rest, all of them or the top one alone, are still the
    ones isolation gives."""
    from rank3ribbon import characters
    from rank3ribbon.exactnum import realalg

    width = realalg.RENDER_WIDTH
    original = realalg.real_root_estimates
    for module in (characters, realalg):
        monkeypatch.setattr(module, "real_root_estimates",
                            lambda coeffs: [e + shift for e in original(coeffs)])
    for canon in enumerate_star_solutions(20):
        for params in {canon, canon.swapped()}:
            if params.k == 0:
                continue
            xpoly = char_poly_x(params)
            xs, rest = characters._integer_roots(xpoly)
            integer, reference_rest = split_rational_roots(xpoly)
            assert xs == tuple(sorted(u for u, _v in integer)) and rest == reference_rest, params
            if rest.degree > 1:
                _assert_placed_like_isolation(characters.roots_of_irreducible(rest), rest,
                                              placed=False)
                top, ref = characters.largest_root(rest)[-1], isolate_irreducible(rest)[-1]
                assert top == ref and top.tree_interval(width) == ref.tree_interval(width), params


def test_classify_isolates_lower_roots_only_of_searched_rings(monkeypatch):
    """`classify_all(30)` types every ring from its dimension root alone: the
    other two roots of an irrational rest are located (by
    `roots_of_irreducible`, which places or isolates them) only for the
    rings it searches, once each.  K(0,1,0,n) locates both y-roots at
    typing, the two roots of one quadratic."""
    from collections import Counter

    from rank3ribbon import characters, classify
    from rank3ribbon.classify import classify_all

    current = [None]
    calls = Counter()
    original_ring = classify.classify_ring

    def located(original):
        def locate(p, *args):
            calls[current[0]] += 1
            return original(p, *args)
        return locate

    def on_ring(params):
        current[0] = params
        return original_ring(params)

    monkeypatch.setattr(characters, "roots_of_irreducible", located(characters.roots_of_irreducible))
    monkeypatch.setattr(classify, "classify_ring", on_ring)
    report = classify_all(30)
    monkeypatch.undo()
    searched = {r.params for r in report.rings if r.params is not None and r.witnesses is not None}
    assert {p.as_tuple() for p in searched} == {(0, 1, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1)}
    for r in report.rings:
        params = r.params
        if params is None:
            continue
        if params.k == 0:
            expected = params.n != 1
        else:
            _roots, rest = split_rational_roots(char_poly_x(params))
            expected = params in searched and rest.degree >= 2
        assert calls[params] == expected, params
