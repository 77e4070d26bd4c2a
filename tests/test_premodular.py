"""Tests for S-matrix construction, classification, and the witness search."""

import bisect
import cmath
import contextlib
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from rank3ribbon import cli, premodular, rules
from rank3ribbon.characters import (
    FloatCharacter, char_poly_x, float_characters, galois_type, solve_characters,
)
from rank3ribbon.classify import classify_all, enumerate_star_solutions
from rank3ribbon.exactnum import ComplexBall, CycloNum, IntPoly, RootOfUnity, cubic_discriminant
from rank3ribbon.exactnum import cyclotomic
from rank3ribbon.exactnum.cyclotomic import (
    _zeta_ball,
    embed_real_algebraic,
    root_of_unity_value,
    roots_of_unity_up_to,
    two_cos,
)
from rank3ribbon.exactnum.qpoly import qdivmod, qmod, qtrim
from rank3ribbon.exactnum.realalg import RealAlgebraic, roots_of_irreducible
from rank3ribbon.fusion import Rank3Params, make_rank3_ring, make_z3_ring
from rank3ribbon.premodular import (
    ExactContext,
    StructureClass,
    Twists,
    ZeroDimension,
    _pinned_pairs,
    _twist_index,
    build_s_matrix,
    euler_phi,
    search_ribbon_data,
    twist_table,
)
from rank3ribbon.rules import Verdict, nonmodular_filter


def _centers(sm):
    return [[sm.entry(i, j).center_complex() for j in range(3)] for i in range(3)]


@pytest.fixture(scope="module")
def rep_s3():
    ring = make_rank3_ring(Rank3Params(0, 1, 0, 1))
    return ring, solve_characters(ring)


@pytest.fixture(scope="module")
def ising():
    ring = make_rank3_ring(Rank3Params(0, 1, 0, 0))
    return ring, solve_characters(ring)


def _value_ball(v, bits):
    """Certified ball around a character value: a root of unity or a real
    algebraic number."""
    if isinstance(v, RootOfUnity):
        return root_of_unity_value(v, bits)
    v.refine_to(Fraction(1, 2 ** (bits + 1)))
    return ComplexBall.from_real_interval(*v.interval())


def _mag_upper(ball):
    return abs(ball.re) + abs(ball.im) + ball.rad


def test_rep_s3_symmetric_matrix(rep_s3):
    ring, system = rep_s3
    ctx = ExactContext(ring, system.chars[0], Twists.of(RootOfUnity.one(), RootOfUnity.one()))
    centers = _centers(build_s_matrix(ctx))
    expected = [[1, 1, 2], [1, 1, 2], [2, 2, 4]]
    for i in range(3):
        for j in range(3):
            assert centers[i][j] == pytest.approx(expected[i][j], abs=1e-25)
    assert ctx.structure_class() == StructureClass.SYMMETRIC
    assert ctx.rows_are_characters()


def test_ising_modular_matrix(ising):
    ring, system = ising
    tw = Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(1, 16))
    ctx = ExactContext(ring, system.chars[0], tw)
    centers = _centers(build_s_matrix(ctx))
    y = math.sqrt(2)
    expected = [[1, 1, y], [1, 1, -y], [y, -y, 0]]
    for i in range(3):
        for j in range(3):
            assert centers[i][j] == pytest.approx(expected[i][j], abs=1e-25)
    assert ctx.structure_class() == StructureClass.MODULAR
    assert ctx.rows_are_characters()


def test_unit_row_identity(ising, rep_s3):
    for (ring, system), theta in (
        (ising, (RootOfUnity.make(1, 2), RootOfUnity.make(3, 16))),
        (rep_s3, (RootOfUnity.one(), RootOfUnity.make(1, 3))),
    ):
        dims = system.chars[0]
        ctx = ExactContext(ring, dims, Twists.of(*theta))
        assert ctx.unit_row_ok()
        sm = build_s_matrix(ctx)
        for j in range(3):
            expected = _value_ball(dims.value(j), 160)
            assert _mag_upper(sm.entry(0, j) - expected) < Fraction(1, 2**64)


def test_proper_premodular_matrix(rep_s3):
    """Cube-root twist on Y makes the corner -2: rows 1 and 2 of the matrix
    agree in the first two entries, so the matrix has rank 2 and determinant
    zero without being symmetric-class."""
    ring, system = rep_s3
    tw = Twists.of(RootOfUnity.one(), RootOfUnity.make(1, 3))
    ctx = ExactContext(ring, system.chars[0], tw)
    centers = _centers(build_s_matrix(ctx))
    expected = [[1, 1, 2], [1, 1, 2], [2, 2, -2]]
    for i in range(3):
        for j in range(3):
            assert centers[i][j] == pytest.approx(expected[i][j], abs=1e-25)
    assert ctx.structure_class() == StructureClass.PROPER_PREMODULAR
    assert ctx.rows_are_characters()


def test_zero_dimension_rejected(ising):
    ring, system = ising
    # the character (-1, 0) has a vanishing value
    zero_char = next(c for c in system.chars if c.y.is_zero)
    ctx = ExactContext(ring, zero_char, Twists.of(RootOfUnity.one(), RootOfUnity.one()))
    with pytest.raises(ZeroDimension):
        build_s_matrix(ctx)


def test_rendering_does_not_depend_on_refinement():
    """The rendered S-matrix is the same after the character generator and
    the cosines of the twists were refined far below the rendering width."""
    ring = make_rank3_ring(Rank3Params(1, 1, 0, 1))
    dims = solve_characters(ring).chars[0]
    tw = Twists.of(RootOfUnity.make(1, 7), RootOfUnity.make(5, 7))
    first = build_s_matrix(ExactContext(ring, dims, tw)).to_json()
    dims.gen.refine_to(Fraction(1, 2**400))
    for p in range(7):
        for turn in (Fraction(p, 7), Fraction(p, 7) - Fraction(1, 4)):
            two_cos(turn).refine_to(Fraction(1, 2**400))
    _zeta_ball.cache_clear()
    assert build_s_matrix(ExactContext(ring, dims, tw)).to_json() == first


def _reference_s_matrix(ring, dims, twists, bits=144):
    """Reference rendering: the defining formula evaluated entrywise in ball
    arithmetic, theta_i^-1 as the conjugate ball of theta_i."""
    theta = [root_of_unity_value(t, bits) for t in twists.theta]
    inv = [ComplexBall(b.re, -b.im, b.rad) for b in theta]
    d = [_value_ball(dims.value(j), bits) for j in range(3)]
    N, dual = ring.N, ring.dual
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = ComplexBall.from_rational(0)
            for k in range(3):
                if N[dual[i]][j][k]:
                    acc = acc + (theta[k] * d[k]).scale(N[dual[i]][j][k])
            row.append(inv[i] * inv[j] * acc)
        out.append(row)
    return out


def _balls_meet(a, b):
    dre, dim, r = a.re - b.re, a.im - b.im, a.rad + b.rad
    return dre * dre + dim * dim <= r * r


def test_rendered_entries_match_reference_ball_evaluation():
    """Every witness of the K(0,1,0,0) search at order 16, the K(1,1,0,1)
    search at order 100, the Z/3 search and a witness-all classification at
    bound 10 renders each entry as a ball of radius at most 2^-128 that meets
    the reference ball evaluation; an exactly zero entry prints "0"."""
    witnesses = [
        *search_ribbon_data(make_rank3_ring(Rank3Params(0, 1, 0, 0)), 16),
        *search_ribbon_data(make_rank3_ring(Rank3Params(1, 1, 0, 1)), 100),
        *search_ribbon_data(make_z3_ring(), 16),
    ]
    for report in classify_all(10, witness_all=True, max_twist_order=16).rings:
        witnesses.extend(report.witnesses)
    limit = Fraction(1, 2**premodular.SMATRIX_PRECISION_BITS)
    zeros = 0
    for w in witnesses:
        ctx = ExactContext(w.ring, w.dims, w.twists)
        reference = _reference_s_matrix(w.ring, w.dims, w.twists)
        rendered = w.to_json()["smatrix"]["entries"]
        for i in range(3):
            for j in range(3):
                ball = w.smatrix.entry(i, j)
                assert ball.rad <= limit
                assert _balls_meet(ball, reference[i][j]), (w.twists, i, j)
                if ctx._is_zero(ctx.entries[i][j]):
                    zeros += 1
                    assert [rendered[i][j][key] for key in ("re", "im", "radius")] == ["0"] * 3
    assert witnesses and zeros


def _nine_entry_ball(ctx, i, j):
    """Reference rendering of S[i][j] on its own, the route every one of
    the nine entries once took: its coefficients over the modulus formed
    from the defining formula, sum_k N[i*][j][k] rep_k[t] root_k theta_k
    (theta_i theta_j)^-1 for t < deg(modulus), then enclosed by Horner's
    rule from the zero ball at a fresh ball of alpha, at doubling precision
    from SMATRIX_PRECISION_BITS + 16."""
    n, N, dual, theta, dims = ctx.n, ctx.ring.N, ctx.ring.dual, ctx.twists.theta, ctx.dims
    one = RootOfUnity.one()
    if dims.is_cyclotomic:
        dim_terms = (((1,), one), ((1,), dims.x), ((1,), dims.y))
    else:
        dim_terms = (((1,), one), (dims.x_rep, one), (dims.y_rep, one))
    shift = (theta[i] * theta[j]).inverse()
    coeffs = [CycloNum.from_rational(n, 0)] * ctx.field.deg
    for k, (rep, root) in enumerate(dim_terms):
        coef = N[dual[i]][j][k]
        if coef:
            z = CycloNum.from_root(root * theta[k] * shift, n)
            for t, c in enumerate(rep):
                if c:
                    coeffs[t] = coeffs[t] + z.scale(coef * c)
    limit = Fraction(1, 2**premodular.SMATRIX_PRECISION_BITS)
    prec = premodular.SMATRIX_PRECISION_BITS + 16
    while True:
        ab = ComplexBall.from_real_interval(*ctx.gen.tree_interval(Fraction(1, 2**prec)))
        acc = ComplexBall.from_rational(0)
        for c in reversed(coeffs):
            acc = acc * ab + c.ball(prec)
        if acc.rad <= limit:
            return acc
        prec *= 2


SEARCH_RINGS = (Rank3Params(0, 1, 0, 0), Rank3Params(0, 1, 0, 1),
                Rank3Params(1, 1, 0, 1), Rank3Params(0, 1, 0, 2))


def test_rendering_matches_the_nine_entry_route(monkeypatch):
    """Every S-matrix rendered by a witness-all classification at bound 20
    (order 60), by the four search rings at orders 100 and 240, and by the
    degenerate searches of K(0,1,0,1), K(1,0,1,0) and K(1,0,0,0) equals,
    ball for ball, the nine entries rendered one by one from their own
    coefficients: the dimension row shared by a field and the mirrored
    entries are the exact balls of the entries they stand for.  The
    generators have degrees 1, 2 and 3."""
    rendered = []
    original = premodular.build_s_matrix

    def recording(ctx):
        sm = original(ctx)
        rendered.append((ctx, sm))
        return sm

    monkeypatch.setattr(premodular, "build_s_matrix", recording)
    classify_all(20, 60, witness_all=True)
    for params in SEARCH_RINGS:
        for order in (100, 240):
            search_ribbon_data(make_rank3_ring(params), order)
    for params in (Rank3Params(0, 1, 0, 1), Rank3Params(1, 0, 1, 0), Rank3Params(1, 0, 0, 0)):
        search_ribbon_data(make_rank3_ring(params), 60, include_degenerate=True)
    kinds = set()
    for ctx, sm in rendered:
        kinds.add((ctx.ring.dual, ctx.field.deg))
        for i in range(3):
            for j in range(3):
                got, ref = sm.entry(i, j), _nine_entry_ball(ctx, i, j)
                assert (got.re, got.im, got.rad) == (ref.re, ref.im, ref.rad), (ctx.twists, i, j)
    # Z/3, rational dimensions, quadratic and cubic generators.
    assert {(0, 2, 1), (0, 1, 2)} == {dual for dual, _ in kinds}
    assert {deg for _, deg in kinds} == {1, 2, 3}


def test_search_renders_three_fresh_entries_per_witness(monkeypatch):
    """`search --params 0,1,0,0 --max-twist-order 100` encloses at most
    three fresh entries per witness (S11, S12 and S22) plus one dimension
    row of three entries per field (dimension character, ambient order n),
    counted as calls of the ball routine at the first rendering precision.
    Rendering all nine entries of each witness would take nine per
    witness."""
    calls = []
    original = premodular._Field._eval_ball_at_gen

    def counted(self, poly, prec):
        if prec == premodular.SMATRIX_PRECISION_BITS + 16:
            calls.append(prec)
        return original(self, poly, prec)

    monkeypatch.setattr(premodular._Field, "_eval_ball_at_gen", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["search", "--params", "0,1,0,0", "--max-twist-order", "100"]) == 0
    witnesses = json.loads(out.getvalue())["witnesses"]
    fields = {(w["dims_index"], math.lcm(*(t["q"] for t in w["twists"]))) for w in witnesses}
    assert witnesses and len(fields) < len(witnesses)
    assert len(calls) <= 3 * len(witnesses) + 3 * len(fields), (len(calls), len(witnesses), len(fields))


def test_overlapping_searches_keep_their_own_field_sharing(monkeypatch):
    """Two searches running at once, K(0,1,0,0) and K(1,1,0,1) at order 60
    in two threads, each build as many `_Field`s as they do alone (2 and 3)
    and find the same witnesses.  The overlap is forced: the first search
    waits at its first candidate until the second has started, and the
    second waits at its first candidate until the first has returned."""
    import threading
    from collections import Counter

    rings = {"a": make_rank3_ring(Rank3Params(0, 1, 0, 0)),
             "b": make_rank3_ring(Rank3Params(1, 1, 0, 1))}
    built: Counter = Counter()
    original_init = premodular._Field.__init__

    def counting_init(self, *args):
        built[threading.current_thread().name] += 1
        original_init(self, *args)

    monkeypatch.setattr(premodular._Field, "__init__", counting_init)
    serial, alone = {}, {}
    for name, ring in rings.items():
        built.clear()
        serial[name] = [w.to_json() for w in search_ribbon_data(ring, 60)]
        alone[name] = sum(built.values())
    built.clear()

    a_started, b_started, a_done = threading.Event(), threading.Event(), threading.Event()
    gates = {"a": (a_started, b_started), "b": (b_started, a_done)}
    original_certify = premodular._certify_candidate

    def certify(*args, **kwargs):
        name = threading.current_thread().name
        gate = gates.pop(name, None)
        if gate is not None:
            gate[0].set()
            assert gate[1].wait(60)
        return original_certify(*args, **kwargs)

    monkeypatch.setattr(premodular, "_certify_candidate", certify)
    found, errors = {}, []

    def run(name):
        try:
            if name == "b":
                assert a_started.wait(60)
            found[name] = [w.to_json() for w in search_ribbon_data(rings[name], 60)]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            if name == "a":
                a_done.set()

    threads = [threading.Thread(target=run, args=(name,), name=name) for name in rings]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not gates, (errors, gates)
    assert alone == {"a": 2, "b": 3}
    assert dict(built) == alone
    assert found == serial


def test_self_dual_rings_have_symmetric_structure_tensors():
    """The premises behind the three free entries: every ring up to bound
    20, in both orientations, is self-dual with N[i][j] = N[j][i] and has
    the unit axiom, so S is symmetric term by term with row 0 = d; Z/3 has
    the unit axiom but is not self-dual, so is_symmetric compares its
    entries."""
    for params in enumerate_star_solutions(20):
        for p in (params, Rank3Params(params.l, params.k, params.n, params.m)):
            ring = make_rank3_ring(p)
            assert ring.dual == (0, 1, 2)
            assert all(ring.N[i][j] == ring.N[j][i] for i in range(3) for j in range(3)), p
            assert premodular._ring_premises(ring) == (True, True), p
    assert premodular._ring_premises(make_z3_ring()) == (True, False)


def _defining_formula(ring, dims, twists, n):
    """All nine entries of S from the defining formula, by CycloNum
    products; dims is a Z/3 character, so every d_k is a root of unity."""
    theta = [CycloNum.from_root(t, n) for t in twists.theta]
    inv = [CycloNum.from_root(t.inverse(), n) for t in twists.theta]
    d = [CycloNum.from_root(dims.value(k), n) for k in range(3)]
    N, dual = ring.N, ring.dual
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = CycloNum.from_rational(n, 0)
            for k in range(3):
                acc = acc + (theta[k] * d[k]).scale(N[dual[i]][j][k])
            row.append(inv[i] * inv[j] * acc)
        out.append(row)
    return out


def test_z3_symmetry_is_decided_exactly():
    """Z/3 is not self-dual, so is_symmetric forms the entries below the
    diagonal: for each character and every twist pair of order dividing 6
    its verdict is whether the nine entries of the defining formula form a
    symmetric matrix.  On the dimension character a datum with theta_1 !=
    theta_2 is rejected, and its S-matrix is not rendered."""
    ring = make_z3_ring()
    system = solve_characters(ring)
    roots = roots_of_unity_up_to(6)
    verdicts = set()
    for dims in system.chars:
        for t1 in roots:
            for t2 in roots:
                tw = Twists.of(t1, t2)
                ctx = ExactContext(ring, dims, tw)
                s = _defining_formula(ring, dims, tw, ctx.n)
                expected = all(s[i][j] == s[j][i] for i in range(3) for j in range(i))
                assert ctx.is_symmetric() == expected, (dims.to_json(), tw)
                if dims is system.chars[0]:
                    assert expected == (t1 == t2)
                verdicts.add(expected)
    assert verdicts == {True, False}
    w = RootOfUnity.make(1, 3)
    bad = ExactContext(ring, system.chars[0], Twists.of(w, w.inverse()))
    assert not bad.is_symmetric()
    with pytest.raises(ValueError, match="not symmetric"):
        build_s_matrix(bad)


def test_corrupted_matrix_fails_row_check(ising):
    ring, system = ising
    tw = Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(1, 16))
    ctx = ExactContext(ring, system.chars[0], tw)
    assert ctx.rows_are_characters()
    ctx.entries[1][1] = -ctx.entries[1][1]
    assert not ctx.rows_are_characters()


def test_is_zero_sees_through_the_tensor_ring(ising):
    """sqrt(2) = zeta_8 + zeta_8^-1 lies in Q(zeta_8), so x - (zeta_8 +
    zeta_8^-1) would be nonzero in Q(zeta_8)[x]/(x^2 - 2) but vanishes at the
    generator x = sqrt(2).  The context computes in Q(zeta_8) itself, with
    d_2 = zeta_8 + zeta_8^-1, so that value is the zero element; d_2 +
    zeta_8 + zeta_8^-1 = 2 sqrt(2) is not."""
    ring, system = ising
    tw = Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(1, 8))
    ctx = ExactContext(ring, system.chars[0], tw)
    assert ctx.n == 8 and ctx.gen.minpoly == IntPoly((-2, 0, 1)) and ctx.gen > 0
    s = CycloNum.from_root(RootOfUnity.make(1, 8), 8) + CycloNum.from_root(RootOfUnity.make(7, 8), 8)
    assert ctx.beta == s and ctx.d[2] == s
    assert ctx._is_zero(ctx.d[2] - s)
    assert not ctx._is_zero(ctx.d[2] + s)


def test_rational_dimensions_compute_in_the_cyclotomic_field(rep_s3):
    """Rational and Z/3 dimensions have the generator 0 and the degree-1
    modulus x, so the context computes in Q(zeta_n) with beta = 0; their
    balls are those of the single coefficient."""
    s3_ring, s3_system = rep_s3
    z3 = make_z3_ring()
    for ring, dims in ((s3_ring, s3_system.chars[0]), (z3, solve_characters(z3).chars[0])):
        rational = ExactContext(ring, dims, Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(1, 8)))
        assert rational.field.deg == 1 and rational.gen == 0
        assert rational.beta == CycloNum.from_rational(rational.n, 0)
        assert all(isinstance(d, CycloNum) for d in rational.d)
        for c in (rational.d[1], CycloNum.from_root(RootOfUnity.make(1, rational.n), rational.n)):
            ball, expected = rational.field._eval_ball_at_gen((c,), 96), c.ball(96)
            assert (ball.re, ball.im, ball.rad) == (expected.re, expected.im, expected.rad)


def test_twists_require_unit():
    with pytest.raises(ValueError):
        Twists((RootOfUnity.make(1, 2), RootOfUnity.one(), RootOfUnity.one()))


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_search_ising_order16(ising):
    """Only the modular family survives: unit-twist -1 on X and a primitive
    16th root on Y, for both choices of the irrational dimension."""
    ring, _ = ising
    witnesses = search_ribbon_data(ring, 16)
    assert len(witnesses) == 16
    for w in witnesses:
        assert w.structure_class == StructureClass.MODULAR
        assert w.twists.theta[1] == RootOfUnity.make(1, 2)
        assert w.twists.theta[2].order == 16
        assert w.certificate["fs_indicators"][0] == 1
    assert sorted({w.dims_index for w in witnesses}) == [0, 2]
    # S-matrix shape with exact zero corner
    corner = witnesses[0].smatrix.entry(2, 2)
    assert abs(corner.center_complex()) < 1e-9


def test_search_rep_s3_contains_symmetric_witness(rep_s3):
    ring, _ = rep_s3
    witnesses = search_ribbon_data(ring, 3)
    assert any(
        w.structure_class == StructureClass.SYMMETRIC
        and w.dims_index == 0
        and w.twists.theta[1].is_one
        and w.twists.theta[2].is_one
        for w in witnesses
    )


def test_search_excluded_ring_is_empty():
    ring = make_rank3_ring(Rank3Params(0, 1, 0, 2))
    assert search_ribbon_data(ring, 16) == []


def test_search_include_degenerate(ising, rep_s3):
    """Degenerate data surface only on request, and only where the
    nonmodular rule passes: on K(0,1,0,1) they are dims (1, 1, 2) with
    theta_X = 1 and theta_Y a primitive cube root of unity, whose
    transparent objects are 1 and X; the Ising-type ring has none."""
    assert search_ribbon_data(ising[0], 4) == []
    assert search_ribbon_data(ising[0], 4, include_degenerate=True) == []
    ring, _ = rep_s3
    default = search_ribbon_data(ring, 60)
    degenerate = search_ribbon_data(ring, 60, include_degenerate=True)
    proper = [w for w in degenerate if w.structure_class == StructureClass.PROPER_PREMODULAR]
    assert [w.to_json() for w in degenerate if w not in proper] == [w.to_json() for w in default]
    assert [w.twists.theta[2].turn for w in proper] == [Fraction(1, 3), Fraction(2, 3)]
    for w in proper:
        assert w.dims_index == 0 and w.twists.theta[1].is_one
        assert w.certificate["nonmodular_rule"] == nonmodular_filter(ring.params).certificate
        assert w.certificate["transparent"] == [0, 1]


def test_search_z3():
    witnesses = search_ribbon_data(make_z3_ring(), 6)
    classes = sorted(w.structure_class.value for w in witnesses)
    assert classes == ["Modular", "Modular", "Symmetric"]
    modular = [w for w in witnesses if w.structure_class == StructureClass.MODULAR]
    assert {w.twists.theta[1].turn for w in modular} == {Fraction(1, 3), Fraction(2, 3)}
    for w in modular:
        assert w.twists.theta[1] == w.twists.theta[2]
        assert w.certificate["fs_indicators"] == [1, 0, 0]


def test_search_reuses_given_system(ising):
    """A system solved by the caller gives the same witnesses, byte for byte,
    as the search's own solve; a system of another ring is refused."""
    ring, _ = ising
    own = [w.to_json() for w in search_ribbon_data(ring, 12)]
    given = search_ribbon_data(ring, 12, system=solve_characters(ring))
    assert [w.to_json() for w in given] == own
    with pytest.raises(ValueError):
        search_ribbon_data(ring, 12, system=solve_characters(make_z3_ring()))


def test_search_order240_matches_order60(ising):
    """Raising the twist order fourfold finds no new witness on K(0,1,0,0)."""
    ring, _ = ising
    key = lambda ws: [
        (w.dims_index, w.twists.theta[1], w.twists.theta[2], w.structure_class,
         w.certificate) for w in ws
    ]
    at60 = search_ribbon_data(ring, 60)
    assert len(at60) == 16
    assert key(search_ribbon_data(ring, 240)) == key(at60)


def _grid_survivors(ring, system, dims, values, tol=1e-9, chunk=64):
    """Reference scan: the float mask evaluated on every (theta_1, theta_2)
    pair of the R x R twist grid, in blocks of rows."""
    N, dual = ring.N, ring.dual
    d = np.array([dims.value_complex(j) for j in range(3)])
    chars = [np.array([c.value_complex(j) for j in range(3)]) for c in system.chars]
    d2 = complex((d * d).sum())
    allowed = [[1] if k == 0 else ([1, -1] if dual[k] == k else [0]) for k in range(3)]
    found = []
    for start in range(0, len(values), chunk):
        t1, t2 = np.meshgrid(values[start:start + chunk], values, indexing="ij")
        theta = [np.ones_like(t1), t1, t2]
        S = [
            [
                np.conj(theta[i] * theta[j])
                * sum(N[dual[i]][j][k] * d[k] * theta[k] for k in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        keep = np.ones(t1.shape, dtype=bool)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            keep &= np.abs(S[i][j] - S[j][i]) <= tol
        for i in (1, 2):
            row_err = [
                np.max([np.abs(S[i][j] - d[i] * chi[j]) for j in range(3)], axis=0)
                for chi in chars
            ]
            keep &= np.min(row_err, axis=0) <= tol
        rows, cols = np.nonzero(keep)
        if not len(rows):
            continue
        mats = np.array([[S[i][j][rows, cols] for j in range(3)] for i in range(3)])
        degenerate = np.abs(np.linalg.det(mats.transpose(2, 0, 1))) <= 1e-6
        th = [np.ones(len(rows)), t1[rows, cols], t2[rows, cols]]
        fs_ok = np.ones(len(rows), dtype=bool)
        for k in range(3):
            total = sum(
                N[i][j][k] * d[i] * d[j] * (th[i] * np.conj(th[j])) ** 2
                for i in range(3) for j in range(3)
            )
            fs_ok &= np.any(
                [np.abs(total - nu * d2) <= 1e-6 * max(1.0, abs(d2)) for nu in allowed[k]],
                axis=0,
            )
        ok = degenerate | fs_ok
        found.extend(zip((start + rows[ok]).tolist(), cols[ok].tolist()))
    return sorted(found)


def _float_chars(system):
    return [[c.value_complex(j) for j in range(3)] for c in system.chars]


def _solver_chars(ring):
    """The float characters the search solves the pinning row from: read off
    the roots that typing places, or the Z/3 roots of unity."""
    if ring.params is None:
        return [FloatCharacter(tuple(v), (False,) * 3) for v in _float_chars(solve_characters(ring))]
    return float_characters(ring.params, galois_type(ring.params).roots)


# The float screen the closed-form solve replaced, kept as its reference: the
# pinning row scanned over the whole twist table.


class _TwistScreen(NamedTuple):
    """A twist table with the float data the scan reads: the value of each
    root, and the table by turn three times over (`by_turn`), with turns
    shifted by -1, 0 and +1 (`turns`), so that an arc of width <= 1 around
    a center in [0, 1] is one run of each list."""

    table: tuple
    values: tuple
    by_turn: tuple
    turns: tuple


def _twist_screen(order):
    table = tuple(twist_table(order))
    by_turn = sorted(range(len(table)), key=lambda j: table[j].p / table[j].q) * 3
    return _TwistScreen(
        table,
        tuple(r.complex_approx() for r in table),
        tuple(by_turn),
        tuple(table[j].p / table[j].q + n // len(table) - 1 for n, j in enumerate(by_turn)),
    )


def _arc_candidates(ring, d, chars, characters, screen, tol):
    """The index pairs (theta_1, theta_2) of `screen`'s table, row-major,
    whose pinning row i is within tol of d_i * chi at both non-unit entries
    for some character chi, found by scanning the table for theta_i and an
    arc of it for the other twist theta_o.  `d` and `chars` are the float
    values of the dimensions and of every character, `characters` the
    characters themselves, read only for an exact zero.  Where the diagonal
    entry ignores theta_i (chi_i and N[i*][i][i] exactly 0), only the roots
    of order 16 are tried for it (case (c) of `twist_table`)."""
    N, dual = ring.N, ring.dual
    i = 1 if N[dual[1]][1][2] or not N[dual[2]][2][1] else 2
    o = 3 - i
    pin = i if N[dual[i]][i][o] else o

    def entry(e, chi):  # (a, b, c, f, g): k_e = a + b t, r_e = (c t + f) t + g
        n, target = N[dual[i]][e], d[i] * chi[e]
        return (n[o] * d[o], -target if e == o else 0,
                target if e == i else 0, -n[i] * d[i], -n[0])

    values, by_turn, turns = screen.values, screen.by_turn, screen.turns
    found = set()
    for chi, character in zip(chars, characters):
        k, b, c, f, g = entry(pin, chi)
        if pin == o:  # Z/3: k_2 = b theta_1 and r_2 = f theta_1
            k, f, g = b, 0, f
        if pin == i and not N[dual[i]][i][i] and not (character.x_rep, character.y_rep)[i - 1]:
            firsts = [j for j, root in enumerate(screen.table) if root.q == 16]
        else:
            firsts = range(len(values))
        size, turn = abs(k), cmath.phase(k) / (2 * math.pi)
        half = min(tol / size, 1.0) / 2
        k2, b2, c2, f2, g2 = entry(3 - pin, chi)
        for first in firsts:
            t = values[first]
            r = (c * t + f) * t + g
            if abs(abs(r) - size) > tol:
                continue
            center = (cmath.phase(r) / (2 * math.pi) - turn) % 1.0
            other_k, other_r = k2 + b2 * t, (c2 * t + f2) * t + g2
            for second in by_turn[bisect.bisect_left(turns, center - half):
                                  bisect.bisect_right(turns, center + half)]:
                s = values[second]
                if abs(k * s - r) <= tol and abs(other_k * s - other_r) <= tol:
                    found.add((first, second) if i == 1 else (second, first))
    return sorted(found)


def _certify_pairs(ring, index, dims, roots, pairs):
    """The data exact certification admits, degenerate ones included, among
    the index `pairs` into `roots`, for the dimension character `index`,
    certified in the tensor ring where the generator is outside Q(zeta_n)."""
    landau = rules.landau_rule(dims) if index == 0 else None
    out = []
    with _tensor_ring_outside_the_cyclotomic_field():
        for a, b in pairs:
            datum = premodular._certify_candidate(
                ring, dims, index, Twists.of(roots[a], roots[b]), True, landau)
            if datum is not None:
                out.append(datum)
    return out


def _assert_scan_matches_grid(ring, order):
    """The pinning-row solve proposes every grid survivor among the pairs of
    the twist table, and exact certification admits the same data from
    both."""
    system = solve_characters(ring)
    twists = _twist_index(min(order, premodular.TWIST_ORDER_BOUND))
    table = twists.table
    assert list(table) == twist_table(order)
    chars = _solver_chars(ring)
    survivors = []
    for index, dims in enumerate(system.chars):
        if not dims.nonzero():
            continue
        expected = _grid_survivors(ring, system, dims, np.array(twists.values))
        pairs = _pinned_pairs(ring, chars[index], chars, twists)
        assert set(expected) <= set(pairs)
        from_pairs, from_grid = (
            [w.to_json() for w in _certify_pairs(ring, index, dims, table, p)]
            for p in (pairs, expected))
        assert from_pairs == from_grid
        survivors.extend((table[a], table[b]) for a, b in expected)
    return survivors


@pytest.mark.parametrize("params", enumerate_star_solutions(5), ids=lambda p: p.name())
def test_solved_scan_matches_grid_bound5_order24(params):
    _assert_scan_matches_grid(make_rank3_ring(params), 24)


@pytest.mark.parametrize("params", [
    Rank3Params(0, 1, 0, 0), Rank3Params(0, 1, 0, 1),
    Rank3Params(1, 1, 0, 1), Rank3Params(0, 1, 0, 2),
], ids=lambda p: p.name())
def test_solved_scan_matches_grid_order60(params):
    _assert_scan_matches_grid(make_rank3_ring(params), 60)


@pytest.mark.parametrize("ring, row", [
    pytest.param(make_z3_ring(), 1, id="Z3"),
    *(pytest.param(make_rank3_ring(Rank3Params(*p)), row, id=Rank3Params(*p).name())
      for p, row in (((0, 1, 0, 0), 2), ((1, 1, 0, 1), 1), ((1, 2, 0, 4), 1))),
])
@pytest.mark.parametrize("tol", [1e-9, 0.05, 0.4])
def test_solved_candidates_cover_s12_window(ring, row, tol):
    """The reference scan (`_arc_candidates`), which the solver is checked
    against, proposes exactly the table pairs whose pinning row is within
    tol of d_row * chi at both non-unit entries for some character chi: row
    1 on Z/3 and when k != 0, row 2 on k = 0 rings.  Where the
    pinning row ignores its own twist (the character (-1, 0) of K(0,1,0,0),
    whose value and N[2][2][2] are exactly 0), that twist's window is
    restricted to order 16.  Loose tolerances put many pairs near the arc
    edges."""
    system = solve_characters(ring)
    screen = _twist_screen(30)
    values = screen.values
    t1, t2 = np.meshgrid(values, values, indexing="ij")
    theta = [np.ones_like(t1), t1, t2]
    order_16 = np.array([r.q == 16 for r in screen.table])
    N, dual = ring.N, ring.dual
    chars = _float_chars(system)
    for index, dims in enumerate(system.chars):
        if not dims.nonzero():
            continue
        d = chars[index]
        S = [
            np.conj(theta[row] * theta[j])
            * sum(N[dual[row]][j][k] * d[k] * theta[k] for k in range(3))
            for j in range(3)
        ]
        window = set()
        for chi, character in zip(chars, system.chars):
            near = (np.abs(S[1] - d[row] * chi[1]) <= tol) & (np.abs(S[2] - d[row] * chi[2]) <= tol)
            if row == 2 and not N[2][2][2] and character.y == 0:
                near &= order_16[None, :]
            window.update(zip(*(axis.tolist() for axis in np.nonzero(near))))
        assert _arc_candidates(ring, d, chars, system.chars, screen, tol) == sorted(window)


def _solver_oracle_rings():
    """Z/3 and every ring up to bound 10 in both orientations, which hold the
    four search rings K(0,1,0,0), K(0,1,0,1), K(1,1,0,1) and K(0,1,0,2)."""
    rings = [make_z3_ring()]
    for params in enumerate_star_solutions(10):
        rings += [make_rank3_ring(p) for p in {params, params.swapped()}]
    return rings


@pytest.mark.parametrize("order", [16, 60, 240])
def test_pinned_pairs_match_the_reference_scan(order):
    """The closed-form solve against the float scan it replaced
    (`_arc_candidates`, test-local): on Z/3 and every ring up to bound 10 in
    both orientations, every pair the scan proposes and exact certification
    admits, with or without degenerate data, is proposed, and a pair only
    one of them proposes is rejected by certification either way.  The scan
    reads the rep floats of the solved characters, the solve the floats of
    the roots that typing places."""
    proposed = 0
    for ring in _solver_oracle_rings():
        system = solve_characters(ring)
        screen = _twist_screen(order)
        twists = _twist_index(min(order, premodular.TWIST_ORDER_BOUND))
        assert screen.table == twists.table
        reps, chars = _float_chars(system), _solver_chars(ring)
        for index, dims in enumerate(system.chars):
            if not dims.nonzero():
                continue
            scanned = set(_arc_candidates(ring, reps[index], reps, system.chars, screen, 1e-9))
            solved = set(_pinned_pairs(ring, chars[index], chars, twists))
            landau = rules.landau_rule(dims) if index == 0 else None
            with _tensor_ring_outside_the_cyclotomic_field():
                for a, b in scanned ^ solved:
                    for degenerate in (False, True):
                        assert premodular._certify_candidate(
                            ring, dims, index, Twists.of(twists.table[a], twists.table[b]),
                            degenerate, landau) is None, (ring.params, index, a, b)
            proposed += len(solved)
    assert proposed > 0


def test_solved_scan_covers_pinned_theta_1():
    """On K(0,1,0,0) (k = 0) row 2 pins theta_1 and leaves theta_2 free:
    the grid keeps theta_1 = -1 with every primitive 16th root."""
    pairs = _assert_scan_matches_grid(make_rank3_ring(Rank3Params(0, 1, 0, 0)), 60)
    free = {t2 for t1, t2 in pairs if t1 == RootOfUnity.make(1, 2)}
    assert {t for t in free if t.q == 16} == {RootOfUnity.make(p, 16) for p in range(1, 16, 2)}


@pytest.mark.parametrize("params", [(0, 1, 0, 0), (1, 0, 0, 0)], ids=str)
def test_free_twist_is_tried_at_order_16_only(params):
    """On K(0,1,0,0), in both orientations, the character (-1, 0) leaves the
    twist of the pinning row free: only its 8 roots of order 16 are
    proposed, each with theta_o = -1, on both dimension characters (1, 1,
    +-sqrt(2)).  With the 8 pairs pinned in full, that is 24 candidates at
    orders 60 and 100, 16 of them witnesses, and 8 candidates with no
    witness at order 10, whose table has no root of order 16.  Trying every
    root of the table for the free twist would give 368 candidates."""
    ring = make_rank3_ring(Rank3Params(*params))
    system = solve_characters(ring)
    chars = _solver_chars(ring)
    free = 1 if params[0] else 2
    for order, count, witnesses in ((10, 8, 0), (60, 24, 16), (100, 24, 16)):
        twists = _twist_index(min(order, premodular.TWIST_ORDER_BOUND))
        pairs = [
            (index, twists.table[a], twists.table[b])
            for index, dims in enumerate(chars) if not any(dims.zero)
            for a, b in _pinned_pairs(ring, dims, chars, twists)
        ]
        assert len(pairs) == count
        assert sum(p[free].q == 16 for p in pairs) == count - 8
        assert {p[3 - free] for p in pairs if p[free].q == 16} <= {RootOfUnity.make(1, 2)}
        assert len(search_ribbon_data(ring, order, system=system)) == witnesses


def test_solved_scan_matches_grid_z3_pinned_theta_2():
    """On Z/3 S[1][2] = theta_2^-1 d_1 pins theta_2 to a cube root of
    unity whatever theta_1 is."""
    pairs = _assert_scan_matches_grid(make_z3_ring(), 24)
    assert pairs
    assert all(3 % t2.q == 0 for _, t2 in pairs)


def test_twist_table_is_the_phi_at_most_12_roots():
    """The full table has the 180 roots of the 26 orders q with phi(q) <=
    12, all q <= 42 (phi(q) >= sqrt(q/2), so no q above 288 qualifies);
    lower orders trim it, higher ones change nothing."""
    full = twist_table(42)
    orders = [q for q in range(1, 289) if euler_phi(q) <= premodular.TWIST_PHI_BOUND]
    assert sorted({r.q for r in full}) == orders and max(orders) == premodular.TWIST_ORDER_BOUND
    assert len(orders) == 26 and len(full) == 180
    assert full == [r for r in roots_of_unity_up_to(42) if r.q in orders]
    assert twist_table(10**9) == full
    assert twist_table(16) == roots_of_unity_up_to(16)


def test_one_twist_table_per_capped_order(monkeypatch):
    """The table and its screen data are built once per capped order
    min(N, 42), on first use: orders 60, 100 and 10**6 share one build,
    orders 16 and 60 take two.  Calls are counted through every name a
    module binds `roots_of_unity_up_to` to, from a cleared cache."""
    import sys

    calls = []

    def wrapper(max_order):
        calls.append(max_order)
        return roots_of_unity_up_to(max_order)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("rank3ribbon") and vars(module).get("roots_of_unity_up_to") is roots_of_unity_up_to:
            monkeypatch.setattr(module, "roots_of_unity_up_to", wrapper)
    ring = make_rank3_ring(Rank3Params(1, 1, 0, 1))
    system = solve_characters(ring)
    for orders, built in (((60, 100, 10**6), [42]), ((16, 60, 16), [16, 42])):
        _twist_index.cache_clear()
        calls.clear()
        for order in orders:
            search_ribbon_data(ring, order, system=system)
        assert calls == built
    _twist_index.cache_clear()


def _theorem_rings():
    rings = [make_z3_ring()]
    for params in enumerate_star_solutions(6):
        rings.append(make_rank3_ring(params))
        if params.swapped() != params:
            rings.append(make_rank3_ring(params.swapped()))
    return rings


@pytest.mark.parametrize("ring", _theorem_rings(), ids=lambda r: r.params.name() if r.params else "Z3")
def test_full_grid_certifies_nothing_outside_the_twist_table(ring):
    """The theorem of `twist_table`, checked: certifying every survivor of
    the full order-30 grid, which holds the orders 17, 19, 23, 25, 27 and 29
    of phi > 12, admits exactly the data the table search finds."""
    system = solve_characters(ring)
    roots = roots_of_unity_up_to(30)
    assert {17, 19, 23, 25, 27, 29} <= {r.q for r in roots}
    values = np.array([r.complex_approx() for r in roots])
    certified = []
    for index, dims in enumerate(system.chars):
        if not dims.nonzero():
            continue
        survivors = _grid_survivors(ring, system, dims, values)
        certified += _certify_pairs(ring, index, dims, roots, survivors)
    certified.sort(key=lambda w: (w.dims_index, w.twists.theta[1].turn, w.twists.theta[2].turn))
    found = search_ribbon_data(ring, 30, include_degenerate=True, system=system)
    assert [w.to_json() for w in certified] == [w.to_json() for w in found]


@pytest.mark.parametrize("ring", _theorem_rings(), ids=lambda r: r.params.name() if r.params else "Z3")
def test_solved_scan_matches_grid_both_orientations_order24(ring):
    """Both orientations of every ring up to bound 6, and Z/3, at screen
    level: where k or l is 0, the swapped ring pins with the other row, and
    the scan still keeps exactly the grid survivors."""
    _assert_scan_matches_grid(ring, 24)


def test_unit_twists_on_the_dimension_character_give_rank_one_character_data():
    """The identity the Landau rule's users rest on: with every twist 1,
    S[i][j] = sum_k N[i*][j][k] d_k = d_i* d_j, so on the dimension character
    the datum is exactly symmetric, its unit row is d, its rows are
    characters and it has rank 1.  Checked on Z/3 and every ring up to bound
    20, in the tensor ring where the dimensions are irrational."""
    unit = Twists.of(RootOfUnity.one(), RootOfUnity.one())
    rings = [make_z3_ring()] + [make_rank3_ring(p) for p in enumerate_star_solutions(20)]
    with _tensor_ring_outside_the_cyclotomic_field():
        for ring in rings:
            ctx = ExactContext(ring, solve_characters(ring).chars[0], unit)
            assert ctx.is_symmetric() and ctx.unit_row_ok(), ring
            assert ctx.rows_are_characters() and ctx.rank_is_one(), ring


def test_modular_rows_pair_opposite_y(ising):
    """On the Ising-type ring every modular witness realizes the two
    conjugate characters on rows 0 and 1, with opposite y-values: the
    symmetry of the matrix is equivalent to y_2 = -y_1 there."""
    ring, system = ising
    for w in search_ribbon_data(ring, 16):
        s01 = w.smatrix.entry(0, 2).center_complex()
        s12 = w.smatrix.entry(1, 2).center_complex()
        assert s12 == pytest.approx(-s01, abs=1e-12)


def test_exact_context_agrees_with_ball_classifier(ising, rep_s3):
    """The exact class agrees with the determinant of the rendered ball
    matrix: clearly nonzero for a modular datum."""
    ring, system = ising
    tw = Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(5, 16))
    ctx = ExactContext(ring, system.chars[0], tw)
    sm = build_s_matrix(ctx)
    assert ctx.structure_class() == StructureClass.MODULAR
    assert abs(np.linalg.det(np.array(_centers(sm)))) > 1e-6


# ---------------------------------------------------------------------------
# nonmodular filter
# ---------------------------------------------------------------------------

def test_nonmodular_filter_fails_n0():
    """K(0,1,0,0) has Ising fusion rules, and every braided Ising category
    is modular: z = d_Y/2 would be a root of 2z^2 - 1, not an algebraic
    integer."""
    v = nonmodular_filter(Rank3Params(0, 1, 0, 0))
    assert v.status == Verdict.FAIL
    assert v.certificate["z_poly"] == [-1, 0, 2]
    assert "2z^2 - 1," in v.certificate["failed"]


def test_nonmodular_filter_passes_n1():
    v = nonmodular_filter(Rank3Params(0, 1, 0, 1))
    assert v.status == Verdict.PASS
    assert v.certificate == {"n": 1, "d_X": "1", "theta_X": "1", "z_poly": [-1, -1, 2],
                             "z": "1", "d_Y": "2"}


def test_nonmodular_filter_fails_n2():
    v = nonmodular_filter(Rank3Params(0, 1, 0, 2))
    assert v.status == Verdict.FAIL
    assert "2z^2 - 2z - 1," in v.certificate["failed"]


def test_nonmodular_filter_names_the_split_dimension_polynomial():
    """For n = 2..50 the certificate names 2z^2 - nz - 1, with no
    algebraic-integer root: n^2 + 8 is a square only for n = 1."""
    for n in range(2, 51):
        v = nonmodular_filter(Rank3Params(0, 1, 0, n))
        assert v.status == Verdict.FAIL, n
        assert v.certificate["z_poly"] == [-1, -n, 2], n
        assert f"2z^2 - {n}z - 1," in v.certificate["failed"], n


@pytest.mark.parametrize("params", ["0,1,0,0", "1,0,0,0"])
@pytest.mark.parametrize("order", [16, 60, 240])
def test_ising_rings_have_no_proper_premodular_datum(params, order):
    """`search --params 0,1,0,0 --include-degenerate`, and its swap, return
    no ProperPremodular datum: the Ising fusion rules carry no properly
    premodular braiding."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["search", "--params", params, "--max-twist-order", str(order),
                        "--include-degenerate"])
    witnesses = json.loads(out.getvalue())["witnesses"]
    assert code == 0 and witnesses
    assert {w["structure_class"] for w in witnesses} == {"Modular"}


def test_nonmodular_filter_not_applicable():
    v = nonmodular_filter(Rank3Params(1, 1, 0, 1))
    assert v.status == Verdict.NOT_APPLICABLE


def test_nonmodular_filter_swapped_orientation():
    v = nonmodular_filter(Rank3Params(1, 0, 1, 0))
    assert v.status == Verdict.PASS


def test_nonmodular_filter_large_n_fails():
    for n in (3, 5, 9):
        v = nonmodular_filter(Rank3Params(0, 1, 0, n))
        assert v.status == Verdict.FAIL


# ---------------------------------------------------------------------------
# exact certification: zero-test and check-order oracles
# ---------------------------------------------------------------------------

ORACLE_PRECISION_CAP = 4096  # the reference zero test gives up beyond this


def _qgcd(p, q):
    """Monic gcd over Q(zeta_n) of two polynomials with CycloNum
    coefficients, by the Euclidean algorithm on `qmod`."""
    a, b = qtrim(p), qtrim(q)
    while b:
        a, b = b, qmod(a, b)
    inv = Fraction(1) / a[-1]
    return tuple(c * inv for c in a)


def _full_modulus_is_zero(ctx, elem):
    """Reference zero test in Q(zeta_n)[x]/(m), with no learned state: gcd of
    the representative with the whole lifted modulus m, then certified
    separation of the two complementary factors at the generator."""
    if not elem:
        return True
    g = qtrim(elem.coeffs)
    if len(g) == 1:
        return False
    m = elem.modulus
    h = _qgcd(g, m)
    if len(h) <= 1:
        return False
    if len(h) == len(m):
        return True
    h2, rem = qdivmod(m, h)
    assert not rem
    prec = 96
    while prec <= ORACLE_PRECISION_CAP:
        if ctx.field._eval_ball_at_gen(h, prec).definitely_nonzero():
            return False
        if ctx.field._eval_ball_at_gen(h2, prec).definitely_nonzero():
            return True
        prec *= 2
    raise AssertionError("reference zero test did not separate")


class _TensorNum:
    """An element of the tensor ring Q(zeta_n)[x]/(m), m the minimal
    polynomial of the generator over Q lifted to CycloNum coefficients
    (`modulus`): its deg(m) CycloNum coefficients."""

    def __init__(self, modulus, coeffs):
        self.modulus, self.coeffs = modulus, tuple(coeffs)

    def __sub__(self, other):
        return _TensorNum(self.modulus, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, r):
        return _TensorNum(self.modulus, (a.scale(r) for a in self.coeffs))

    def __mul__(self, other):
        zero = self.modulus[0] - self.modulus[0]
        product = [zero] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                product[i + j] = product[i + j] + a * b
        rem = qmod(product, self.modulus)
        return _TensorNum(self.modulus, rem + (zero,) * (len(self.coeffs) - len(rem)))

    def __bool__(self):
        return any(self.coeffs)


class _TensorField(premodular._Field):
    """Field data of one dimension character over the tensor ring: the
    generator stays the variable x, whether or not it lies in Q(zeta_n)."""

    def __init__(self, dims, n):
        gen = dims.gen or RealAlgebraic.from_rational(0)
        self.modulus = tuple(CycloNum.from_rational(n, c) for c in gen.minpoly.coeffs)
        one, unit = RootOfUnity.one(), (1,)
        if dims.is_cyclotomic:
            dim_terms = ((unit, one), (unit, dims.x), (unit, dims.y))
        else:
            dim_terms = ((unit, one), (dims.x_rep, one), (dims.y_rep, one))
        super().__init__(n, gen, None, dim_terms)

    def _at_generator(self, coeffs):
        return _TensorNum(self.modulus, coeffs)

    def combine(self, terms, values):
        return _TensorNum(self.modulus, self.coefficients(terms, [v.coeffs for v in values]))


def _tensor_ring_context(ring, dims, twists):
    """The context computed in Q(zeta_n)[x]/(m), where a nonzero
    representative can be a zero value."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(premodular, "_field_of", lambda fields, dims, n: _TensorField(dims, n))
        return ExactContext(ring, dims, twists)


@contextlib.contextmanager
def _tensor_ring_outside_the_cyclotomic_field():
    """Contexts whose generator lies outside Q(zeta_n), which the package
    refuses, compute in Q(zeta_n)[x]/(m) instead: m has degree <= 3 and no
    root in Q(zeta_n), so it stays irreducible there, the tensor ring is a
    field, and a value is zero exactly when its representative is."""
    original = premodular._field_of

    def field_of(fields, dims, n):
        if dims.gen is not None and embed_real_algebraic(dims.gen, n) is None:
            return _TensorField(dims, n)
        return original(fields, dims, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(premodular, "_field_of", field_of)
        yield


ZERO_TESTING_CHECKS = (
    "fs_indicators", "is_symmetric", "unit_row_ok", "rows_are_characters", "structure_class",
)


def test_zero_test_matches_full_modulus_reference(monkeypatch):
    """Every check of a witness-all classification at bound 10 and of the
    K(0,1,0,0) and K(1,1,0,1) searches at orders 100 and 240 gives the
    verdict, zero test by zero test, that the same check gives in the tensor
    ring Q(zeta_n)[x]/(m) under the gcd+ball reference zero test."""
    outcomes = []

    def logged(log, value):
        log.append(value)
        return value

    def wrap(name):
        original = getattr(ExactContext, name)

        def checked(self):
            shadow = _tensor_ring_context(self.ring, self.dims, self.twists)
            got_log, ref_log, representatives = [], [], []
            is_zero = self._is_zero

            def reference(elem):
                representatives.append(bool(elem))
                return logged(ref_log, _full_modulus_is_zero(shadow, elem))

            self._is_zero = lambda elem: logged(got_log, is_zero(elem))
            shadow._is_zero = reference
            try:
                got = original(self)
            finally:
                del self._is_zero
            assert original(shadow) == got and got_log == ref_log, (name, self.n, self.twists)
            outcomes.extend(zip(got_log, representatives))
            return got

        monkeypatch.setattr(ExactContext, name, checked)

    for name in ZERO_TESTING_CHECKS:
        wrap(name)
    classify_all(10, witness_all=True, max_twist_order=16)
    for params in (Rank3Params(0, 1, 0, 0), Rank3Params(1, 1, 0, 1)):
        for order in (100, 240):
            search_ribbon_data(make_rank3_ring(params), order, include_degenerate=True)
    # Not vacuous: some values vanish with a nonzero tensor representative.
    assert any(zero and nonzero for zero, nonzero in outcomes)
    assert any(not zero for zero, _ in outcomes)


def test_field_degree_rule_skips_the_period_search(monkeypatch):
    """When gcd(deg m, phi(n)) = 1 no root of m lies in Q(zeta_n), and the
    decision takes no Gaussian period: over a witness-all classification
    at bound 10 every period search is at an (n, d) with gcd(d, phi(n)) > 1,
    and the rule decides some context with an irrational generator."""
    cyclotomic._roots_in_cyclotomic_field.cache_clear()
    searched, ruled = [], []
    original = cyclotomic._real_subfield_periods

    def periods(n, d):
        searched.append(math.gcd(d, euler_phi(n)))
        return original(n, d)

    def embed(alpha, n):
        out = embed_real_algebraic(alpha, n)
        if alpha.degree > 1 and math.gcd(alpha.degree, euler_phi(n)) == 1:
            ruled.append(out)
        return out

    monkeypatch.setattr(cyclotomic, "_real_subfield_periods", periods)
    monkeypatch.setattr(premodular, "embed_real_algebraic", embed)
    classify_all(10, witness_all=True, max_twist_order=16)
    cyclotomic._roots_in_cyclotomic_field.cache_clear()
    assert searched and 1 not in searched
    assert ruled and all(out is None for out in ruled)


def _check_sequence(ctx):
    """The full check sequence of a modular candidate."""
    assert ctx.fs_indicators() == [1, 1, 1]
    assert ctx.is_symmetric() and ctx.unit_row_ok() and ctx.rows_are_characters()
    assert ctx.structure_class() == StructureClass.MODULAR


def test_cubic_generator_lies_in_q_zeta7():
    """On K(1,1,0,1) the generator 2cos(pi/7) = -(zeta_7^3 + zeta_7^4) lies
    in Q(zeta_7): the context computes in Q(zeta_7), every dimension is one
    CycloNum, and the modular checks pass there."""
    ring = make_rank3_ring(Rank3Params(1, 1, 0, 1))
    system = solve_characters(ring)
    ctx = ExactContext(ring, system.chars[0], Twists.of(RootOfUnity.make(1, 7), RootOfUnity.make(5, 7)))
    s = CycloNum.from_root(RootOfUnity.make(3, 7), 7) + CycloNum.from_root(RootOfUnity.make(4, 7), 7)
    assert ctx.n == 7 and ctx.beta == -s and ctx.d[1] == -s
    assert all(isinstance(d, CycloNum) for d in ctx.d)
    _check_sequence(ctx)


def test_ising_order16_places_sqrt2_in_the_cyclotomic_field(ising):
    """sqrt(2) = zeta_8 + zeta_8^7 lies in Q(zeta_16): gcd(2, phi(16)) = 2,
    and the period search finds it, so the context computes in Q(zeta_16).
    At n = 4 there is no root of x^2 - 2, and no context is built."""
    ring, system = ising
    ctx = ExactContext(ring, system.chars[0], Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(1, 16)))
    sqrt2 = CycloNum.from_root(RootOfUnity.make(1, 8), 16) + CycloNum.from_root(RootOfUnity.make(7, 8), 16)
    assert ctx.n == 16 and ctx.beta == sqrt2
    assert all(isinstance(d, CycloNum) for d in ctx.d)
    _check_sequence(ctx)
    with pytest.raises(ValueError, match=r"does not lie in Q\(zeta_4\)"):
        ExactContext(ring, system.chars[0], Twists.of(RootOfUnity.make(1, 2), RootOfUnity.make(1, 4)))
    assert embed_real_algebraic(system.chars[0].gen, 4) is None


def _assert_roots_placed(m, n):
    """Every root of m placed in Q(zeta_n) is a root of m whose ball meets
    the root's own isolating interval."""
    for alpha in roots_of_irreducible(m):
        beta = embed_real_algebraic(alpha, n)
        value = CycloNum.from_rational(n, 0)
        for c in reversed(m.coeffs):
            value = value * beta + CycloNum.from_rational(n, c)
        assert not value
        ball = beta.ball(128)
        lo, hi = alpha.tree_interval(Fraction(1, 2**128))
        assert lo - ball.rad <= ball.re <= hi + ball.rad and abs(ball.im) <= ball.rad


def test_s3_generator_is_never_placed():
    """No abelian field holds a root of an S3 cubic: K(1,2,0,4) has one, and
    its roots stay outside Q(zeta_n) even where 3 divides phi(n)."""
    m = char_poly_x(Rank3Params(1, 2, 0, 4))
    assert solve_characters(make_rank3_ring(Rank3Params(1, 2, 0, 4))).chars[0].gen.minpoly == m
    for alpha in roots_of_irreducible(m):
        for n in (7, 9, 21, 63):
            assert embed_real_algebraic(alpha, n) is None


def test_cyclic_cubic_of_conductor_63_is_placed_only_at_multiples_of_63():
    """K(1,8,1,56) has the cyclic cubic x^3 - 9x^2 + 6x + 8 of discriminant
    126^2, whose field has conductor 63: its roots lie in Q(zeta_63) and
    Q(zeta_126), but not in Q(zeta_7) or Q(zeta_9), although 3 divides
    phi(7) = phi(9) = 6.  The roots of x^2 - 2 lie in Q(zeta_8) and
    Q(zeta_16) but not Q(zeta_4) or Q(zeta_12); those of 2cos(2 pi/7)'s cubic
    in Q(zeta_7) and Q(zeta_14) but not Q(zeta_9)."""
    m = char_poly_x(Rank3Params(1, 8, 1, 56))
    assert m == IntPoly((8, 6, -9, 1)) and cubic_discriminant(m) == 126**2
    cubic7 = char_poly_x(Rank3Params(1, 1, 0, 1))
    for poly, inside, outside in (
        (m, (63, 126), (7, 9, 21)),
        (IntPoly((-2, 0, 1)), (8, 16, 24), (4, 12)),
        (cubic7, (7, 14), (9,)),
    ):
        for n in inside:
            _assert_roots_placed(poly, n)
        for n in outside:
            assert all(embed_real_algebraic(a, n) is None for a in roots_of_irreducible(poly))


def _full_order_certify(ring, dims, dims_index, twists, include_degenerate, landau):
    """Reference certification in the full check order: symmetry, unit row
    and rows first, then the structure class and its rule, taken here; the
    search's `landau` must be that rule's verdict."""
    rule = rules.landau_rule(dims) if dims_index == 0 else None
    assert (landau and landau.to_json()) == (rule and rule.to_json())
    ctx = ExactContext(ring, dims, twists)
    if not (ctx.is_symmetric() and ctx.unit_row_ok() and ctx.rows_are_characters()):
        return None
    certificate = {"verification": "exact"}
    sclass = ctx.structure_class()
    if sclass == StructureClass.SYMMETRIC:
        if rule is None or not rule.passed:
            return None
        certificate["symmetric_rule"] = rule.certificate
    elif sclass == StructureClass.MODULAR:
        fs = ctx.fs_indicators()
        if fs is None:
            return None
        certificate["fs_indicators"] = fs
    else:
        if not include_degenerate:
            return None
        rule = _muger_center_rule(ring, dims, twists, ctx)
        if rule is None:
            return None
        certificate["nonmodular_rule"], certificate["transparent"] = rule
    return premodular.PremodularDatum(
        ring=ring, dims=dims, dims_index=dims_index, twists=twists,
        smatrix=build_s_matrix(ctx), structure_class=sclass,
        certificate=certificate,
    )


def _muger_center_rule(ring, dims, twists, ctx):
    """The reference admission of a ProperPremodular datum, from the Muger
    center: the transparent objects (rows with S_ij = d_i d_j, all nine
    entries compared) are 1 and an invertible X with XY = Y, d_X = 1 and
    theta_X = 1, and z = d_Y/2 is an integer root of 2z^2 - nz - 1, n =
    N[Y][Y][Y].  Its certificate and the transparent objects, or None."""
    e, d = ctx.entries, ctx.d
    transparent = [i for i in range(3) if all(not (e[i][j] - d[i] * d[j]) for j in range(3))]
    if len(transparent) != 2:
        return None
    x = transparent[1]
    y = 3 - x
    N = ring.N
    if N[x][x] != (1, 0, 0) or N[x][y] != tuple(int(k == y) for k in range(3)):
        return None
    n = N[y][y][y]
    d_y = dims.value(y).rational_value
    if dims.value(x) != 1 or not twists.theta[x].is_one or d_y is None:
        return None
    z = d_y / 2
    if 2 * z * z - n * z - 1 != 0 or z.denominator != 1:
        return None
    return {"n": n, "d_X": "1", "theta_X": "1", "z_poly": [-1, -n, 2],
            "z": str(z), "d_Y": str(d_y)}, transparent


def test_certification_order_matches_full_order_reference(monkeypatch):
    """On every candidate of a witness-all classification at bound 10 and
    of the four search rings at order 60 (with and without degenerate data),
    the certified datum, or None, is the one the full check order gives.
    The reference builds its context without the search's shared fields."""
    original = premodular._certify_candidate
    seen = []

    def compared(*args):
        got = original(*args)
        ref = _full_order_certify(*args[:6])
        seen.append(got is not None)
        assert (got and got.to_json()) == (ref and ref.to_json()), args[1:]
        return got

    monkeypatch.setattr(premodular, "_certify_candidate", compared)
    classify_all(10, witness_all=True, max_twist_order=16)
    for params in (Rank3Params(0, 1, 0, 0), Rank3Params(0, 1, 0, 1),
                   Rank3Params(1, 1, 0, 1), Rank3Params(0, 1, 0, 2)):
        for degenerate in (False, True):
            search_ribbon_data(make_rank3_ring(params), 60, include_degenerate=degenerate)
    assert any(seen) and not all(seen)


def test_unit_twist_candidates_failing_the_rule_build_no_context(monkeypatch):
    """A proposed pair with both twists 1 is Symmetric if anything (S[i][j] =
    d_i* d_j), so when its dimensions are not the dimension character or
    fail the Landau rule, the rule alone rejects it: the search builds no
    ExactContext for it, with or without degenerate data.  Such candidates
    include +-1-valued characters like (1, 1, -1), whose Frobenius-Schur
    indicators nu_k = d_k pass.  A dimension character is the everywhere
    positive one."""
    original_pairs = premodular._pinned_pairs
    original_init = ExactContext.__init__
    unit_failing, built = [], []

    def pairs(ring, dims, chars, twists):
        found = original_pairs(ring, dims, chars, twists)
        dimension = dims is chars[0] and rules.landau_rule(solve_characters(ring).chars[0]).passed
        if not dimension and any(twists.table[a].is_one and twists.table[b].is_one for a, b in found):
            unit_failing.append(dims.values)
        return found

    def init(self, ring, dims, twists, *args):
        if all(t.is_one for t in twists.theta) and not (
                dims.is_positive and rules.landau_rule(dims).passed):
            built.append((ring, dims))
        original_init(self, ring, dims, twists, *args)

    monkeypatch.setattr(premodular, "_pinned_pairs", pairs)
    monkeypatch.setattr(ExactContext, "__init__", init)
    classify_all(5, witness_all=True, max_twist_order=16)
    for params in (Rank3Params(0, 1, 0, 1), Rank3Params(1, 1, 0, 1)):
        search_ribbon_data(make_rank3_ring(params), 16, include_degenerate=True)
    assert any({x, y} == {1.0, -1.0} for _, x, y in unit_failing)
    assert not built


# ---------------------------------------------------------------------------
# operation counts of the search
# ---------------------------------------------------------------------------

def _patch_everywhere(monkeypatch, original, wrapper):
    """Bind `wrapper` in place of `original` under every name a rank3ribbon
    module binds it to."""
    import sys

    for module in list(sys.modules.values()):
        if not module.__name__.startswith("rank3ribbon"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, wrapper)


def _ring_key(ring):
    return ring.params.as_tuple() if ring.params is not None else "Z/3"


def test_witness_all_solves_only_rings_that_build_a_context(monkeypatch):
    """`classify_all(10, 16, witness_all=True)` searches all 68 rings, but
    solves the characters of a ring only when one of its candidates builds
    an ExactContext: Z/3, K(0,1,0,0), K(0,1,0,1) and K(1,1,0,1).  The unit
    pair on a dimension character that fails the Landau rule needs no
    character, and neither does a ring that proposes nothing else."""
    solved, built = [], set()
    original_init = ExactContext.__init__

    def solve(ring, info=None):
        solved.append(_ring_key(ring))
        return solve_characters(ring, info)

    def init(self, ring, *args):
        built.add(_ring_key(ring))
        original_init(self, ring, *args)

    _patch_everywhere(monkeypatch, solve_characters, solve)
    monkeypatch.setattr(ExactContext, "__init__", init)
    report = classify_all(10, 16, witness_all=True)
    assert len(report.rings) == 68
    assert len(solved) == len(set(solved)) == 4
    assert set(solved) == built == {"Z/3", (0, 1, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1)}


def test_search_refines_no_root_after_typing(monkeypatch):
    """`search --params 0,1,0,2 --max-twist-order 240 --include-degenerate`
    reads its floats from roots that typing placed on their RENDER_WIDTH
    nodes, so no RealAlgebraic.refine_to runs once `galois_type` has
    returned; the search finds nothing."""
    from rank3ribbon.characters import galois_type
    from rank3ribbon.exactnum.realalg import RealAlgebraic

    typed, late = [], []
    original_refine = RealAlgebraic.refine_to

    def typing(params):
        info = galois_type(params)
        typed.append(params)
        return info

    def refine(self, width):
        if typed:
            late.append((self, width))
        return original_refine(self, width)

    _patch_everywhere(monkeypatch, galois_type, typing)
    monkeypatch.setattr(RealAlgebraic, "refine_to", refine)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["search", "--params", "0,1,0,2", "--max-twist-order", "240",
                        "--include-degenerate"])
    assert code == 0 and json.loads(out.getvalue())["count"] == 0
    assert len(typed) == 1 and late == []


# ---------------------------------------------------------------------------
# decisions per Galois orbit
# ---------------------------------------------------------------------------

def _conjugate_index(system, j, a, n):
    """pi_a(j) from the solved characters: the one whose generator, placed
    in Q(zeta_n), is sigma_a of character j's; x -> x^a on Z/3."""
    chars = system.chars
    if chars[j].is_cyclotomic:
        return [c.x for c in chars].index(chars[j].x ** a)
    if chars[j].gen is None:
        return j
    image = embed_real_algebraic(chars[j].gen, n).galois(a)
    return next(k for k, c in enumerate(chars)
                if c.gen is not None and embed_real_algebraic(c.gen, n) == image)


def _orbit(system, j, theta_1, theta_2):
    """The candidates sigma_a (j, theta_1, theta_2), a a unit mod n."""
    n = math.lcm(theta_1.q, theta_2.q, 3 if system.chars[j].is_cyclotomic else 1)
    return {(_conjugate_index(system, j, a, n), theta_1 ** a, theta_2 ** a)
            for a in range(1, n + 1) if math.gcd(a, n) == 1}


def _orbit_rings(bound):
    return [make_z3_ring()] + [make_rank3_ring(p) for p in enumerate_star_solutions(bound)]


def test_galois_images_of_cyclotomic_numbers():
    """sigma_a is a field automorphism fixing Q: it maps zeta_n to zeta_n^a,
    respects sums and products, and sigma_a sigma_b = sigma_ab; a non-unit
    is refused."""
    n = 24
    x = CycloNum(n, [Fraction(1, 3), 2, 0, -5, 0, 0, 7, 1, 0, 0, Fraction(-1, 2)])
    y = CycloNum(n, [0, 1, 1, 0, 0, 0, 0, 0, 3])
    for a in (1, 5, 7, 11, 13, 23):
        assert CycloNum.from_root(RootOfUnity.make(1, n), n).galois(a) == CycloNum.from_root(
            RootOfUnity.make(a, n), n)
        assert (x + y).galois(a) == x.galois(a) + y.galois(a)
        assert (x * y).galois(a) == x.galois(a) * y.galois(a)
        assert x.galois(a).galois(5) == x.galois(a * 5 % n)
        assert CycloNum.from_rational(n, Fraction(7, 3)).galois(a) == CycloNum.from_rational(n, Fraction(7, 3))
    with pytest.raises(ValueError, match="not a unit"):
        x.galois(4)


def test_s3_rings_propose_only_the_unit_pair_which_the_landau_rule_rejects():
    """Rule 1 needs no arithmetic to be safe: on all 4,638 S3 rings at bound
    100, order 60, every character proposes only the unit pair (twists 1,
    1), and the symmetric filter fails, so the search would reject each
    proposal without a context."""
    twists = _twist_index(min(60, premodular.TWIST_ORDER_BOUND))
    assert twists.table[0].is_one
    s3 = 0
    for params in enumerate_star_solutions(100):
        info = galois_type(params)
        if info.tag.value != "S3":
            continue
        ring = make_rank3_ring(params)
        chars = float_characters(params, info.roots)
        for dims in chars:
            assert _pinned_pairs(ring, dims, chars, twists) == [(0, 0)], params
        assert not rules.symmetric_filter(params, info).passed, params
        assert search_ribbon_data(ring, 60) == []
        s3 += 1
    assert s3 == 4638


@pytest.mark.parametrize("order", [16, 60, 240])
def test_each_derived_decision_is_the_direct_certification(monkeypatch, order):
    """Every candidate proposed on Z/3 and the rings up to bound 20, with
    and without degenerate data, is decided as `_certify_candidate` decides
    it on its own, with no shared field data (compared by to_json): the
    representative of its orbit, the images by sigma_a and the rejections by
    rule 2 alike, the last certified in the tensor ring.  The orbit of each admitted representative lies inside
    the proposed candidates, so each witness set is closed under the Galois
    action by construction."""
    original_decide, original_certify = premodular._OrbitDecisions.decide, premodular._certify_candidate
    calls, certified = [], set()

    def decide(self, j, theta_1, theta_2, landau):
        datum = original_decide(self, j, theta_1, theta_2, landau)
        calls.append((self, j, theta_1, theta_2, landau, datum))
        return datum

    def certify(ring, dims, j, twists, *args):
        certified.add((j, *twists.theta[1:]))
        return original_certify(ring, dims, j, twists, *args)

    monkeypatch.setattr(premodular._OrbitDecisions, "decide", decide)
    monkeypatch.setattr(premodular, "_certify_candidate", certify)
    derived = admitted_orbits = 0
    for ring in _orbit_rings(20):
        for degenerate in (False, True):
            calls.clear()
            certified.clear()
            search_ribbon_data(ring, order, include_degenerate=degenerate)
            proposed = {(j, t1, t2) for _, j, t1, t2, _, _ in calls}
            for search, j, t1, t2, landau, datum in calls:
                system = search.system or solve_characters(ring)
                with _tensor_ring_outside_the_cyclotomic_field():
                    direct = original_certify(
                        ring, system.chars[j], j, Twists.of(t1, t2), degenerate, landau)
                assert (datum and datum.to_json()) == (direct and direct.to_json()), (ring, j, t1, t2)
                if (j, t1, t2) not in certified:
                    derived += datum is not None
                elif datum is not None:
                    assert _orbit(system, j, t1, t2) <= proposed, (ring, j, t1, t2)
                    admitted_orbits += 1
    assert derived and admitted_orbits


def test_rule_2_rejects_only_what_certification_rejects(monkeypatch):
    """A candidate whose dimension generator is not in Q(zeta_n) is rejected
    before any context; certified on its own in the tensor ring, with or
    without degenerate data, it is rejected too.  Over Z/3 and the rings up
    to bound 100 at order 60, and the degenerate searches of K(0,1,0,0) in
    both orientations, there are such candidates, all on K(0,1,0,0)'s
    sqrt(2) at twists of order 4; some are properly premodular, and the
    nonmodular rule rejects them."""
    original = premodular._OrbitDecisions.decide
    rejected = []

    def decide(self, j, theta_1, theta_2, landau):
        datum = original(self, j, theta_1, theta_2, landau)
        n = math.lcm(theta_1.q, theta_2.q)
        if self.info is not None and embed_real_algebraic(self.info.roots[j], n) is None:
            assert datum is None
            rejected.append((self.ring, j, Twists.of(theta_1, theta_2), landau))
        return datum

    monkeypatch.setattr(premodular._OrbitDecisions, "decide", decide)
    classify_all(100, 60, witness_all=True)
    assert rejected and {ring.params for ring, *_ in rejected} == {Rank3Params(0, 1, 0, 0)}
    for params in (Rank3Params(0, 1, 0, 0), Rank3Params(1, 0, 0, 0)):
        search_ribbon_data(make_rank3_ring(params), 60, include_degenerate=True)
    classes = set()
    with _tensor_ring_outside_the_cyclotomic_field():
        for ring, j, twists, landau in rejected:
            dims = solve_characters(ring).chars[j]
            for degenerate in (False, True):
                assert premodular._certify_candidate(ring, dims, j, twists, degenerate, landau) is None
            ctx = ExactContext(ring, dims, twists)
            if ctx.is_symmetric() and ctx.rows_are_characters():
                classes.add(ctx.structure_class())
    assert StructureClass.PROPER_PREMODULAR in classes
    assert {ring.params for ring, *_ in rejected} == {Rank3Params(0, 1, 0, 0), Rank3Params(1, 0, 0, 0)}


def test_full_checks_run_once_per_orbit(monkeypatch):
    """`classify --bound 10 --witness-all --max-twist-order 16` runs the
    Frobenius-Schur and row checks on orbit representatives alone, 11 and 7
    times (43 and 28 when each candidate was certified), the Z/3 report's
    own check of its hand-made witness included: no two candidates that the
    search checks are Galois conjugate."""
    checked = {"fs_indicators": [], "rows_are_characters": []}
    searching = []
    for name, log in checked.items():
        def counted(self, _original=getattr(ExactContext, name), _log=log):
            _log.append((self.ring, self.dims, self.twists, bool(searching)))
            return _original(self)
        monkeypatch.setattr(ExactContext, name, counted)
    original_certify = premodular._certify_candidate

    def certify(*args):
        searching.append(True)
        try:
            return original_certify(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(premodular, "_certify_candidate", certify)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["classify", "--bound", "10", "--witness-all", "--max-twist-order", "16"]) == 0
    assert [len(log) for log in checked.values()] == [11, 7]
    assert [sum(not s for *_, s in log) for log in checked.values()] == [1, 0]
    for log in checked.values():
        seen = set()
        for ring, dims, twists, in_search in log:
            if not in_search:
                continue
            system = solve_characters(ring)
            j = next(k for k, c in enumerate(system.chars) if c.to_json() == dims.to_json())
            orbit = {(ring, *member) for member in _orbit(system, j, *twists.theta[1:])}
            assert not orbit & seen, (ring, j, twists)
            seen |= orbit
