"""Tests for character systems and Galois orbit types."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rank3ribbon.characters import (
    GaloisType,
    char_poly_x,
    char_poly_y,
    fp_character,
    galois_type,
    solve_characters,
    vieta_products,
)
from rank3ribbon.classify import enumerate_star_solutions
from rank3ribbon.exactnum import (
    IntPoly,
    RealAlgebraic,
    cubic_discriminant,
    is_perfect_square,
    rational_roots,
)
from rank3ribbon.fusion import Rank3Params, StarViolation, make_rank3_ring, make_z3_ring


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
    """The non-dimension characters are sorted and told apart exactly:
    solving renders no value through float() or repr()."""
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
    assert galois_type(solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 1)))).tag == GaloisType.TRIVIAL
    info = galois_type(solve_characters(make_rank3_ring(Rank3Params(1, 1, 1, 0))))
    assert info.tag == GaloisType.C3
    assert cubic_discriminant(char_poly_x(Rank3Params(1, 1, 1, 0))) == 49
    info2 = galois_type(solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 0))))
    assert info2.tag == GaloisType.C2_MOVING_FP
    # the fixed character is the rational one, in its own orbit
    assert info2.orbits == ((0, 2), (1,))


def test_s3_type_exists():
    info = galois_type(solve_characters(make_rank3_ring(Rank3Params(1, 2, 2, 0))))
    assert info.tag == GaloisType.S3


def test_fp_character():
    system = solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 2)))
    idx = fp_character(system)
    fp = system.chars[idx]
    assert fp.x.rational_value == 1
    assert fp.y.minpoly == IntPoly((-2, -2, 1))
    assert float(fp.y) == pytest.approx(1 + math.sqrt(3))

    system2 = solve_characters(make_rank3_ring(Rank3Params(2, 1, 2, 1)))
    fp2 = system2.chars[fp_character(system2)]
    assert float(fp2.x) == pytest.approx(2 + math.sqrt(3))
    assert float(fp2.y) == pytest.approx(1 + math.sqrt(3))

    z3 = solve_characters(make_z3_ring())
    assert fp_character(z3) == 0


def _numpy_characters(ring):
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
    return sorted(out)


def test_character_oracle_equivalence_bound_10():
    """Exact characters match a floating simultaneous-diagonalization oracle
    to 1e-9 on every canonical parameter ring up to bound 10."""
    for params in enumerate_star_solutions(10):
        ring = make_rank3_ring(params)
        system = solve_characters(ring)
        exact = sorted((float(c.x), float(c.y)) for c in system.chars)
        oracle = _numpy_characters(ring)
        for (xa, ya), (xb, yb) in zip(exact, oracle):
            assert xa == pytest.approx(xb, abs=1e-9)
            assert ya == pytest.approx(yb, abs=1e-9)


def test_character_count_and_exact_relations_bound_10():
    """Every valid ring up to bound 10 has exactly 3 distinct characters and
    they satisfy the defining relations exactly (verified by the solver's
    internal modular reduction; re-checked here numerically as well)."""
    for params in enumerate_star_solutions(10):
        k, l, m, n = params.as_tuple()
        system = solve_characters(make_rank3_ring(params))
        assert len(system.chars) == 3
        seen = set()
        for c in system.chars:
            x, y = complex(float(c.x)), complex(float(c.y))
            seen.add((round(x.real, 9), round(y.real, 9)))
            assert x * x == pytest.approx(1 + m * x + k * y, abs=1e-9)
            assert y * y == pytest.approx(1 + l * x + n * y, abs=1e-9)
            assert x * y == pytest.approx(k * x + l * y, abs=1e-9)
        assert len(seen) == 3


def test_vieta_products():
    for params in enumerate_star_solutions(10):
        system = solve_characters(make_rank3_ring(params))
        px, py = vieta_products(system)
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
        system = solve_characters(make_rank3_ring(params))
        tag = galois_type(system).tag
        px, py = char_poly_x(params), char_poly_y(params)
        fully_rational = (
            len(rational_roots(px)) == 3 and len(rational_roots(py)) == 3
        )
        assert (tag == GaloisType.TRIVIAL) == fully_rational
        if tag == GaloisType.C3:
            for poly in (px, py):
                if not rational_roots(poly):
                    assert is_perfect_square(cubic_discriminant(poly))


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
