"""Tests for rank-3 based rings and their enumeration."""

from itertools import product

import pytest

from rank3ribbon.characters import solve_characters
from rank3ribbon.fusion import (
    Rank3Params,
    StarViolation,
    canonicalize,
    check_based_axioms,
    enumerate_rank3_based_rings,
    global_fp_dim,
    make_rank3_ring,
    make_z3_ring,
    param_aliases,
    rank3_tensor,
)


def test_star_constraint():
    assert Rank3Params(0, 1, 0, 1).satisfies_star
    assert not Rank3Params(1, 1, 2, 0).satisfies_star


def test_make_rank3_ring_tables():
    ring = make_rank3_ring(Rank3Params(0, 1, 0, 1))
    # X^2 = 1, Y^2 = 1 + X + Y, XY = Y
    assert ring.N[1][1] == (1, 0, 0)
    assert ring.N[2][2] == (1, 1, 1)
    assert ring.N[1][2] == (0, 0, 1)
    ring2 = make_rank3_ring(Rank3Params(1, 0, 0, 0))
    # X^2 = 1 + Y, Y^2 = 1, XY = X
    assert ring2.N[1][1] == (1, 0, 1)
    assert ring2.N[2][2] == (1, 0, 0)
    assert ring2.N[1][2] == (0, 1, 0)


def test_make_rank3_ring_refuses_star_violation():
    with pytest.raises(StarViolation):
        make_rank3_ring(Rank3Params(1, 1, 2, 0))


def test_z3_ring():
    z3 = make_z3_ring()
    # product of the two non-unit elements is the unit
    assert z3.N[1][2][0] == 1
    # dual involution swaps indices 1 and 2
    assert z3.dual == (0, 2, 1)
    assert z3.axiom_report().all_ok


def test_check_axioms_pass():
    report = check_based_axioms(rank3_tensor(Rank3Params(0, 1, 0, 0)), (0, 1, 2))
    assert report.all_ok and report.first_violation is None


def test_check_axioms_star_violation_breaks_associativity():
    report = check_based_axioms(rank3_tensor(Rank3Params(1, 1, 2, 0)), (0, 1, 2))
    assert not report.associativity_ok
    assert report.first_violation[0] == "associativity"


def test_check_axioms_duality_failure():
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    report = check_based_axioms(tensor, (0, 1, 2))
    assert not report.duality_ok


def test_rank3_tensor_satisfies_the_axioms_for_every_star_solution():
    """The proof that `make_rank3_ring` needs no run-time axiom check.

    Every entry of `rank3_tensor` has degree <= 1 in each of k, l, m, n, so
    an associativity defect sum_t N[i][j][t] N[t][k][s] - sum_t N[j][k][t]
    N[i][t][s] has degree <= 2 in each, as does star = k^2 + l^2 - lm - kn
    - 1.  Two such polynomials that agree on the grid {0,1,2}^4, three
    points per variable, are equal.  On the grid each defect is c * star
    for one c in {0, +-1} per index tuple, so that identity holds for all
    parameters, and every star solution is associative.  Unit, duality and
    involution compare entries of degree <= 1 with constants or with each
    other, so holding on the grid they hold for every parameter tuple."""
    grid = list(product(range(3), repeat=4))
    factors: dict = {}
    for k, l, m, n in grid:
        N = rank3_tensor(Rank3Params(k, l, m, n))
        report = check_based_axioms(N, (0, 1, 2))
        assert report.unit_ok and report.duality_ok and report.involution_ok
        star = k * k + l * l - l * m - k * n - 1
        for i, j, a, s in product(range(3), repeat=4):
            lhs = sum(N[i][j][t] * N[t][a][s] for t in range(3))
            rhs = sum(N[j][a][t] * N[i][t][s] for t in range(3))
            if star:
                assert (lhs - rhs) % star == 0
                factors.setdefault((i, j, a, s), set()).add((lhs - rhs) // star)
            else:
                assert lhs == rhs
    assert len(factors) == 3**4
    assert all(len(c) == 1 and c <= {0, 1, -1} for c in factors.values())
    assert {c for cs in factors.values() for c in cs} == {0, 1, -1}


def test_star_iff_associativity_exhaustive():
    """For all parameters <= 10 the multiplication table is associative
    exactly when the star constraint holds."""
    for k, l, m, n in product(range(11), repeat=4):
        p = Rank3Params(k, l, m, n)
        report = check_based_axioms(rank3_tensor(p), (0, 1, 2))
        assert report.associativity_ok == p.satisfies_star, p


def test_canonicalize():
    assert canonicalize(Rank3Params(1, 0, 0, 0)) == Rank3Params(0, 1, 0, 0)
    assert canonicalize(Rank3Params(0, 1, 0, 1)) == Rank3Params(0, 1, 0, 1)
    assert canonicalize(Rank3Params(1, 1, 1, 0)) == Rank3Params(1, 1, 0, 1)


def test_canonicalize_idempotent_and_isomorphism():
    for k, l, m, n in product(range(5), repeat=4):
        p = Rank3Params(k, l, m, n)
        if not p.satisfies_star:
            continue
        c = canonicalize(p)
        assert canonicalize(c) == c
        # The swap X <-> Y is a ring isomorphism: relabeled tensors agree.
        t = rank3_tensor(p)
        perm = (0, 2, 1)
        relabeled = tuple(
            tuple(tuple(t[perm[i]][perm[j]][perm[kk]] for kk in range(3)) for j in range(3))
            for i in range(3)
        )
        assert relabeled == rank3_tensor(p.swapped())


def test_param_aliases():
    assert param_aliases(Rank3Params(1, 1, 1, 0)) == ["K(1,1,0,1)", "K(1,1,1,0)"]
    assert param_aliases(Rank3Params(0, 1, 0, 0)) == ["K(0,1,0,0)", "K(1,0,0,0)"]


def test_enumerate_bound_one():
    """At coefficient bound 1 the audit finds exactly the Z/3 ring plus the
    three canonical self-dual parameter rings."""
    rings = enumerate_rank3_based_rings(1)
    assert len(rings) == 4
    z3_like = [r for r in rings if r.dual == (0, 2, 1)]
    assert len(z3_like) == 1
    assert z3_like[0].N == make_z3_ring().N
    selfdual = [r for r in rings if r.dual == (0, 1, 2)]
    tensors = {r.N for r in selfdual}
    expected = {
        rank3_tensor(Rank3Params(0, 1, 0, 0)),
        rank3_tensor(Rank3Params(0, 1, 0, 1)),
        rank3_tensor(Rank3Params(1, 1, 0, 1)),
    }
    assert tensors == expected


def test_enumerate_bound_zero_empty():
    # The unit coefficient of X^2 (and of g * g^2) is forced to 1, so no
    # nonzero multiplication survives a bound of 0.
    assert enumerate_rank3_based_rings(0) == []


def test_enumerate_rejects_large_bound():
    with pytest.raises(ValueError):
        enumerate_rank3_based_rings(4)


def _dimension_character(ring):
    return solve_characters(ring).chars[0]


def test_fp_dimensions():
    dims = _dimension_character(make_rank3_ring(Rank3Params(0, 1, 0, 1)))
    assert [dims.value(j).rational_value for j in range(3)] == [1, 1, 2]
    dims2 = _dimension_character(make_rank3_ring(Rank3Params(0, 1, 0, 0)))
    assert dims2.value(0).rational_value == 1 and dims2.x.rational_value == 1
    assert dims2.y.minpoly.coeffs == (-2, 0, 1)
    dims3 = _dimension_character(make_z3_ring())
    assert all(dims3.value(j).is_one for j in range(3))


def test_fp_dimensions_at_least_one():
    for k, l, m, n in product(range(4), repeat=4):
        p = Rank3Params(k, l, m, n)
        if not p.satisfies_star:
            continue
        dims = _dimension_character(make_rank3_ring(p))
        for j in range(3):
            assert dims.value(j) >= 1


def test_global_fp_dim():
    assert global_fp_dim(solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 1)))) == 6
    assert global_fp_dim(solve_characters(make_z3_ring())) == 3
    assert global_fp_dim(solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 0)))) == 4


def test_ring_json_roundtrip_shape():
    ring = make_rank3_ring(Rank3Params(0, 1, 0, 1))
    data = ring.to_json()
    assert data["rank"] == 3
    assert data["dual"] == [0, 1, 2]
    assert data["N"][2][2] == [1, 1, 1]
    z3 = make_z3_ring().to_json()
    assert z3["dual"] == [0, 2, 1]
