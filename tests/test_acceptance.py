"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import contextlib
import math
import time
from itertools import product

import numpy as np
import pytest

from rank3ribbon.characters import (
    GaloisType,
    char_poly_x,
    char_poly_y,
    galois_type,
    solve_characters,
)
from rank3ribbon.classify import LIMITATION_NOTE, classify_all, enumerate_star_solutions
from rank3ribbon.exactnum import (
    RootOfUnity,
    cubic_discriminant,
    is_perfect_square,
)
from rank3ribbon.fusion import (
    Rank3Params,
    check_based_axioms,
    enumerate_rank3_based_rings,
    global_fp_dim,
    make_rank3_ring,
    make_z3_ring,
    rank3_tensor,
)
from rank3ribbon.premodular import (
    ExactContext,
    StructureClass,
    Twists,
    build_s_matrix,
    search_ribbon_data,
)
from rank3ribbon.rules import Verdict, audit_case3b_grid, case2_rule, landau_bound

EXPECTED_ADMISSIBLE = ["Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"]


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


@pytest.fixture(scope="module")
def bound20_report():
    start = time.monotonic()
    report = classify_all(20, max_twist_order=60)
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_1_full_classification(bound20_report):
    report, elapsed = bound20_report
    with criterion(1, "classification at bound 20, twist order 60, reproduces the four-ring list"):
        assert report.admissible_labels == EXPECTED_ADMISSIBLE
        assert elapsed < 60.0, f"classification took {elapsed:.1f}s (limit 60s)"
        # every excluded ring fails each applicable branch with a non-empty
        # exact certificate
        for ring in report.rings:
            if ring.admissible:
                continue
            for verdict in ring.verdicts.values():
                assert verdict.status in (Verdict.FAIL, Verdict.NOT_APPLICABLE)
                if verdict.status == Verdict.FAIL:
                    assert verdict.certificate


def test_criterion_2_modular_branch(bound20_report):
    report, _ = bound20_report
    with criterion(2, "modular-branch survivors at bound 20 with the swap alias recorded"):
        assert report.modular_branch_survivors() == EXPECTED_ADMISSIBLE
        k0100 = next(r for r in report.rings if r.label == "K(0,1,0,0)")
        assert "K(1,0,0,0)" in k0100.aliases


def test_criterion_3_excluded_ring():
    with criterion(3, "K(0,1,0,2) fails every branch and has no witnesses at order 60"):
        from rank3ribbon.classify import classify_ring

        report = classify_ring(Rank3Params(0, 1, 0, 2))
        assert not report.admissible
        for verdict in report.verdicts.values():
            assert verdict.status in (Verdict.FAIL, Verdict.NOT_APPLICABLE)
        start = time.monotonic()
        witnesses = search_ribbon_data(make_rank3_ring(Rank3Params(0, 1, 0, 2)), 60)
        elapsed = time.monotonic() - start
        assert witnesses == []
        assert elapsed < 30.0, f"search took {elapsed:.1f}s (limit 30s)"


def test_criterion_4_ising_witnesses():
    with criterion(4, "Ising-type witnesses: twist -1 on X, primitive 16th roots on Y, modular"):
        ring = make_rank3_ring(Rank3Params(0, 1, 0, 0))
        witnesses = search_ribbon_data(ring, 16)
        assert witnesses, "expected a nonempty witness list"
        for w in witnesses:
            assert w.twists.theta[1] == RootOfUnity.make(1, 2)
            assert w.twists.theta[2].order == 16  # primitive 16th root
            assert w.structure_class == StructureClass.MODULAR
            c = [[w.smatrix.entry(i, j).center_complex() for j in range(3)] for i in range(3)]
            y = c[0][2]
            assert abs(y * y - 2) < 1e-9  # y = +-sqrt(2)
            shape = [[1, 1, y], [1, 1, -y], [y, -y, 0]]
            for i in range(3):
                for j in range(3):
                    assert abs(c[i][j] - shape[i][j]) < 1e-9
            assert abs(c[2][2]) < 1e-9  # zero corner


def test_criterion_5_symmetric_witness():
    with criterion(5, "rank-1 witness on K(0,1,0,1): all 2x2 minors below 1e-9"):
        ring = make_rank3_ring(Rank3Params(0, 1, 0, 1))
        system = solve_characters(ring)
        dims = system.chars[0]
        assert [float(dims.value(j)) for j in range(3)] == [1.0, 1.0, 2.0]
        ctx = ExactContext(ring, dims, Twists.of(RootOfUnity.one(), RootOfUnity.one()))
        assert ctx.structure_class() == StructureClass.SYMMETRIC
        sm = build_s_matrix(ctx)
        c = [[sm.entry(i, j).center_complex() for j in range(3)] for i in range(3)]
        for r1, r2 in ((0, 1), (0, 2), (1, 2)):
            for c1, c2 in ((0, 1), (0, 2), (1, 2)):
                minor = c[r1][c1] * c[r2][c2] - c[r1][c2] * c[r2][c1]
                assert abs(minor) < 1e-9


def test_criterion_6_case2_certificate():
    with criterion(6, "cyclic-cubic certificate for (1,1,1,0): lambda = 1, discriminant 49"):
        verdict = case2_rule(Rank3Params(1, 1, 1, 0))
        assert verdict.status == Verdict.PASS
        assert verdict.certificate["lambda"] == 1
        assert verdict.certificate["eq2"]["lhs"] == verdict.certificate["eq2"]["rhs"]
        assert verdict.certificate["eq3"]["lhs"] == verdict.certificate["eq3"]["rhs"]
        disc = cubic_discriminant(char_poly_x(Rank3Params(1, 1, 1, 0)))
        assert disc == 49 and is_perfect_square(disc)
        info = galois_type(Rank3Params(1, 1, 1, 0))
        assert info.tag == GaloisType.C3


def test_criterion_7_landau():
    with criterion(7, "Landau bound 6 for three classes; K(0,1,0,1) saturates it"):
        assert landau_bound(3) == 6
        system = solve_characters(make_rank3_ring(Rank3Params(0, 1, 0, 1)))
        assert global_fp_dim(system) == 6


def test_criterion_8_property_suites(bound20_report):
    report, _ = bound20_report
    with criterion(8, "property suites: star/associativity, oracle, Vieta, grid, audit, abelian image"):
        # (a) star constraint <=> associativity for all parameters <= 10
        for k, l, m, n in product(range(11), repeat=4):
            p = Rank3Params(k, l, m, n)
            assert check_based_axioms(rank3_tensor(p), (0, 1, 2)).associativity_ok == p.satisfies_star

        # (b) character oracle equivalence at 1e-9 for all solutions <= 10
        for params in enumerate_star_solutions(10):
            ring = make_rank3_ring(params)
            system = solve_characters(ring)
            exact = sorted((float(c.x), float(c.y)) for c in system.chars)
            m1 = np.array(ring.mult_matrix(1), dtype=float)
            m2 = np.array(ring.mult_matrix(2), dtype=float)
            _vals, vecs = np.linalg.eig(m1 + math.pi * m2)
            oracle = []
            for idx in range(3):
                v = vecs[:, idx]
                i0 = int(np.argmax(np.abs(v)))
                oracle.append((((m1 @ v)[i0] / v[i0]).real, ((m2 @ v)[i0] / v[i0]).real))
            for (xa, ya), (xb, yb) in zip(exact, sorted(oracle)):
                assert abs(xa - xb) < 1e-9 and abs(ya - yb) < 1e-9

            # (c) Vieta products, exactly
            px, py = -char_poly_x(params).coeffs[0], -char_poly_y(params).coeffs[0]
            assert px == -params.l and py == -params.k

        # (d) grid audit
        assert audit_case3b_grid(50, 50)

        # (e) brute-force enumeration at coefficient bound 1
        rings = enumerate_rank3_based_rings(1)
        assert len(rings) == 4
        tensors = {r.N for r in rings if r.dual == (0, 1, 2)}
        assert tensors == {
            rank3_tensor(Rank3Params(0, 1, 0, 0)),
            rank3_tensor(Rank3Params(0, 1, 0, 1)),
            rank3_tensor(Rank3Params(1, 1, 0, 1)),
        }
        assert any(r.N == make_z3_ring().N for r in rings)

        # (f) no ring with full symmetric Galois image passes the modular branch
        s3_rings = [r for r in report.rings if r.galois and r.galois.tag == GaloisType.S3]
        assert s3_rings, "expected S3-type rings at bound 20"
        for r in s3_rings:
            assert r.verdicts["modular"].status == Verdict.FAIL


def test_criterion_9_limitation_note(bound20_report):
    report, _ = bound20_report
    with criterion(9, "report header states the category-count limitation"):
        payload = report.to_json()
        assert payload["limitation"] == LIMITATION_NOTE
        assert "exactly 7" in payload["limitation"]
        assert "beyond ring and data computations" in payload["limitation"]
        table = report.render_table()
        assert table.startswith(LIMITATION_NOTE)
