"""Tests for the admissibility filters and the classification driver."""

import json
from fractions import Fraction

import pytest

from rank3ribbon.characters import GaloisType, galois_type, solve_characters
from rank3ribbon.classify import (
    LIMITATION_NOTE,
    classify_all,
    classify_ring,
    enumerate_star_solutions,
)
from rank3ribbon.fusion import Rank3Params, canonicalize, make_rank3_ring, make_z3_ring
from rank3ribbon.rules import (
    LANDAU_BOUND_3,
    Verdict,
    _integer_cube_root,
    audit_case3b_grid,
    audit_t_minus_one_family,
    case2_rule,
    case3a_rule,
    case3b_rule,
    landau_bound,
    landau_rule,
    symmetric_filter,
)


def _case3b(*params):
    p = Rank3Params(*params)
    return case3b_rule(p, galois_type(p))


# ---------------------------------------------------------------------------
# enumeration and the Landau bound
# ---------------------------------------------------------------------------

def test_enumerate_star_bound_one():
    sols = enumerate_star_solutions(1)
    assert [p.as_tuple() for p in sols] == [(0, 1, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1)]


def test_enumerate_star_raw_bound_one():
    raw = {
        (k, l, m, n)
        for k in range(2) for l in range(2) for m in range(2) for n in range(2)
        if Rank3Params(k, l, m, n).satisfies_star
    }
    assert raw == {
        (0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0),
        (1, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 0),
    }


def test_enumerate_star_bound_zero_empty():
    assert list(enumerate_star_solutions(0)) == []


def test_enumerate_star_bound_two():
    sols = [p.as_tuple() for p in enumerate_star_solutions(2)]
    assert (0, 1, 0, 2) in sols
    # canonical representative of the swap orbit of (2,1,2,1)
    assert (1, 2, 1, 2) in sols
    assert (2, 1, 2, 1) not in sols
    assert len(sols) == 6


def _cubic_star_solutions(bound):
    """The loop over all (k, l, m) in [0, bound]^3 that enumerated the star
    solutions before the linear solve: canonicalize every solution in the
    box, then sort the set."""
    seen = set()
    for k in range(bound + 1):
        for l in range(bound + 1):
            target = k * k + l * l - 1
            if target < 0:
                continue
            for m in range(bound + 1):
                rem = target - l * m
                if rem < 0:
                    continue
                if k == 0:
                    if rem == 0:
                        for n in range(bound + 1):
                            seen.add(canonicalize(Rank3Params(k, l, m, n)))
                    continue
                if rem % k == 0 and rem // k <= bound:
                    seen.add(canonicalize(Rank3Params(k, l, m, rem // k)))
    return sorted(seen)


def test_enumeration_equals_the_cubic_loop_up_to_bound_60():
    """The linear solve yields exactly the cubic loop's canonical rings, in
    strictly increasing order, at every bound 0..60; and every star solution
    in [0, B]^4, in either orientation, canonicalizes into its output."""
    raw = []  # every star solution in [0, 60]^4, both orientations
    for k in range(61):
        for l in range(61):
            for m in range(61):
                rest = k * k + l * l - l * m - 1
                if k == 0:
                    raw += [(0, l, m, n) for n in range(61)] if rest == 0 else []
                elif rest >= 0 and rest % k == 0 and rest // k <= 60:
                    raw.append((k, l, m, rest // k))
    for bound in range(61):
        sols = list(enumerate_star_solutions(bound))
        assert sols == _cubic_star_solutions(bound), bound
        tuples = [p.as_tuple() for p in sols]
        assert all(a < b for a, b in zip(tuples, tuples[1:])), bound
        found = set(sols)
        for p in raw:
            if max(p) <= bound:
                params = Rank3Params(*p)
                assert canonicalize(params) in found and canonicalize(params.swapped()) in found


def test_landau_bound():
    assert landau_bound(1) == 1
    assert landau_bound(2) == 2
    assert landau_bound(3) == 6  # solutions (3,3,3), (2,4,4), (2,3,6)
    assert LANDAU_BOUND_3 == landau_bound(3)


# ---------------------------------------------------------------------------
# symmetric filter
# ---------------------------------------------------------------------------

def test_symmetric_filter_z3():
    """Z/3 has no parameters: its symmetric verdict is the Landau rule on
    its solved dimension character, which the classification reports."""
    z3 = make_z3_ring()
    v = landau_rule(solve_characters(z3).chars[0])
    assert v.status == Verdict.PASS
    assert classify_all(1, max_twist_order=3).rings[0].verdicts["symmetric"] == v


def _symmetric(*params):
    p = Rank3Params(*params)
    return symmetric_filter(p, galois_type(p))


def test_symmetric_filter_rep_s3():
    v = _symmetric(0, 1, 0, 1)
    assert v.status == Verdict.PASS
    assert v.certificate["dims"] == ["1", "1", "2"]
    assert v.certificate["global_dim"] == "6"


def test_symmetric_filter_ising_fails_on_irrationality():
    v = _symmetric(0, 1, 0, 0)
    assert v.status == Verdict.FAIL
    assert v.certificate["nonintegral_value"]["minpoly"] == [-2, 0, 1]


# ---------------------------------------------------------------------------
# modular case filters
# ---------------------------------------------------------------------------

def test_case1():
    report = classify_ring(Rank3Params(0, 1, 0, 1))
    assert report.modular_case == "case1"
    assert report.verdicts["modular"].status == Verdict.PASS
    assert report.verdicts["modular"] == report.verdicts["symmetric"]
    assert classify_ring(Rank3Params(1, 1, 0, 1)).modular_case != "case1"


def test_no_trivial_ring_beyond_rep_s3_at_bound_20():
    trivial = [
        p for p in enumerate_star_solutions(20)
        if galois_type(p).tag == GaloisType.TRIVIAL
    ]
    assert [p.as_tuple() for p in trivial] == [(0, 1, 0, 1)]


def test_case2_rule_paper_orientation():
    v = case2_rule(Rank3Params(1, 1, 1, 0))
    assert v.status == Verdict.PASS
    assert v.certificate["lambda"] == 1
    assert v.certificate["eq2"] == {"lhs": "2", "rhs": "2"}
    assert v.certificate["eq3"] == {"lhs": "-1", "rhs": "-1"}


def test_case2_rule_canonical_orientation():
    v = case2_rule(Rank3Params(1, 1, 0, 1))
    assert v.status == Verdict.PASS
    assert v.certificate["lambda"] == 1


def test_case2_rule_irrational_lambda():
    # l*k = 2 forces an irrational cube root
    v = case2_rule(Rank3Params(1, 2, 0, 4))
    assert v.status == Verdict.FAIL
    assert "irrational" in v.certificate["failed"]


def test_integer_cube_root_is_exact_for_large_cubes():
    """A float cube root misses these: (10**45) ** (1/3) rounds to 10**15 - 2,
    and 10**400 overflows a float."""
    assert _integer_cube_root(10**45) == 10**15
    assert _integer_cube_root((2**60 + 3) ** 3) == 2**60 + 3
    assert _integer_cube_root((2**60 + 3) ** 3 - 1) is None
    assert _integer_cube_root(10**400) is None
    assert _integer_cube_root(10**399) == 10**133
    assert [_integer_cube_root(v) for v in (0, 1, 7, 8, 27)] == [0, 1, None, 2, 3]


def test_case2_rule_rational_lambda_of_large_cube():
    # K(10^45, 1, 10^90, 0) satisfies the star equation with l*k = 10^45,
    # so lambda = 10^15 is rational and the identities decide the verdict.
    v = case2_rule(Rank3Params(10**45, 1, 10**90, 0))
    assert v.certificate["lambda"] == 10**15
    assert v.certificate["failed"] == "symmetric-function identities do not hold"


def test_case2_rule_exception_branch():
    """m + l = 0 only on K(1,0,0,0) = K(0,1,0,0), which is C2-moving: it is
    dispatched to case 3b, and case 2 refuses it (its precondition k, l >= 1
    holds on every C3 ring)."""
    report = classify_ring(Rank3Params(1, 0, 0, 0))
    assert report.galois.tag == GaloisType.C2_MOVING_FP and report.modular_case == "case3b"
    with pytest.raises(ValueError, match="k, l >= 1"):
        case2_rule(Rank3Params(1, 0, 0, 0))


def test_case2_filter_dispatch():
    report = classify_ring(Rank3Params(1, 1, 0, 1))
    assert report.modular_case == "case2"
    assert report.verdicts["modular"].status == Verdict.PASS
    assert classify_ring(Rank3Params(0, 1, 0, 1)).modular_case != "case2"


def test_case2_constraint_identity():
    k, l, m, n = 1, 1, 1, 0
    assert (n * k - l * l - 1) + (m * l - k * k - 1) == -3


def test_case3a_rule():
    v = case3a_rule(Rank3Params(1, 1, 1, 0))
    assert v.status == Verdict.PASS
    assert v.certificate["proportionality_sides"] == [2, 1]
    assert not v.certificate["sides_equal"]

    v2 = case3a_rule(Rank3Params(2, 1, 2, 1))
    assert v2.status == Verdict.FAIL
    assert "k <= 1" in v2.certificate["failed"]


def test_case3a_filter_not_applicable():
    assert classify_ring(Rank3Params(0, 1, 0, 0)).modular_case != "case3a"
    # no order-two-fixing ring exists up to bound 20, so the dispatched rule
    # never fires; the rule-level checks above cover its logic
    fixing = [
        p for p in enumerate_star_solutions(20)
        if galois_type(p).tag == GaloisType.C2_FIXING_FP
    ]
    assert fixing == []


def test_case3b_rule_pass():
    v = _case3b(0, 1, 0, 0)
    assert v.status == Verdict.PASS
    assert (v.certificate["t"], v.certificate["s"]) == (-1, 0)
    assert v.certificate["branch"] == "s_zero"


def test_case3b_rule_fails_n2():
    v = _case3b(0, 1, 0, 2)
    assert v.status == Verdict.FAIL
    assert v.certificate["branch"] == "s_zero"
    assert "n = 2" in v.certificate["detail"]


def test_case3b_rule_t_minus_one_family():
    v = _case3b(2, 1, 2, 1)
    assert v.status == Verdict.FAIL
    assert (v.certificate["t"], v.certificate["s"]) == (-1, 1)
    assert v.certificate["branch"] == "t_minus_one"
    assert v.certificate.get("family_match") is True
    # canonical orientation routes through the swap
    v2 = _case3b(1, 2, 1, 2)
    assert v2.status == Verdict.FAIL
    assert v2.certificate["branch"] == "t_minus_one"


def test_case3b_rule_needs_c2_moving_type():
    p = Rank3Params(1, 1, 0, 1)
    with pytest.raises(ValueError, match="C2-moving"):
        case3b_rule(p, galois_type(p))


def test_case3b_filter_dispatch():
    report = classify_ring(Rank3Params(0, 1, 0, 0))
    assert report.modular_case == "case3b"
    assert report.verdicts["modular"].status == Verdict.PASS
    assert classify_ring(Rank3Params(0, 1, 0, 1)).modular_case != "case3b"


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_audit_case3b_grid_small():
    assert audit_case3b_grid(10, 10)
    assert audit_case3b_grid(0, 0)  # vacuously true


def test_audit_case3b_grid_single_point():
    # s=1, t=2: 1/4 + 1/4 + 8/5 + 4 > 1
    lhs = Fraction(1, 4) + Fraction(1, 4) + Fraction(8, 5) + 4
    assert lhs > 1
    assert audit_case3b_grid(1, 2)


def test_audit_t_minus_one_family():
    assert audit_t_minus_one_family(50)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report_bound2():
    return classify_all(2, max_twist_order=16)


def test_classify_bound2_admissible(report_bound2):
    assert report_bound2.admissible_labels == [
        "Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"
    ]
    assert report_bound2.modular_branch_survivors() == report_bound2.admissible_labels


def test_classify_bound2_fail_certificates(report_bound2):
    for ring in report_bound2.rings:
        if ring.admissible:
            continue
        for verdict in ring.verdicts.values():
            assert verdict.status in (Verdict.FAIL, Verdict.NOT_APPLICABLE)
            if verdict.status == Verdict.FAIL:
                assert verdict.certificate  # non-empty exact certificate


def test_classify_report_json(report_bound2):
    payload = report_bound2.to_json()
    assert payload["limitation"] == LIMITATION_NOTE
    assert "exactly 7" in payload["limitation"]
    text = json.dumps(payload)
    assert json.loads(text)["admissible"] == [
        "Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"
    ]
    k0100 = next(r for r in payload["rings"] if r["label"] == "K(0,1,0,0)")
    assert "K(1,0,0,0)" in k0100["alias"]
    assert k0100["witness_count"] == 16


def test_classify_table_render(report_bound2):
    table = report_bound2.render_table()
    assert "K(0,1,0,2)" in table
    assert LIMITATION_NOTE.splitlines()[0] in table


def _count_solves(monkeypatch):
    """Count character solves per ring, through every name `classify` and
    the search look the solver up by."""
    from collections import Counter

    from rank3ribbon import classify, premodular

    calls = Counter()

    def counting_solve(ring, info=None):
        calls[ring] += 1
        return solve_characters(ring, info)

    monkeypatch.setattr(classify, "solve_characters", counting_solve)
    monkeypatch.setattr(premodular, "solve_characters", counting_solve)
    return calls


def test_classify_all_solves_only_searched_rings(monkeypatch):
    """Triage reads every verdict from integers: without --witness-all only
    Z/3 and the three admissible rings, whose witnesses are searched, have
    their characters solved, once each."""
    calls = _count_solves(monkeypatch)
    report = classify_all(30, max_twist_order=16)
    assert len(report.rings) == 490
    assert set(calls) == {make_z3_ring()} | {
        make_rank3_ring(r.params) for r in report.rings if r.admissible and r.params
    }
    assert len(calls) == 4 and set(calls.values()) == {1}


def test_benchmark_commands_isolate_nothing(monkeypatch):
    """From cold caches of the cosine roots, the cyclotomic embeddings and
    the balls of the roots of unity, no root is isolated while
    classifying to bound 30, classifying to bound 10 with every witness at
    order 16, or searching K(0,1,0,0), K(0,1,0,1), K(1,1,0,1) and K(0,1,0,2)
    at order 100: every root these read is placed from its floats."""
    from rank3ribbon.exactnum import cyclotomic, realalg
    from rank3ribbon.premodular import search_ribbon_data

    isolated = []
    original = realalg.isolate_irreducible
    monkeypatch.setattr(realalg, "isolate_irreducible", lambda p: isolated.append(p) or original(p))
    search_rings = [(0, 1, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1), (0, 1, 0, 2)]
    runs = {
        "classify-b30": lambda: classify_all(30),
        "witness-all-b10-o16": lambda: classify_all(10, 16, witness_all=True),
        "search-o100": lambda: [
            search_ribbon_data(make_rank3_ring(Rank3Params(*p)), 100) for p in search_rings
        ],
    }
    for name, run in runs.items():
        for cache in (cyclotomic._cos_roots, cyclotomic._roots_in_cyclotomic_field,
                      cyclotomic._zeta_ball):
            cache.cache_clear()
        run()
        assert isolated == [], name


def test_classify_all_factors_and_isolates_each_ring_once(monkeypatch):
    """Triage and search share one reading of the integer roots of
    char_poly_x (`_integer_roots`) and one location of its irreducible rest,
    both made by `galois_type`: the top root of the rest is located alone
    (`largest_root`) and all its roots once more on the search's read
    (`roots_of_irreducible`), which an S3 ring, searched by no rule, never
    makes; they are placed on their nodes, and none is
    isolated, nor is `split_rational_roots` needed, on these rings.  Calls
    are counted through every name a module binds them to.  The char_poly_x
    of K(0,1,0,n) is (x - 1)^2 (x + 1) in closed form and is not factored;
    its y-values, the roots of y^2 - n y - 2, are located once for the
    typing, the nonmodular filter and the search together."""
    import sys
    from collections import Counter

    from rank3ribbon import characters, classify
    from rank3ribbon.characters import char_poly_x
    from rank3ribbon.exactnum import IntPoly, roots_of_irreducible
    from rank3ribbon.exactnum.intpoly import split_rational_roots
    from rank3ribbon.exactnum.realalg import isolate_irreducible, largest_root

    current = [None]  # the ring being classified, and then searched
    calls = Counter()

    def counted(name, original):
        def wrapper(p, *args):
            calls[name, current[0], p.primitive()] += 1
            return original(p, *args)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("rank3ribbon") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)

    # y^2 - 2 is also the minimal polynomial of 2cos(pi/4), whose roots the
    # search locates once per process, and of the generator of Q(sqrt 2),
    # which it embeds once per cyclotomic field; fill those caches with one
    # run before counting.
    classify_all(10, max_twist_order=16, witness_all=True)
    counted("_integer_roots", characters._integer_roots)
    counted("split_rational_roots", split_rational_roots)
    counted("largest_root", largest_root)
    counted("roots_of_irreducible", roots_of_irreducible)
    counted("isolate_irreducible", isolate_irreducible)
    original_ring = classify.classify_ring

    def on_ring(params):
        current[0] = params
        return original_ring(params)

    monkeypatch.setattr(classify, "classify_ring", on_ring)
    report = classify_all(10, max_twist_order=16, witness_all=True)
    rings = [r for r in report.rings if r.params is not None]
    assert len(rings) == 67 and all(r.witnesses is not None for r in rings)
    monkeypatch.undo()
    rests = ypolys = s3 = 0
    for r in rings:
        params = r.params
        xpoly = char_poly_x(params)
        assert calls["_integer_roots", params, xpoly] == min(params.k, 1), params
        assert calls["split_rational_roots", params, xpoly] == 0, params
        if params.k == 0 and params.n != 1:
            ypoly = IntPoly((-2, -params.n, 1))
            assert calls["roots_of_irreducible", params, ypoly] == 1, params
            assert calls["isolate_irreducible", params, ypoly] == 0, params
            ypolys += 1
        _roots, rest = split_rational_roots(xpoly)
        if rest.degree < 2:
            continue
        rest = rest.primitive()
        # A C2-fixing dimension root is the integer root.
        top_located = r.galois.tag != GaloisType.C2_FIXING_FP
        assert calls["largest_root", params, rest] == top_located, params
        searched = r.galois.tag != GaloisType.S3
        assert calls["roots_of_irreducible", params, rest] == searched, params
        assert calls["isolate_irreducible", params, rest] == 0, params
        rests += 1
        s3 += not searched
    assert rests == 56 and ypolys == 10 and s3 == 41


def test_classify_all_locates_a_y_value_only_where_it_is_read(monkeypatch):
    """An irrational y-value of a ring with k >= 1 is located as a root of
    char_poly_y only on its first exact read.  Searching every ring up to
    bound 10 at order 16 locates none: the screen reads floats of the
    generator through the reps, and exact certification reads the reps.
    Rendering the report reads the three characters of K(1,1,0,1), each the
    dimensions of a witness, and locates each once however often it is
    rendered.  Calls are counted through every name a module binds
    `from_poly_expr` to."""
    import sys
    from collections import Counter

    from rank3ribbon.characters import char_poly_y
    from rank3ribbon.exactnum.realalg import from_poly_expr

    calls = Counter()

    def wrapper(alpha, expr, poly):
        calls[poly] += 1
        return from_poly_expr(alpha, expr, poly)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("rank3ribbon") and vars(module).get("from_poly_expr") is from_poly_expr:
            monkeypatch.setattr(module, "from_poly_expr", wrapper)
    report = classify_all(10, max_twist_order=16, witness_all=True)
    ypolys = {char_poly_y(r.params): r.params for r in report.rings if r.params is not None}

    def located():
        return Counter({ypolys[p]: n for p, n in calls.items() if p in ypolys})

    assert located() == Counter()
    rendered = json.dumps(report.to_json())
    assert json.dumps(report.to_json()) == rendered
    target = Rank3Params(1, 1, 0, 1)
    (ring,) = [r for r in report.rings if r.params == target]
    assert {w.dims_index for w in ring.witnesses} == {0, 1, 2}
    assert located() == Counter({target: 3})


def test_integer_galois_type_matches_solved_system_bound_30():
    """Oracle for triage from integers: on every ring up to bound 30 the
    verdicts read off char_poly_x equal the ones the solved characters give.
    The symmetric verdict is the Landau rule on the solved dimension
    character, and so is case 1's; case 3b's (t, s) is the solved rational
    character."""
    for params in enumerate_star_solutions(30):
        system = solve_characters(make_rank3_ring(params))
        report = classify_ring(params)
        symmetric = landau_rule(system.chars[0]).to_json()
        assert report.verdicts["symmetric"].to_json() == symmetric, params
        modular = report.verdicts["modular"].certificate
        if report.galois.tag == GaloisType.TRIVIAL:
            assert modular == landau_rule(system.chars[0]).certificate, params
        if report.galois.tag == GaloisType.C2_MOVING_FP:
            (fixed,) = [c for c in system.chars if c.all_rational]
            assert (modular["t"], modular["s"]) == (fixed.x, fixed.y), params


def test_classify_bound_50_admits_exactly_the_four_rings():
    assert classify_all(50).admissible_labels == [
        "Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"
    ]


def test_galois_dispatch_total_bound_5():
    """Every ring receives exactly one applicable modular case."""
    for params in enumerate_star_solutions(5):
        report = classify_ring(params)
        assert report.galois.tag in GaloisType
        applicable = [
            name for name, v in report.verdicts.items()
            if name == "modular" and v.status != Verdict.NOT_APPLICABLE
        ]
        assert len(applicable) == 1


@pytest.mark.parametrize("params", [Rank3Params(0, 1, 0, 0), Rank3Params(0, 1, 0, 1)])
def test_nonmodular_verdict_independent_of_twist_order(params, report_bound2):
    """The nonmodular branch is decided from the integers alone; a small
    search order changes no verdict: K(0,1,0,1) passes, and K(0,1,0,0),
    whose fusion rules braid only modularly, fails."""
    low = next(r for r in classify_all(1, max_twist_order=2).rings if r.params == params)
    default = next(r for r in report_bound2.rings if r.params == params)
    expected = Verdict.PASS if params.n == 1 else Verdict.FAIL
    assert low.verdicts["nonmodular"].status == expected
    assert low.verdicts["nonmodular"].to_json() == default.verdicts["nonmodular"].to_json()


def test_nonmodular_pass_iff_a_proper_premodular_witness():
    """The nonmodular branch, checked against the data: on Z/3 and every
    ring up to bound 60, its verdict passes exactly where the degenerate
    search at order 60 finds a ProperPremodular witness, and every such
    witness carries that verdict's certificate.  That is K(0,1,0,1) alone."""
    from rank3ribbon.premodular import StructureClass, search_ribbon_data

    found = []
    for report in classify_all(60).rings:
        ring = make_z3_ring() if report.params is None else make_rank3_ring(report.params)
        verdict = report.verdicts["nonmodular"]
        proper = [w for w in search_ribbon_data(ring, 60, include_degenerate=True, info=report.galois)
                  if w.structure_class is StructureClass.PROPER_PREMODULAR]
        assert verdict.passed == bool(proper), report.label
        for w in proper:
            assert w.certificate["nonmodular_rule"] == verdict.certificate, report.label
        found += [report.label] * len(proper)
    assert found == ["K(0,1,0,1)"] * 2


def test_cross_validation_witnesses_bound_5():
    """Branch verdicts agree with witness existence: no failing ring has a
    witness and every passing ring has at least one (twist order <= 60)."""
    from rank3ribbon.premodular import search_ribbon_data

    for params in enumerate_star_solutions(5):
        report = classify_ring(params)
        witnesses = search_ribbon_data(make_rank3_ring(params), 60)
        if report.admissible:
            assert witnesses, params
        else:
            assert witnesses == [], params


def test_cross_validation_witnesses_bound_20():
    """The classification verdict agrees with witness existence on every
    ring up to bound 20.  Twist order 60 holds every twist order an
    admissible datum can have (`premodular.twist_table`), so a failing ring
    has no witness at any order."""
    from rank3ribbon.premodular import search_ribbon_data

    for params in enumerate_star_solutions(20):
        report = classify_ring(params)
        witnesses = search_ribbon_data(make_rank3_ring(params), 60)
        assert bool(witnesses) == report.admissible, params


def test_cross_validation_witnesses_bound_100():
    """Admissible iff at least one witness, on all 4,914 reports of the
    bound-100 classification with every ring searched at twist order 60,
    which holds every twist order an admissible datum can have."""
    report = classify_all(100, 60, witness_all=True)
    assert len(report.rings) == 4914
    for r in report.rings:
        assert bool(r.witnesses) == r.admissible, r.label


@pytest.mark.parametrize("order", [16, 60, 240])
def test_witnesses_are_galois_invariant_bound_20(order):
    """Two invariants of the Galois action, on every ring up to bound 20.
    Complex conjugation conjugates S, so each witness set is closed under
    (theta_1, theta_2) -> (conj theta_1, conj theta_2) on the same dimension
    character, which is real (on Z/3 only the trivial character carries
    witnesses).  An automorphism that moves one character to another maps
    the data of the first to data of the second, so the characters of one
    `galois.orbits` orbit carry equally many witnesses."""
    from collections import Counter

    total = 0
    for r in classify_all(20, order, witness_all=True).rings:
        data = {(w.dims_index, w.twists.theta[1], w.twists.theta[2]) for w in r.witnesses}
        assert {(i, t1.inverse(), t2.inverse()) for i, t1, t2 in data} == data, r.label
        counts = Counter(i for i, _, _ in data)
        for orbit in r.galois.orbits if r.galois else ():
            assert len({counts[i] for i in orbit}) == 1, r.label
        total += len(data)
    assert total == 26
