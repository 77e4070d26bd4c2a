"""Admissibility filters for rank-3 rings and the classification driver.

`classify_all` enumerates the parameter family up to a bound, determines
the Galois orbit type of each ring, and runs three independent
admissibility branches:

- symmetric: rank-1 data exist only on finite-group character rings
  (integer dimensions, total squared dimension within the Landau bound);
  `premodular.landau_rule` decides this on the dimension character, and the
  rational-spectrum modular case returns the same verdict;
- nonmodular: degenerate non-symmetric data force the (0,1,0,n) shape and an
  exact twist relation that bounds n;
- modular: one of four exact Diophantine filters, dispatched on the Galois
  type (rational spectrum, cyclic cubic, order-two fixing or moving the
  dimension character); a full symmetric-group Galois image fails the branch
  outright since the relevant Galois action is abelian.

Every verdict is read off one integer factorization of char_poly_x
(`characters.galois_type`): the Galois type, the Perron-Frobenius root and,
where they are rational, the dimension y-value and case 3b's character.
Typing locates only the dimension root.  Characters are solved only for the
rings whose witnesses are searched, and only they isolate the other two
roots, so each ring is factored once and isolated at most once.

Every verdict carries a machine-checkable certificate with the exact
intermediate quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import (
    CharacterSystem,
    GaloisInfo,
    GaloisType,
    _selfdual_characters,
    galois_type,
    solve_characters,
)
from .exactnum import IntPoly, RootOfUnity, isolate_real_roots
from .fusion import (
    FusionRing,
    Rank3Params,
    canonicalize,
    make_rank3_ring,
    make_z3_ring,
    param_aliases,
)
from .premodular import (
    SCAN_TOL,
    ExactContext,
    FilterVerdict,
    PremodularDatum,
    StructureClass,
    Twists,
    Verdict,
    _nonintegral_dimension,
    landau_rule,
    nonmodular_filter,
    search_ribbon_data,
)

LIMITATION_NOTE = (
    "Not reproducible at ring/data level: the count of exactly 7 fusion "
    "categories up to equivalence; equivalence classes of categories are "
    "beyond ring and data computations, and the reproducible target is the "
    "four-ring list together with data-level witnesses."
)


# ---------------------------------------------------------------------------
# Parameter enumeration and the Landau bound
# ---------------------------------------------------------------------------

def enumerate_star_solutions(bound: int) -> list[Rank3Params]:
    """All canonical (k,l,m,n) in [0,bound]^4 with k^2+l^2 = lm+kn+1."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
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


def landau_bound(num_classes: int) -> int:
    """Largest part over all solutions of 1 = 1/c_1 + ... + 1/c_r in positive
    integers: the classical bound on the order of a finite group with r
    conjugacy classes.  The number of solutions grows doubly exponentially
    with the class count, so counts above 6 are rejected."""
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if num_classes > 6:
        raise ValueError("num_classes above 6 makes the unit-fraction enumeration unreasonable")
    best = 0
    for sol in _unit_fraction_solutions(Fraction(1), num_classes, 1):
        best = max(best, max(sol))
    return best


def _unit_fraction_solutions(remaining: Fraction, parts: int, min_c: int):
    if parts == 1:
        if remaining > 0 and remaining.numerator == 1 and remaining.denominator >= min_c:
            yield (remaining.denominator,)
        return
    c = max(min_c, math.ceil(1 / remaining)) if remaining > 0 else None
    if c is None:
        return
    while Fraction(parts, c) >= remaining:
        tail = remaining - Fraction(1, c)
        if tail >= 0:
            for sol in _unit_fraction_solutions(tail, parts - 1, c):
                yield (c,) + sol
        c += 1


# ---------------------------------------------------------------------------
# Branch filters
# ---------------------------------------------------------------------------

def symmetric_filter(ring: FusionRing, system: CharacterSystem) -> FilterVerdict:
    """Admissibility of rank-1 (symmetric) data on this ring: `landau_rule`
    on the dimension character.

    No datum needs checking.  With every twist 1, S[i][j] = sum_k
    N[i*][j][k] d_k = d_i* d_j for any character d, so the dimension
    character with unit twists is always a symmetric rank-1 datum whose rows
    are characters, and the rule alone decides."""
    return landau_rule(system.chars[0])


def case2_rule(params: Rank3Params) -> FilterVerdict:
    """Cyclic-cubic branch: a positive rational lambda with lambda^3 = l*k
    must satisfy the two symmetric-function identities below.

    Precondition: k, l >= 1, which every C3 ring meets.  If k = 0, the star
    equation l^2 = lm + 1 gives l = 1 and m = 0, so char_poly_x = x^3 - x^2 -
    x + 1 = (x - 1)^2 (x + 1): every x-value is rational, every y-value is
    then quadratic at most, and the Galois image is not C3.  If l = 0 the
    swapped ring has k = 0, and the Galois type does not depend on the
    orientation.  (Equally: a canonical ring with l = 0 has k = 0, since
    (0, k, n, m) precedes (k, 0, m, n).)  So m + l and n + k are nonzero on
    every C3 ring; they vanish only on K(0,1,0,0) = K(1,0,0,0), which is
    C2-moving.
    """
    k, l, m, n = params.as_tuple()
    if k < 1 or l < 1:
        raise ValueError(f"case 2 needs k, l >= 1, as every C3 ring has; got {params.name()}")
    cert: dict = {"lk": l * k}
    lam = _integer_cube_root(l * k)
    if lam is None:
        cert["failed"] = f"lambda = (l*k)^(1/3) = {l*k}^(1/3) is irrational"
        return FilterVerdict(Verdict.FAIL, cert)
    cert["lambda"] = lam
    lhs2 = Fraction(m + l)
    rhs2 = Fraction(lam * (n * k - l * l - 1), -k)
    lhs3 = Fraction(m * l - k * k - 1)
    rhs3 = Fraction(lam * lam * (n + k), -k)
    cert["eq2"] = {"lhs": str(lhs2), "rhs": str(rhs2)}
    cert["eq3"] = {"lhs": str(lhs3), "rhs": str(rhs3)}
    if lhs2 == rhs2 and lhs3 == rhs3:
        return FilterVerdict(Verdict.PASS, cert)
    cert["failed"] = "symmetric-function identities do not hold"
    return FilterVerdict(Verdict.FAIL, cert)


def _integer_cube_root(v: int) -> int | None:
    """The integer c with c^3 = v, or None when v is not a perfect cube.

    Exact for any size: integer Newton steps from above converge to the
    floor of the real cube root."""
    if v < 0:
        return None
    if v == 0:
        return 0
    c = 1 << -(-v.bit_length() // 3)
    while True:
        nxt = (2 * c + v // (c * c)) // 3
        if nxt >= c:
            break
        c = nxt
    return c if c**3 == v else None


def case3a_rule(params: Rank3Params) -> FilterVerdict:
    """Order-two-fixing branch: divisibility forces k <= 1 and l <= 1, and a
    rationality refinement leaves only two parameter orbits.

    The proportionality identity (k^2 m + l^3) l = (k^3 + l^2 n) k is recorded
    in the certificate; on the surviving rings its two sides differ even
    though the divisibility conclusion holds, so it is reported but not used
    for exclusion.
    """
    k, l, m, n = params.as_tuple()
    lhs = (k * k * m + l**3) * l
    rhs = (k**3 + l * l * n) * k
    cert: dict = {
        "proportionality_sides": [lhs, rhs],
        "sides_equal": lhs == rhs,
    }
    if lhs != rhs:
        cert["note"] = (
            "proportionality sides disagree on this ring; the filter applies "
            "only the divisibility and rationality conclusions"
        )
    canon = canonicalize(params).as_tuple()
    cert["canonical"] = canon
    if k <= 1 and l <= 1 and canon in ((0, 1, 0, 1), (1, 1, 0, 1)):
        return FilterVerdict(Verdict.PASS, cert)
    if k > 1 or l > 1:
        cert["failed"] = f"divisibility forces k <= 1 and l <= 1; got k={k}, l={l}"
    else:
        cert["failed"] = "rationality refinement excludes this parameter orbit"
    return FilterVerdict(Verdict.FAIL, cert)


def case3b_rule(params: Rank3Params, info: GaloisInfo) -> FilterVerdict:
    """Order-two-moving branch: the fixed character has integer values (t, s),
    and the three exhaustive branches (grid impossibility; t = -1 family;
    s = 0 family) leave only the canonical ring (0,1,0,0).

    `info` is `galois_type(params)`: t is the rational root of char_poly_x
    and s = (t^2 - m t - 1)/k, or (t, s) = (-1, 0) on K(0,1,0,n); both are
    integers, as rational roots of the monic char_poly_x and char_poly_y."""
    if info.tag != GaloisType.C2_MOVING_FP:
        raise ValueError(f"case 3b applies to C2-moving rings; {params.name()} is {info.tag.value}")
    t = info.x_roots[0]  # -1 on K(0,1,0,n), whose x-roots are -1, 1, 1
    s = (t * t - params.m * t - 1) // params.k if params.k else 0
    canon = canonicalize(params)
    cert: dict = {"t": t, "s": s, "canonical": canon.as_tuple()}
    passed = canon.as_tuple() == (0, 1, 0, 0)

    # Orient so that the branch taxonomy matches: the swap X <-> Y exchanges
    # the roles of (t, s).
    for oriented, tt, ss in ((params, t, s), (params.swapped(), s, t)):
        if ss == 0 and oriented.k == 0:
            cert["branch"] = "s_zero"
            cert["detail"] = (
                "symmetry of the matrix forces the two conjugate y-values to be "
                f"opposite, hence n = 0; here n = {oriented.n}"
            )
            break
        if tt == -1:
            cert["branch"] = "t_minus_one"
            cert["detail"] = (
                f"the t = -1 family has parameters (2s, 1, 2s^2, s); the twist "
                f"bound forces 2s^2 < 2, impossible for s = {ss}"
            )
            if (oriented.k, oriented.l, oriented.m, oriented.n) == (
                2 * ss,
                1,
                2 * ss * ss,
                ss,
            ):
                cert["family_match"] = True
            break
    else:
        cert["branch"] = "grid"
        cert["detail"] = (
            f"integer point (t, s) = ({t}, {s}) with t^2 != 1 and s != 0 is "
            "excluded by the grid identity (left side exceeds the right side)"
        )
    return FilterVerdict(Verdict.PASS if passed else Verdict.FAIL, cert)


# ---------------------------------------------------------------------------
# Desk-scale audits of the two inequality arguments
# ---------------------------------------------------------------------------

def audit_case3b_grid(s_max: int, t_max: int) -> bool:
    """Exact sweep of the identity
        s^2/t^2 + 1/t^2 + 2t^2/(t^2+1) + t^2/s^2 = 1/s^2
    over 1 <= s <= s_max, 2 <= |t| <= t_max: true iff it has no solutions
    (the left side minus the right side is positive everywhere)."""
    if s_max < 0 or t_max < 0:
        raise ValueError("bounds must be nonnegative")
    for s in range(1, s_max + 1):
        s2 = Fraction(s * s)
        for t in range(2, t_max + 1):
            t2 = Fraction(t * t)
            lhs = s2 / t2 + 1 / t2 + 2 * t2 / (t2 + 1) + t2 / s2
            rhs = 1 / s2
            if lhs - rhs <= 0:
                return False
    return True


def audit_t_minus_one_family(s_max: int) -> bool:
    """For 1 <= s <= s_max, verify exactly that the positive root y1 of
    y^2 - 2sy - 2 satisfies y1 > 2s and s*y1 > 2: the twist relation
    |s*y1| <= 2 is therefore impossible for s >= 1."""
    for s in range(1, s_max + 1):
        poly = IntPoly((-2, -2 * s, 1))
        y1 = isolate_real_roots(poly)[-1].value
        if not (y1 > 2 * s):
            return False
        if not (y1 > Fraction(2, s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class RingReport:
    label: str
    params: Rank3Params | None
    aliases: list[str]
    galois: GaloisInfo | None
    verdicts: dict[str, FilterVerdict]
    modular_case: str
    admissible: bool
    witnesses: list[PremodularDatum] | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "params": list(self.params.as_tuple()) if self.params else None,
            "alias": self.aliases,
            "galois": self.galois.tag.value if self.galois else None,
            "galois_orbits": [list(o) for o in self.galois.orbits] if self.galois else None,
            "verdicts": {k: v.to_json() for k, v in self.verdicts.items()},
            "modular_case": self.modular_case,
            "admissible": self.admissible,
        }
        if self.witnesses is not None:
            out["witnesses"] = [w.to_json() for w in self.witnesses]
            out["witness_count"] = len(self.witnesses)
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class ClassificationReport:
    rings: list[RingReport]
    config: dict

    @property
    def admissible_labels(self) -> list[str]:
        return [r.label for r in self.rings if r.admissible]

    def modular_branch_survivors(self) -> list[str]:
        return [r.label for r in self.rings if r.verdicts["modular"].passed]

    def to_json(self) -> dict:
        return {
            "limitation": LIMITATION_NOTE,
            "config": self.config,
            "rings": [r.to_json() for r in self.rings],
            "admissible": self.admissible_labels,
        }

    def render_table(self) -> str:
        lines = [LIMITATION_NOTE, ""]
        header = f"{'ring':<14} {'galois':<12} {'symmetric':<11} {'nonmodular':<12} {'modular':<16} {'admissible':<10} witnesses"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rings:
            wit = "-" if r.witnesses is None else str(len(r.witnesses))
            gal = r.galois.tag.value if r.galois else "-"
            lines.append(
                f"{r.label:<14} {gal:<12} "
                f"{r.verdicts['symmetric'].status.value:<11} "
                f"{r.verdicts['nonmodular'].status.value:<12} "
                f"{r.verdicts['modular'].status.value + ' (' + r.modular_case + ')':<16} "
                f"{str(r.admissible):<10} {wit}"
            )
        return "\n".join(lines)


def classify_ring(params: Rank3Params) -> RingReport:
    """Run all three branches on one parameter ring.  The modular branch runs
    the one case rule that the ring's Galois type selects.

    Every verdict is read off the factorization of char_poly_x that
    `galois_type` holds; no character is solved."""
    canon = canonicalize(params)
    info = galois_type(canon)
    verdicts = {
        "symmetric": _dimension_verdict(canon, info),
        "nonmodular": nonmodular_filter(canon, info),
    }
    if info.tag == GaloisType.TRIVIAL:  # integer values: the Landau rule decides
        case_name, verdicts["modular"] = "case1", verdicts["symmetric"]
    elif info.tag == GaloisType.C3:
        case_name, verdicts["modular"] = "case2", case2_rule(canon)
    elif info.tag == GaloisType.C2_FIXING_FP:
        case_name, verdicts["modular"] = "case3a", case3a_rule(canon)
    elif info.tag == GaloisType.C2_MOVING_FP:
        case_name, verdicts["modular"] = "case3b", case3b_rule(canon, info)
    else:
        case_name = "none"
        verdicts["modular"] = FilterVerdict(
            Verdict.FAIL,
            {"failed": "Galois image is the full symmetric group; the Galois action on modular data is abelian"},
        )
    admissible = any(v.passed for v in verdicts.values())
    report = RingReport(
        label=canon.name(),
        params=canon,
        aliases=param_aliases(canon),
        galois=info,
        verdicts=verdicts,
        modular_case=case_name,
        admissible=admissible,
    )
    if verdicts["nonmodular"].passed:
        report.notes.append(
            "nonmodular branch is conditional on the cited structure result for "
            "degenerate braidings (two-object symmetric subring)"
        )
    return report


def _dimension_verdict(params: Rank3Params, info: GaloisInfo) -> FilterVerdict:
    """`landau_rule` on the dimension character, built alone from its root
    `info.top`; when k >= 1 and that root x of char_poly_x is irrational,
    x fails the rule alone."""
    top = info.top
    if params.k and not top.is_rational:
        return _nonintegral_dimension(top)
    (dims,) = _selfdual_characters(params, (top,))
    return landau_rule(dims)


def _z3_report(max_twist_order: int) -> RingReport:
    ring = make_z3_ring()
    system = solve_characters(ring)
    verdicts = {
        "symmetric": symmetric_filter(ring, system),
        "nonmodular": FilterVerdict(
            Verdict.NOT_APPLICABLE, {"reason": "group ring handled by the rank-3 dichotomy"}
        ),
    }
    # Exact modular witness: equal primitive cube-root twists on the
    # nontrivial elements give a nondegenerate matrix with admissible
    # indicators (the cyclotomic character-table datum).
    w = RootOfUnity.make(1, 3)
    ctx = ExactContext(ring, system.chars[0], Twists.of(w, w))
    fs = ctx.fs_indicators()
    assert ctx.is_symmetric() and ctx.structure_class() == StructureClass.MODULAR and fs is not None
    verdicts["modular"] = FilterVerdict(
        Verdict.PASS,
        {
            "witness": "equal primitive cube-root twists on the dimension character",
            "fs_indicators": fs,
        },
    )
    return RingReport(
        label="Z/3",
        params=None,
        aliases=["K(Rep(Z/3))"],
        galois=None,
        verdicts=verdicts,
        modular_case="group-ring",
        admissible=True,
        witnesses=search_ribbon_data(
            ring, max_twist_order, system=system, landau=verdicts["symmetric"]),
    )


def classify_all(bound: int, max_twist_order: int = 60,
                 witness_all: bool = False) -> ClassificationReport:
    """Classify the Z/3 ring and every canonical parameter ring up to `bound`,
    attaching search witnesses to admissible rings (to all rings when
    `witness_all` is set)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rings: list[RingReport] = []
    rings.append(_z3_report(max_twist_order))
    for params in enumerate_star_solutions(bound):
        report = classify_ring(params)
        if report.admissible or witness_all:
            ring = make_rank3_ring(report.params)
            system = solve_characters(ring, report.galois)
            report.witnesses = search_ribbon_data(
                ring, max_twist_order, system=system, landau=report.verdicts["symmetric"])
        rings.append(report)
    config = {
        "bound": bound,
        "max_twist_order": max_twist_order,
        "tol": SCAN_TOL,
        "witness_all": witness_all,
    }
    return ClassificationReport(rings=rings, config=config)
