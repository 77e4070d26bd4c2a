"""Parameter enumeration, ring reports and the classification driver.

`classify_stream` enumerates the parameter family up to a bound, determines
the Galois orbit type of each ring, and runs the three independent
admissibility branches of `rules`: symmetric (`symmetric_filter`),
nonmodular (`nonmodular_filter`) and modular (the case rule that
`modular_branch` picks by Galois type).  A ring is admissible when one of
them passes.  It yields each ring's report as soon as it is decided, so a
caller that writes and drops them runs in constant memory; `classify_all`
keeps them all.

The nonmodular verdict reads the parameters alone.  Every other verdict is
read off the integer roots of char_poly_x (`characters.galois_type`): the
Galois type, the Perron-Frobenius root and, where they are rational, the
dimension y-value and case 3b's character.
Typing places only the dimension root.  Only the rings whose witnesses are
searched place the other two, once, and the search solves their characters
only when a candidate reaches exact certification.

Every verdict carries a machine-checkable certificate with the exact
intermediate quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import GaloisInfo, galois_type, solve_characters
from .exactnum import RootOfUnity
from .fusion import Rank3Params, canonicalize, make_rank3_ring, make_z3_ring, param_aliases
from .premodular import (
    SCAN_TOL, ExactContext, PremodularDatum, StructureClass, Twists, search_ribbon_data,
)
from .rules import (
    FilterVerdict, Verdict, landau_rule, modular_branch, nonmodular_filter, symmetric_filter,
)

LIMITATION_NOTE = (
    "Not reproducible at ring/data level: the count of exactly 7 fusion "
    "categories up to equivalence; equivalence classes of categories are "
    "beyond ring and data computations, and the reproducible target is the "
    "four-ring list together with data-level witnesses."
)


# ---------------------------------------------------------------------------
# Parameter enumeration
# ---------------------------------------------------------------------------

def enumerate_star_solutions(bound: int):
    """Yield the canonical (k,l,m,n) in [0,bound]^4 with k^2+l^2 = lm+kn+1,
    in increasing order.

    Canonical means (k,l,m,n) <= (l,k,n,m), so k <= l.  k = 0 forces l = 1
    and m = 0 with n free.  For k >= 1 the equation lm + kn = k^2+l^2-1 is
    linear in (m, n); gcd(k, l) divides lm + kn and k^2+l^2, so a solution
    needs l invertible mod k, and then m runs over one residue class mod k
    with n following.  That costs O(bound^2 log bound) plus the output, and
    each ring is met once, in order, so nothing is collected."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound >= 1:
        for n in range(bound + 1):
            yield Rank3Params(0, 1, 0, n)
    for k in range(1, bound + 1):
        for l in range(k, bound + 1):
            try:
                inverse = pow(l, -1, k)
            except ValueError:  # gcd(k, l) > 1
                continue
            target = k * k + l * l - 1
            residue = target * inverse % k
            low = max(0, -((k * bound - target) // l))  # n <= bound
            for m in range(low + (residue - low) % k, min(bound, target // l) + 1, k):
                n = (target - l * m) // k
                if k < l or m <= n:
                    yield Rank3Params(k, l, m, n)


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
        return out

    def table_row(self) -> str:
        wit = "-" if self.witnesses is None else str(len(self.witnesses))
        gal = self.galois.tag.value if self.galois else "-"
        return (
            f"{self.label:<14} {gal:<12} "
            f"{self.verdicts['symmetric'].status.value:<11} "
            f"{self.verdicts['nonmodular'].status.value:<12} "
            f"{self.verdicts['modular'].status.value + ' (' + self.modular_case + ')':<16} "
            f"{str(self.admissible):<10} {wit}"
        )


_TABLE_HEADER = (
    f"{'ring':<14} {'galois':<12} {'symmetric':<11} {'nonmodular':<12} "
    f"{'modular':<16} {'admissible':<10} witnesses"
)
# The table format: these lines, then one `RingReport.table_row` per ring.
TABLE_HEAD = "\n".join([LIMITATION_NOTE, "", _TABLE_HEADER, "-" * len(_TABLE_HEADER)])


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
        return "\n".join([TABLE_HEAD, *(r.table_row() for r in self.rings)])


def classify_ring(params: Rank3Params) -> RingReport:
    """Run all three branches on one parameter ring.  The modular branch runs
    the one case rule that the ring's Galois type selects.

    Every verdict is read off the factorization of char_poly_x that
    `galois_type` holds; no character is solved."""
    canon = canonicalize(params)
    info = galois_type(canon)
    verdicts = {
        "symmetric": symmetric_filter(canon, info),
        "nonmodular": nonmodular_filter(canon),
    }
    case_name, verdicts["modular"] = modular_branch(canon, info, verdicts["symmetric"])
    return RingReport(
        label=canon.name(),
        params=canon,
        aliases=param_aliases(canon),
        galois=info,
        verdicts=verdicts,
        modular_case=case_name,
        admissible=any(v.passed for v in verdicts.values()),
    )


def _z3_report(max_twist_order: int) -> RingReport:
    ring = make_z3_ring()
    system = solve_characters(ring)
    verdicts = {
        "symmetric": landau_rule(system.chars[0]),
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


def classify_stream(bound: int, max_twist_order: int = 60,
                    witness_all: bool = False) -> tuple:
    """The run's config, checked at once, and a generator of its ring
    reports: the Z/3 ring, then every canonical parameter ring up to `bound`
    in order, each yielded as soon as it is decided, with search witnesses
    attached to admissible rings (to all rings when `witness_all` is set).
    The generator keeps no report it has yielded."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    config = {
        "bound": bound,
        "max_twist_order": max_twist_order,
        "tol": SCAN_TOL,
        "witness_all": witness_all,
    }
    return config, _ring_reports(bound, max_twist_order, witness_all)


def _ring_reports(bound: int, max_twist_order: int, witness_all: bool):
    yield _z3_report(max_twist_order)
    for params in enumerate_star_solutions(bound):
        report = classify_ring(params)
        if report.admissible or witness_all:
            report.witnesses = search_ribbon_data(
                make_rank3_ring(report.params), max_twist_order,
                landau=report.verdicts["symmetric"], info=report.galois)
        yield report


def classify_all(bound: int, max_twist_order: int = 60,
                 witness_all: bool = False) -> ClassificationReport:
    """Every report of `classify_stream`, kept."""
    config, reports = classify_stream(bound, max_twist_order, witness_all)
    return ClassificationReport(rings=list(reports), config=config)
