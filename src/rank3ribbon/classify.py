"""Parameter enumeration, ring reports and the classification driver.

`classify_all` enumerates the parameter family up to a bound, determines
the Galois orbit type of each ring, and runs the three independent
admissibility branches of `rules`: symmetric (`symmetric_filter`),
nonmodular (`nonmodular_filter`) and modular (the case rule that
`modular_branch` picks by Galois type).  A ring is admissible when one of
them passes.

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

from dataclasses import dataclass, field

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
        "symmetric": symmetric_filter(canon, info),
        "nonmodular": nonmodular_filter(canon, info),
    }
    case_name, verdicts["modular"] = modular_branch(canon, info, verdicts["symmetric"])
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
