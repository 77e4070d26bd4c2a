"""Timing wrappers around the public functions of each rank3ribbon layer,
and the per-layer metrics derived from the spans they record.

Wrappers go on the names callers actually look up: a function imported with
`from .x import f` is patched in the importing module as well as its home
module.  The case filters reached through `classify._MODULAR_DISPATCH` are
left alone (that private table holds direct references), so their time is
part of `classify.ring_self_s`.
"""

from __future__ import annotations

import json
import math
import types
from collections import Counter

from spans import Patcher, Recorder

LAYERS = ("cli", "classify", "fusion", "characters", "exactnum", "premodular")

EXACT_CHECKS = (
    "is_symmetric", "unit_row_ok", "rows_are_characters", "det", "rank_is_one",
    "structure_class", "global_dim_sq", "fs_indicator_sums", "fs_indicators",
)

GALOIS_METRICS = {
    "Trivial": "trivial", "C3": "c3", "C2FixingFP": "c2_fixing",
    "C2MovingFP": "c2_moving", "S3": "s3",
}

# Per-layer metrics in the order they are reported, with units.  The run
# adds `trace.overhead_s` (traced minus untraced wall time).
PER_LAYER = [
    ("characters.solve_calls", "count"),
    ("characters.solve_s", "s"),
    ("characters.galois_calls", "count"),
    ("characters.galois_s", "s"),
    *[(f"characters.galois.{v}", "count") for v in GALOIS_METRICS.values()],
    ("exactnum.isolate_calls", "count"),
    ("exactnum.isolate_s", "s"),
    ("exactnum.from_poly_expr_calls", "count"),
    ("exactnum.from_poly_expr_s", "s"),
    ("exactnum.refine_calls", "count"),
    ("exactnum.refine_s", "s"),
    ("exactnum.float_s", "s"),
    ("exactnum.roots_table_s", "s"),
    ("premodular.search_calls", "count"),
    ("premodular.search_s", "s"),
    ("premodular.search_self_s", "s"),
    ("premodular.exact_contexts", "count"),
    ("premodular.exact_s", "s"),
    ("premodular.witnesses", "count"),
    ("premodular.cert_yield", "ratio"),
    ("premodular.smatrix_calls", "count"),
    ("premodular.smatrix_s", "s"),
    ("classify.enumerate_s", "s"),
    ("classify.rings", "count"),
    ("classify.filters_s", "s"),
    ("classify.ring_self_s", "s"),
    ("classify.ring_ms_p50", "ms"),
    ("classify.ring_ms_tail", "ms"),
    ("classify.ring_ms_tail_pct", "pct"),
    ("classify.admissible", "count"),
    ("fusion.make_ring_calls", "count"),
    ("fusion.make_ring_s", "s"),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
]


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class LayerTrace:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.recorder = Recorder()
        self.patcher = Patcher(self.recorder)
        self.witnesses = 0
        self.admissible = 0
        self.galois: Counter = Counter()

    def _on_search(self, result) -> None:
        self.witnesses += len(result)

    def _on_ring(self, report) -> None:
        self.admissible += bool(report.admissible)
        if report.galois is not None:
            self.galois[report.galois.tag.value] += 1

    def install(self) -> None:
        from rank3ribbon import characters, classify, cli, exactnum, fusion, premodular
        from rank3ribbon.exactnum import cyclotomic, realalg

        wrap = self.patcher.wrap
        json_shim = types.ModuleType("json")
        json_shim.__dict__.update(vars(json))
        wrap("cli.render", [
            (json_shim, "dumps"),
            (classify.ClassificationReport, "to_json"),
            (premodular.PremodularDatum, "to_json"),
        ])
        self.patcher.replace(cli, "json", json_shim)
        wrap("classify.enumerate", [
            (classify, "enumerate_star_solutions"), (cli, "enumerate_star_solutions"),
        ])
        wrap("classify.ring", [(classify, "classify_ring")], self._on_ring)
        wrap("classify.filter", [
            (classify, "symmetric_filter"), (classify, "nonmodular_filter"),
        ])
        wrap("fusion.make_ring", [
            (fusion, "make_rank3_ring"), (fusion, "make_z3_ring"),
            (classify, "make_rank3_ring"), (classify, "make_z3_ring"),
            (cli, "make_rank3_ring"), (characters, "make_z3_ring"),
        ])
        wrap("characters.solve", [
            (characters, "solve_characters"), (classify, "solve_characters"),
            (premodular, "solve_characters"), (cli, "solve_characters"),
        ])
        wrap("characters.galois", [
            (characters, "galois_type"), (classify, "galois_type"), (cli, "galois_type"),
        ])
        wrap("exactnum.isolate", [
            (realalg, "roots_of_irreducible"), (exactnum, "roots_of_irreducible"),
            (characters, "roots_of_irreducible"), (cyclotomic, "roots_of_irreducible"),
        ])
        wrap("exactnum.from_poly_expr", [
            (realalg, "from_poly_expr"), (exactnum, "from_poly_expr"),
            (characters, "from_poly_expr"), (fusion, "from_poly_expr"),
        ])
        wrap("exactnum.refine", [(realalg.RealAlgebraic, "refine_to")])
        wrap("exactnum.float", [(realalg.RealAlgebraic, "__float__")])
        wrap("exactnum.roots_table", [
            (cyclotomic, "roots_of_unity_up_to"), (exactnum, "roots_of_unity_up_to"),
            (premodular, "roots_of_unity_up_to"),
        ])
        wrap("premodular.search", [
            (premodular, "search_ribbon_data"), (classify, "search_ribbon_data"),
            (cli, "search_ribbon_data"),
        ], self._on_search)
        wrap("premodular.exact.init", [(premodular.ExactContext, "__init__")])
        wrap("premodular.exact.check", [(premodular.ExactContext, m) for m in EXACT_CHECKS])
        wrap("premodular.smatrix", [(premodular, "build_s_matrix")])

    def restore(self) -> None:
        self.patcher.restore()

    def metrics(self, output_bytes: int) -> dict[str, float]:
        tree = self.recorder.tree()
        self_times = tree.self_times()

        def self_of(name):
            return sum(t for n, t in zip(tree.names, self_times) if n == name)

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, t in zip(tree.names, self_times):
            layer_self[name.split(".", 1)[0]] += t
        ring_ms = [
            tree.duration(i) * 1e3 for i, n in enumerate(tree.names) if n == "classify.ring"
        ]
        tail = tail_percentile(len(ring_ms))
        contexts = tree.count("premodular.exact.init")
        out = {
            "characters.solve_calls": tree.count("characters.solve"),
            "characters.solve_s": tree.total(["characters.solve"]),
            "characters.galois_calls": tree.count("characters.galois"),
            "characters.galois_s": tree.total(["characters.galois"]),
            **{
                f"characters.galois.{short}": self.galois[tag]
                for tag, short in GALOIS_METRICS.items()
            },
            "exactnum.isolate_calls": tree.count("exactnum.isolate"),
            "exactnum.isolate_s": tree.total(["exactnum.isolate"]),
            "exactnum.from_poly_expr_calls": tree.count("exactnum.from_poly_expr"),
            "exactnum.from_poly_expr_s": tree.total(["exactnum.from_poly_expr"]),
            "exactnum.refine_calls": tree.count("exactnum.refine"),
            "exactnum.refine_s": tree.total(["exactnum.refine"]),
            "exactnum.float_s": tree.total(["exactnum.float"]),
            "exactnum.roots_table_s": tree.total(["exactnum.roots_table"]),
            "premodular.search_calls": tree.count("premodular.search"),
            "premodular.search_s": tree.total(["premodular.search"]),
            "premodular.search_self_s": self_of("premodular.search"),
            "premodular.exact_contexts": contexts,
            "premodular.exact_s": tree.total(["premodular.exact.init", "premodular.exact.check"]),
            "premodular.witnesses": self.witnesses,
            "premodular.cert_yield": self.witnesses / contexts if contexts else 0.0,
            "premodular.smatrix_calls": tree.count("premodular.smatrix"),
            "premodular.smatrix_s": tree.total(["premodular.smatrix"]),
            "classify.enumerate_s": tree.total(["classify.enumerate"]),
            "classify.rings": len(ring_ms),
            "classify.filters_s": tree.total(["classify.filter"]),
            "classify.ring_self_s": self_of("classify.ring"),
            "classify.ring_ms_p50": percentile(ring_ms, 50.0) if ring_ms else 0.0,
            "classify.ring_ms_tail": percentile(ring_ms, tail) if tail else 0.0,
            "classify.ring_ms_tail_pct": tail or 0.0,
            "classify.admissible": self.admissible,
            "fusion.make_ring_calls": tree.count("fusion.make_ring"),
            "fusion.make_ring_s": tree.total(["fusion.make_ring"]),
            "cli.render_s": tree.total(["cli.render"]),
            "cli.output_bytes": output_bytes,
            **{f"{layer}.self_s": t for layer, t in layer_self.items()},
        }
        assert list(out) == [name for name, _ in PER_LAYER]
        return out

    def span_summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and outermost seconds."""
        tree = self.recorder.tree()
        summary: dict[str, dict] = {}
        for name, t in zip(tree.names, tree.self_times()):
            entry = summary.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += t
        for name, entry in summary.items():
            entry["total_s"] = tree.total([name])
        return summary
