"""Self-tests for the benchmark: span arithmetic, wrapper restoration, checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import PER_LAYER, LayerTrace, percentile, tail_percentile  # noqa: E402
from spans import Recorder, SpanTree  # noqa: E402


def _tree():
    # root [0, 10]
    #   a [1, 4]      (self 3 - 1 = 2)
    #     a [2, 3]    (recursive call, self 1)
    #   b [3, 6]      (overlaps a: the union of root's children is [1, 6])
    #   c [8, 9]
    return SpanTree(
        names=["root", "a", "a", "b", "c"],
        starts=[0.0, 1.0, 2.0, 3.0, 8.0],
        ends=[10.0, 4.0, 3.0, 6.0, 9.0],
        parents=[-1, 0, 1, 0, 0],
    )


def test_self_time_subtracts_union_of_children():
    assert _tree().self_times() == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_outermost_total_does_not_double_count_recursion():
    tree = _tree()
    assert tree.outermost(["a"]) == [1]
    assert tree.total(["a"]) == 3.0
    assert tree.total(["a", "b"]) == 6.0
    assert tree.count("a") == 2


def test_recorder_links_nested_spans():
    rec = Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    tree = rec.tree()
    assert tree.names == ["outer", "inner"]
    assert tree.parents == [-1, 0]
    assert tree.starts[0] <= tree.starts[1] <= tree.ends[1] <= tree.ends[0]


def test_percentiles():
    assert tail_percentile(490) == 95.0
    assert tail_percentile(67) == 75.0
    assert tail_percentile(5) is None
    assert percentile([float(v) for v in range(1, 101)], 95.0) == 95.0


def test_uninstall_restores_every_attribute():
    pytest.importorskip("rank3ribbon")
    trace = LayerTrace()
    trace.install()
    saved = trace.patcher.saved
    try:
        assert len(saved) > 30
        assert all(vars(owner)[attr] is not original for owner, attr, original in saved)
    finally:
        trace.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in saved)
    assert trace.patcher.saved == []


def test_traced_run_reports_every_layer_metric():
    pytest.importorskip("rank3ribbon")
    from rank3ribbon import cli

    trace = LayerTrace()
    trace.install()
    try:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["classify", "--bound", "1", "--max-twist-order", "4"]) == 0
    finally:
        trace.restore()
    metrics = trace.metrics(output_bytes=1)
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["classify.rings"] == len(checks.star_labels(1))
    assert metrics["premodular.search_calls"] >= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER] + ["trace.overhead_s"]
    units = dict(PER_LAYER)
    assert all(m["unit"] == units.get(m["name"], "s") for m in spec["per_layer"])


def test_star_labels_match_small_bound_by_hand():
    # k=0 forces l=1, m=0 (n free); k=l=1 gives m+n=1; (1,0,n,0) are swaps.
    assert checks.star_labels(1) == ["K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"]


def _classify_report(bound=2, witness_all=True):
    labels = ["Z/3"] + checks.star_labels(bound)
    ising = {"structure_class": "Modular", "twists": [{"p": 0, "q": 1}, {"p": 1, "q": 2}, {"p": 3, "q": 16}]}
    rings = []
    for lab in labels:
        admissible = lab in checks.PAPER_ADMISSIBLE
        witnesses = [ising] if admissible else []
        rings.append({
            "label": lab, "admissible": admissible,
            "witnesses": witnesses, "witness_count": len(witnesses),
        })
    report = {"rings": rings, "admissible": list(checks.PAPER_ADMISSIBLE)}
    check = {"kind": "classify", "bound": bound, "witness_all": witness_all}
    return check, report


def test_checker_accepts_a_correct_report():
    check, report = _classify_report()
    assert checks.check_outputs(check, [(0, json.dumps(report))]) == {}


def test_checker_rejects_wrong_admissible_list():
    check, report = _classify_report()
    report["admissible"] = ["Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(0,1,0,2)"]
    next(r for r in report["rings"] if r["label"] == "K(0,1,0,2)")["admissible"] = True
    failed = checks.check_outputs(check, [(0, json.dumps(report))])
    assert set(failed) == set(checks.operations(check))


def test_checker_rejects_witness_on_excluded_ring():
    check, report = _classify_report()
    ring = next(r for r in report["rings"] if r["label"] == checks.EXCLUDED)
    ring["witnesses"] = [{"structure_class": "Modular", "twists": []}]
    ring["witness_count"] = 1
    failed = checks.check_outputs(check, [(0, json.dumps(report))])
    assert list(failed) == [checks.EXCLUDED]

    search = {"kind": "search", "rings": [[0, 1, 0, 2]]}
    payload = {"params": [0, 1, 0, 2], "count": 1, "witnesses": ring["witnesses"]}
    assert list(checks.check_outputs(search, [(0, json.dumps(payload))])) == [checks.EXCLUDED]


def test_checker_rejects_non_ising_twist_on_k0100():
    search = {"kind": "search", "rings": [[0, 1, 0, 0]]}
    bad = {"structure_class": "Modular", "twists": [{"p": 0, "q": 1}, {"p": 1, "q": 2}, {"p": 1, "q": 8}]}
    payload = {"params": [0, 1, 0, 0], "count": 1, "witnesses": [bad]}
    assert list(checks.check_outputs(search, [(0, json.dumps(payload))])) == [checks.ISING]


def test_checker_fails_every_operation_on_a_crash():
    check, _ = _classify_report()
    failed = checks.check_outputs(check, [(1, "")])
    assert set(failed) == set(checks.operations(check))
