"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rank3ribbon.classify import enumerate_star_solutions
from rank3ribbon.cli import run


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_command(capsys):
    code, out, err = _capture(capsys, ["ring", "--params", "0,1,0,1"])
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["galois"]["tag"] == "Trivial"
    assert payload["fp_dimensions"] == ["1", "1", "2"]
    assert payload["axioms"]["associativity"] is True
    assert payload["global_fp_dim"]["approx"] == "6"


def test_ring_command_star_violation(capsys):
    code, out, err = _capture(capsys, ["ring", "--params", "1,1,2,0"])
    assert code == 1
    error = json.loads(err)
    assert error["error"]["kind"] == "StarViolation"


def test_usage_errors(capsys):
    code, _out, err = _capture(capsys, ["ring", "--params", "1,2,3"])
    assert code == 2 and "usage error" in err
    code2, _, _ = _capture(capsys, ["ring", "--params", "a,b,c,d"])
    assert code2 == 2
    code3, _, _ = _capture(capsys, ["nonsense"])
    assert code3 == 2


HELP_ARGVS = [
    ["--help"],
    *([name, "--help"] for name in ("ring", "enumerate", "search", "classify", "audit")),
    *(["audit", name, "--help"] for name in ("star-assoc", "rank3-rings", "case3b-grid", "landau")),
    ["search", "--max-twist-order", "16"],  # --params is missing
]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_and_errors_match_the_fully_populated_parser(capsys, argv):
    """A run builds only its own command's arguments, yet prints the help of
    the top level, of each command and of each audit, and a missing-argument
    error, exactly as the parser with every command populated does."""
    from rank3ribbon import cli

    code, out, err = _capture(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert (code, out, err) == (exc.value.code, full.out, full.err)
    assert out or err


def test_tol_option_is_gone(capsys):
    """The tolerance of the pinning-row test is the constant SCAN_TOL; a
    --tol value such as 0, which made a search report no witnesses, is a
    usage error."""
    for argv in (["search", "--params", "0,1,0,0", "--max-twist-order", "16"],
                 ["classify", "--bound", "1"]):
        code, out, err = _capture(capsys, argv + ["--tol", "0"])
        assert code == 2 and not out and "--tol" in err


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("argv", [["search", "--params", "0,1,0,0"], ["classify", "--bound", "2"]],
                         ids=["search", "classify"])
def test_max_twist_order_below_one_is_a_usage_error(capsys, argv, order):
    """A twist order below 1 is rejected before any computation, like bad
    --params, instead of surfacing as the search's ValueError (exit 1)."""
    code, out, err = _capture(capsys, argv + ["--max-twist-order", order])
    assert code == 2 and not out and "usage error" in err


def test_enumerate_command(capsys):
    code, out, _ = _capture(capsys, ["enumerate", "--bound", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [[0, 1, 0, 0], [0, 1, 0, 1], [1, 1, 0, 1]]
    assert payload["aliases"]["K(1,1,0,1)"] == ["K(1,1,0,1)", "K(1,1,1,0)"]


def test_search_command(capsys):
    code, out, _ = _capture(
        capsys, ["search", "--params", "0,1,0,0", "--max-twist-order", "16"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16
    assert all(w["structure_class"] == "Modular" for w in payload["witnesses"])
    assert all(w["twists"][1] == {"p": 1, "q": 2} for w in payload["witnesses"])
    assert all(w["twists"][2]["q"] == 16 for w in payload["witnesses"])


def test_search_order_beyond_the_twist_table(capsys):
    """Twist orders are bounded by the character field, so an order of a
    million searches the same fixed table as order 60, in the same time and
    memory, and finds the same witnesses."""
    argv = ["search", "--params", "0,1,0,0", "--max-twist-order"]
    code, out, err = _capture(capsys, argv + ["1000000"])
    assert code == 0 and not err
    _, at60, _ = _capture(capsys, argv + ["60"])
    payload = json.loads(out)
    assert payload["max_twist_order"] == 1000000 and payload["count"] == 16
    assert payload["witnesses"] == json.loads(at60)["witnesses"]


def test_cli_import_leaves_numpy_out():
    """numpy is a test dependency only: importing the CLI does not load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, rank3ribbon.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


def test_search_command_empty(capsys):
    code, out, _ = _capture(
        capsys, ["search", "--params", "0,1,0,2", "--max-twist-order", "16"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_classify_command_and_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _capture(
        capsys,
        ["classify", "--bound", "1", "--max-twist-order", "16", "--out", str(target)],
    )
    assert code == 0 and str(target) in out
    payload = json.loads(target.read_text())
    assert payload["admissible"] == ["Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"]
    assert "exactly 7" in payload["limitation"]


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing of what is written to it."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


def _classify_peak(bound):
    """tracemalloc's peak, over the memory held before the call, of
    `classify --bound <bound>` with stdout discarded."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    with contextlib.redirect_stdout(_Discard()):
        assert run(["classify", "--bound", str(bound)]) == 0
    return tracemalloc.get_traced_memory()[1] - before


def test_classify_runs_in_constant_memory():
    """Each ring's report is written as soon as it is decided and then
    dropped: tripling the bound (231 to 1,832 rings) leaves the peak of a
    run within 1.5 times its value at bound 20."""
    with contextlib.redirect_stdout(_Discard()):
        run(["classify", "--bound", "2"])  # builds the caches every run shares
    tracemalloc.start()
    try:
        at20 = _classify_peak(20)
        at60 = _classify_peak(60)
    finally:
        tracemalloc.stop()
    assert at60 <= 1.5 * at20, (at20, at60)


def _enumerate_peak(bound, fmt):
    """tracemalloc's peak, over the memory held before the call, of
    `enumerate --bound <bound> --format <fmt>` with stdout discarded."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    with contextlib.redirect_stdout(_Discard()):
        assert run(["enumerate", "--bound", str(bound), "--format", fmt]) == 0
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_enumerate_runs_in_constant_memory(fmt):
    """enumerate writes each solution and each alias entry as it is drawn
    and holds no list of them: tripling the bound (230 to 1,832 rings)
    leaves the peak of a run within 1.5 times its value at bound 20."""
    with contextlib.redirect_stdout(_Discard()):
        run(["enumerate", "--bound", "2", "--format", fmt])
    tracemalloc.start()
    try:
        at20 = _enumerate_peak(20, fmt)
        at60 = _enumerate_peak(60, fmt)
    finally:
        tracemalloc.stop()
    assert at60 <= 1.5 * at20, (at20, at60)


def test_classify_checks_its_arguments_and_output_before_writing(capsys, monkeypatch, tmp_path):
    """A bad bound, twist order or --out path is reported before any ring is
    classified and before a byte is written."""
    from rank3ribbon import classify

    def no_ring(params):
        raise AssertionError("a ring was classified")

    monkeypatch.setattr(classify, "classify_ring", no_ring)
    code, out, err = _capture(capsys, ["classify", "--bound", "0"])
    assert code == 1 and not out and json.loads(err)["error"]["kind"] == "ValueError"
    code, out, err = _capture(capsys, ["classify", "--bound", "2", "--max-twist-order", "0"])
    assert code == 2 and not out and "usage error" in err
    target = tmp_path / "missing" / "report.json"
    code, out, err = _capture(capsys, ["classify", "--bound", "2", "--out", str(target)])
    assert code == 1 and not out and json.loads(err)["error"]["kind"] == "OutputError"
    assert not target.parent.exists()


def _fail_on_fifth_ring(monkeypatch):
    from rank3ribbon import classify

    original = classify.classify_ring
    calls = []

    def failing(params):
        calls.append(params)
        if len(calls) == 5:
            raise RuntimeError("fifth ring")
        return original(params)

    monkeypatch.setattr(classify, "classify_ring", failing)
    return calls


def test_failure_after_streaming_began(capsys, monkeypatch, tmp_path):
    """A failure once rings have been written exits 1 with the structured
    error on stderr.  stdout then holds a truncated report; an --out file is
    written under a sibling name and never reaches its target."""
    calls = _fail_on_fifth_ring(monkeypatch)
    code, out, err = _capture(capsys, ["classify", "--bound", "3", "--max-twist-order", "16"])
    assert code == 1 and json.loads(err) == {"error": {"kind": "RuntimeError", "detail": "fifth ring"}}
    assert out.startswith('{\n  "limitation": ') and out.count('"label": ') == 5  # Z/3 and 4 rings
    target = tmp_path / "report.json"
    calls.clear()
    code, out, err = _capture(
        capsys, ["classify", "--bound", "3", "--max-twist-order", "16", "--out", str(target)])
    assert code == 1 and not out and json.loads(err)["error"]["detail"] == "fifth ring"
    assert list(tmp_path.iterdir()) == []


def test_out_file_replaces_its_target_only_on_success(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old")
    argv = ["classify", "--bound", "2", "--max-twist-order", "16"]
    _, out, _ = _capture(capsys, argv)
    code, msg, _ = _capture(capsys, argv + ["--out", str(target)])
    assert code == 0 and msg == f"wrote {target}\n"
    assert target.read_text() == out and list(tmp_path.iterdir()) == [target]


def test_closed_pipe_stops_the_run():
    """`classify --bound 300 | head -c 100` ends at once, without a
    traceback: the first write after the reader is gone stops the run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from rank3ribbon.cli import main; main()",
         "classify", "--bound", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert head.startswith(b'{\n  "limitation": ') and len(head) == 100
    assert proc.returncode == 1 and "Traceback" not in err, err


def test_classify_table_format(capsys):
    code, out, _ = _capture(
        capsys, ["classify", "--bound", "1", "--max-twist-order", "4", "--format", "table"]
    )
    assert code == 0
    assert "K(0,1,0,1)" in out and "admissible" in out


def test_audit_commands(capsys):
    code, out, _ = _capture(capsys, ["audit", "landau", "--classes", "3"])
    assert code == 0 and json.loads(out)["bound"] == 6

    code, out, _ = _capture(capsys, ["audit", "case3b-grid", "--smax", "5", "--tmax", "5"])
    assert code == 0 and json.loads(out)["no_solutions"] is True

    code, out, _ = _capture(capsys, ["audit", "star-assoc", "--bound", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True and payload["mismatches"] == []

    code, out, _ = _capture(capsys, ["audit", "rank3-rings", "--coeff-bound", "1"])
    assert code == 0 and json.loads(out)["count"] == 4


@pytest.mark.parametrize("argv", [
    ["audit", "star-assoc", "--bound", "-1"],
    ["audit", "rank3-rings", "--coeff-bound", "-1"],
], ids=["star-assoc", "rank3-rings"])
def test_audit_rejects_negative_bounds(capsys, argv):
    """A negative bound is an error, not an audit over an empty range."""
    code, out, err = _capture(capsys, argv)
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError" and "nonnegative" in error["detail"]


def test_audit_landau_rejects_more_than_six_classes(capsys):
    """The unit-fraction enumeration grows doubly exponentially with the
    class count: 7 classes is refused at once, not run for minutes."""
    code, out, err = _capture(capsys, ["audit", "landau", "--classes", "7"])
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError" and "above 6" in error["detail"]


def test_json_output_deterministic(capsys):
    _, first, _ = _capture(capsys, ["search", "--params", "0,1,0,1", "--max-twist-order", "6"])
    _, second, _ = _capture(capsys, ["search", "--params", "0,1,0,1", "--max-twist-order", "6"])
    assert first == second
    _, third, _ = _capture(
        capsys,
        ["search", "--params", "0,1,0,1", "--max-twist-order", "6", "--threads", "3"],
    )
    assert first == third


GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


@pytest.mark.parametrize("argv, digest", [(g["argv"], g["sha256"]) for g in GOLDEN],
                         ids=[g["id"] for g in GOLDEN])
def test_stdout_matches_golden_digest(capsys, argv, digest):
    """stdout is pinned byte for byte by its sha256: any change to a verdict,
    certificate, witness or rendering of these runs shows up here.  CI checks
    the same table through the installed console script."""
    code, out, err = _capture(capsys, argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ring_whose_roots_floats_cannot_separate_is_isolated(capsys, monkeypatch):
    """K(1, L, L, 0) with L = 10^100 has two roots of char_poly_x near L - 1
    and L + 1, which no float separates: they are isolated by Descartes
    bisection, some 1,000 halvings below a Cauchy interval near 10^200,
    without exhausting the stack.  `largest_root` isolates every root of the
    rest of char_poly_x, and the typing keeps them for the lower characters,
    so no polynomial is isolated twice."""
    from collections import Counter

    from rank3ribbon.exactnum import realalg

    isolated = Counter()
    original = realalg._isolate_squarefree
    monkeypatch.setattr(realalg, "_isolate_squarefree",
                        lambda p, bound: isolated.update([p.coeffs]) or original(p, bound))
    big = 10**100
    code, out, err = _capture(capsys, ["ring", "--params", f"1,{big},{big},0"])
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["galois"]["tag"] == "S3"
    assert payload["fp_dimensions"] == ["1", "1e+100", "1e+100"]
    assert isolated and set(isolated.values()) == {1}


def test_isolating_every_root_prints_the_same_bytes(capsys, monkeypatch):
    """With no float estimate of any root, nothing is placed and every
    irrational value is isolated by Descartes bisection instead; every ring golden
    and classify --bound 20 --witness-all --max-twist-order 60 still print
    their pinned bytes, as every rendering reads the node of the value's
    own bisection tree."""
    from rank3ribbon.exactnum import cyclotomic, realalg

    estimates = realalg.real_root_estimates
    for module in list(sys.modules.values()):
        if module.__name__.startswith("rank3ribbon") and vars(module).get("real_root_estimates") is estimates:
            monkeypatch.setattr(module, "real_root_estimates", lambda coeffs: [])
    # The cosines bring their own estimates; drop them too.
    locate = cyclotomic.roots_of_irreducible
    monkeypatch.setattr(cyclotomic, "roots_of_irreducible", lambda p, estimates=None: locate(p))
    placed, isolated = [], []
    place, isolate = realalg._placed, realalg._isolate_squarefree

    def recorded_place(*args):
        roots = place(*args)
        placed.extend(roots)
        return roots

    monkeypatch.setattr(realalg, "_placed", recorded_place)
    monkeypatch.setattr(realalg, "_isolate_squarefree",
                        lambda p, bound: isolated.append(p) or isolate(p, bound))
    caches = (cyclotomic._cos_roots, cyclotomic._roots_in_cyclotomic_field, cyclotomic._zeta_ball)
    cases = [g for g in GOLDEN if g["argv"][0] == "ring" or g["id"] == "classify-b20-witness-all-o60"]
    assert len(cases) == 9
    for cache in caches:
        cache.cache_clear()
    try:
        for case in cases:
            code, out, err = _capture(capsys, case["argv"])
            assert code == 0 and not err
            assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case["id"]
    finally:
        for cache in caches:
            cache.cache_clear()
    assert placed == [] and isolated


def test_every_number_exact_or_approx_labeled(capsys):
    """Numeric payload fields carry exact representations or approx markers."""
    _, out, _ = _capture(capsys, ["ring", "--params", "0,1,0,0"])
    payload = json.loads(out)
    char = payload["characters"][0]
    assert "minpoly_y" in char and "interval_y" in char and "approx_y" in char
    assert "non-authoritative" in char["approx_note"]
    _, out2, _ = _capture(capsys, ["search", "--params", "0,1,0,0", "--max-twist-order", "16"])
    witness = json.loads(out2)["witnesses"][0]
    assert witness["smatrix"]["entries"][0][0]["note"] == "approx"
    assert witness["twists"][2] == {"p": witness["twists"][2]["p"], "q": 16}


def test_cli_import_does_no_exact_work():
    """Importing the CLI, or the branch rules alone, builds no twist table
    and fills none of the cyclotomic caches: each is built on first use."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module in ("rules", "cli"):
        probe = (
            f"import rank3ribbon.{module}\n"
            "from rank3ribbon import premodular\n"
            "from rank3ribbon.exactnum import cyclotomic as c\n"
            "caches = (premodular._twist_index, c.cyclotomic_poly, c._cos_roots, c._power_basis, c._zeta_ball)\n"
            "print([f.cache_info().currsize for f in caches])"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == "[0, 0, 0, 0, 0]", module


LAYER_ORDER = ("fusion", "characters", "rules", "premodular", "classify", "cli")


def test_each_module_imports_alone_in_layer_order(tmp_path):
    """Each module of LAYER_ORDER imports alone in a fresh interpreter with
    warnings as errors, compiled afresh (so a SyntaxWarning in a docstring
    fails), and loads no module that comes after it: `rules` loads neither
    `premodular` nor `classify`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PYTHONPYCACHEPREFIX": str(tmp_path),
    }
    for index, module in enumerate(LAYER_ORDER):
        probe = (
            f"import sys, rank3ribbon.{module}\n"
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules if m.startswith('rank3ribbon.')})))"
        )
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", probe], capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split()) - {"exactnum"}
        assert module in loaded and loaded <= set(LAYER_ORDER[:index + 1]), (module, loaded)


@pytest.fixture(scope="module")
def golden_payloads():
    """The payload of every golden command but classify and enumerate, which
    stream."""
    from rank3ribbon import cli

    payloads = []
    for g in GOLDEN:
        args = cli._build_parser().parse_args(g["argv"])
        if args.command not in ("classify", "enumerate"):
            payloads.append(cli._COMMANDS[args.command](args)[0])
    return payloads


def test_json_writer_matches_json_dumps_on_golden_payloads(golden_payloads):
    """The direct writer emits exactly the bytes of json.dumps(obj, indent=2)
    on the payload of every golden command."""
    from rank3ribbon.cli import json_text

    assert len(golden_payloads) == sum(g["argv"][0] not in ("classify", "enumerate") for g in GOLDEN)
    for payload in golden_payloads:
        assert json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("argv", [g["argv"] for g in GOLDEN if g["argv"][0] == "classify"],
                         ids=[g["id"] for g in GOLDEN if g["argv"][0] == "classify"])
def test_streamed_classify_matches_json_dumps_of_the_kept_report(capsys, argv):
    """classify's streamed stdout is exactly json.dumps(report, indent=2) of
    the report that `classify_all` keeps, on every golden classify command."""
    from rank3ribbon import cli
    from rank3ribbon.classify import classify_all

    args = cli._build_parser().parse_args(argv)
    code, out, _ = _capture(capsys, argv)
    report = classify_all(args.bound, args.max_twist_order, args.witness_all)
    assert code == 0 and out == json.dumps(report.to_json(), indent=2) + "\n"


@pytest.mark.parametrize("bound", [0, 1, 20])
def test_streamed_enumerate_matches_json_dumps_of_the_payload(capsys, bound):
    """enumerate's streamed stdout is exactly json.dumps(payload, indent=2) of
    the payload built from the list of its rings, and its table is their
    names, one a line: at bound 0 both sections are empty."""
    from rank3ribbon.fusion import param_aliases

    rings = list(enumerate_star_solutions(bound))
    payload = {
        "bound": bound,
        "count": len(rings),
        "solutions": [list(p.as_tuple()) for p in rings],
        "aliases": {p.name(): param_aliases(p) for p in rings},
    }
    argv = ["enumerate", "--bound", str(bound)]
    code, out, _ = _capture(capsys, argv)
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
    code, out, _ = _capture(capsys, argv + ["--format", "table"])
    assert code == 0 and out == "".join(p.name() + "\n" for p in rings) + ("\n" if not rings else "")


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [{}], "d": {"e": [[], {}]}},
    (1, (2, [3, ()])), "plain", "café ☃ \U0001d11e", "tab\there\nquote\" back\\slash \x00\x1f\x7f",
    {"é": "é", "": ""}, [True, False, 1, 0, None], {"t": True, "one": 1},
    1e-09, -1e-09, 0.1, -0.0, 1e300, 12345678901234567890.0, -10**40, 10**40,
    float("nan"), float("inf"), float("-inf"), [float("nan"), {"x": float("-inf")}],
])
def test_json_writer_matches_json_dumps(obj):
    from rank3ribbon.cli import json_text

    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [{(1, 2): 3}], {"x": {1.5}}, object()])
def test_json_writer_rejects_what_it_cannot_write(obj):
    from rank3ribbon.cli import json_text

    with pytest.raises(TypeError):
        json_text(obj)
