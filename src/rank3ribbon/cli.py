"""Command-line interface.

Subcommands:

- ``ring``       construct a parameter ring, check axioms, solve characters
- ``enumerate``  canonical parameter solutions up to a bound
- ``search``     ribbon-data witness search on one ring
- ``classify``   full classification report
- ``audit``      desk-scale audits (star-assoc, rank3-rings, case3b-grid, landau)

Exit codes: 0 success, 1 computation error (structured JSON on stderr),
2 usage error.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .characters import galois_type, solve_characters
from .classify import LIMITATION_NOTE, TABLE_HEAD, classify_stream, enumerate_star_solutions
from .fusion import (
    Rank3Params,
    StarViolation,
    check_based_axioms,
    enumerate_rank3_based_rings,
    global_fp_dim,
    make_rank3_ring,
    param_aliases,
    rank3_tensor,
)
from .premodular import SCAN_TOL, search_ribbon_data
from .rules import audit_case3b_grid, landau_bound


class UsageError(ValueError):
    pass


def _parse_params(text: str) -> Rank3Params:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--params expects k,l,m,n (got {text!r})")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--params must be integers: {exc}") from None
    if any(v < 0 for v in values):
        raise UsageError("--params must be nonnegative")
    return Rank3Params(*values)


def _check_twist_order(order: int) -> int:
    if order < 1:
        raise UsageError(f"--max-twist-order must be >= 1 (got {order})")
    return order


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `run` of the process and
    reused: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="rank3ribbon",
        description="Exact classification of rank-3 fusion rings with premodular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument(
            "--threads", type=int, default=os.cpu_count(),
            help="accepted for compatibility; no command uses threads",
        )

    p_ring = sub.add_parser("ring", help="construct and analyze one parameter ring")
    p_ring.add_argument("--params", required=True)
    common(p_ring)

    p_enum = sub.add_parser("enumerate", help="canonical parameter solutions up to a bound")
    p_enum.add_argument("--bound", type=int, required=True)
    common(p_enum)

    p_search = sub.add_parser("search", help="ribbon-data witness search")
    p_search.add_argument("--params", required=True)
    p_search.add_argument("--max-twist-order", type=int, default=60)
    p_search.add_argument("--include-degenerate", action="store_true")
    common(p_search)

    p_classify = sub.add_parser("classify", help="full classification report")
    p_classify.add_argument("--bound", type=int, required=True)
    p_classify.add_argument("--max-twist-order", type=int, default=60)
    p_classify.add_argument("--witness-all", action="store_true")
    common(p_classify)

    p_audit = sub.add_parser("audit", help="desk-scale audits")
    audit_sub = p_audit.add_subparsers(dest="audit_command", required=True)

    a_star = audit_sub.add_parser("star-assoc", help="star constraint vs associativity")
    a_star.add_argument("--bound", type=int, default=10)
    common(a_star)

    a_rings = audit_sub.add_parser("rank3-rings", help="brute-force based-ring enumeration")
    a_rings.add_argument("--coeff-bound", type=int, default=1)
    common(a_rings)

    a_grid = audit_sub.add_parser("case3b-grid", help="grid impossibility sweep")
    a_grid.add_argument("--smax", type=int, default=50)
    a_grid.add_argument("--tmax", type=int, default=50)
    common(a_grid)

    a_landau = audit_sub.add_parser("landau", help="Landau bound for a class count")
    a_landau.add_argument("--classes", type=int, default=3)
    common(a_landau)

    return parser


def _ring_payload(params: Rank3Params) -> dict:
    ring = make_rank3_ring(params)
    info = galois_type(params)
    system = solve_characters(ring, info)
    fp = system.chars[0]
    gdim = global_fp_dim(system)
    report = ring.axiom_report()
    return {
        "params": list(params.as_tuple()),
        "alias": param_aliases(params),
        "ring": ring.to_json(),
        "axioms": {
            "unit": report.unit_ok,
            "duality": report.duality_ok,
            "involution": report.involution_ok,
            "associativity": report.associativity_ok,
        },
        "characters": system.to_json()["characters"],
        "galois": info.to_json(),
        "fp_dimensions": [fp.value(j).approx_str(12) for j in range(3)],
        "fp_dimensions_note": "approx; exact values in characters[0]",
        "global_fp_dim": {
            "exact_minpoly": list(gdim.minpoly.coeffs),
            "approx": gdim.approx_str(12),
        },
    }


def _cmd_ring(args) -> tuple[object, str | None]:
    payload = _ring_payload(_parse_params(args.params))
    return payload, None


def _cmd_enumerate(args):
    """enumerate's output in pieces, each row written as it is drawn from
    `enumerate_star_solutions`, which is drawn anew for each part of the
    payload, so no list of the rings is held.  A bad bound raises on the
    first draw, before the first piece."""
    if args.format == "table":
        return _lines(p.name() for p in enumerate_star_solutions(args.bound))
    return _enumerate_json_pieces(args.bound)


def _lines(lines):
    """The lines joined by line breaks, one piece per line, each drawn as it
    is written."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"


def _enumerate_json_pieces(bound: int):
    """The text of `json_text` of {"bound", "count", "solutions",
    "aliases"}: the rings are drawn once to count them, then once for each
    list."""
    count = sum(1 for _ in enumerate_star_solutions(bound))
    yield '{\n  "bound": ' + json_text(bound) + ',\n  "count": ' + json_text(count)
    yield ',\n  "solutions": '
    yield from _container_pieces(
        (list(p.as_tuple()) for p in enumerate_star_solutions(bound)), "\n  ")
    yield ',\n  "aliases": '
    yield from _container_pieces(
        ((p.name(), param_aliases(p)) for p in enumerate_star_solutions(bound)), "\n  ", "{}")
    yield "\n}"


def _cmd_search(args) -> tuple[object, str | None]:
    params = _parse_params(args.params)
    order = _check_twist_order(args.max_twist_order)
    ring = make_rank3_ring(params)
    witnesses = search_ribbon_data(
        ring,
        order,
        include_degenerate=args.include_degenerate,
    )
    payload = {
        "params": list(params.as_tuple()),
        "max_twist_order": args.max_twist_order,
        "completeness": f"complete up to twist order {args.max_twist_order}",
        "tol": SCAN_TOL,
        "count": len(witnesses),
        "witnesses": [w.to_json() for w in witnesses],
    }
    lines = [
        f"{w.structure_class.value:<18} dims#{w.dims_index} "
        f"theta=({w.twists.theta[1].turn}, {w.twists.theta[2].turn})"
        for w in witnesses
    ]
    return payload, "\n".join(lines) if lines else "no witnesses"


def _cmd_classify(args):
    """classify's output in pieces: the head, then one piece per ring, drawn
    as each ring is decided, then the trailer.  The arguments are checked
    here, before the first piece; a ring's report is dropped once it is
    rendered, and only the admissible labels are kept for the trailer."""
    config, reports = classify_stream(
        args.bound,
        max_twist_order=_check_twist_order(args.max_twist_order),
        witness_all=args.witness_all,
    )
    if args.format == "table":
        return _table_pieces(reports)
    return _json_pieces(config, reports)


def _table_pieces(reports):
    yield TABLE_HEAD
    for report in reports:
        yield "\n" + report.table_row()


def _json_pieces(config: dict, reports):
    """The text of `json.dumps(ClassificationReport.to_json(), indent=2)`,
    with each ring written at the depth it has inside the list."""
    yield (
        '{\n  "limitation": ' + json_text(LIMITATION_NOTE)
        + ',\n  "config": ' + json_text(config, "\n  ")
        + ',\n  "rings": '
    )
    admissible = []

    def rings():
        for report in reports:
            if report.admissible:
                admissible.append(report.label)
            yield report.to_json()

    yield from _container_pieces(rings(), "\n  ")
    yield ',\n  "admissible": ' + json_text(admissible, "\n  ") + "\n}"


def _container_pieces(items, newline: str, brackets: str = "[]"):
    """The text of `json_text` of a list of the values `items`, or with
    brackets "{}" of a dict of the (key, value) pairs `items`, at the depth
    that `newline` starts: one piece per item, each drawn as it is
    written."""
    inner = newline + "  "
    opened = False
    for item in items:
        head = ("," if opened else brackets[0]) + inner
        if brackets == "{}":
            key, item = item
            head += encode_basestring_ascii(key) + ": "
        yield head + json_text(item, inner)
        opened = True
    yield newline + brackets[1] if opened else brackets


def _cmd_audit(args) -> tuple[object, str | None]:
    if args.audit_command == "star-assoc":
        bound = args.bound
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        mismatches = []
        for k in range(bound + 1):
            for l in range(bound + 1):
                for m in range(bound + 1):
                    for n in range(bound + 1):
                        p = Rank3Params(k, l, m, n)
                        ok = check_based_axioms(rank3_tensor(p), (0, 1, 2)).associativity_ok
                        if ok != p.satisfies_star:
                            mismatches.append(list(p.as_tuple()))
        payload = {
            "audit": "star-assoc",
            "bound": bound,
            "equivalent": not mismatches,
            "mismatches": mismatches,
        }
        return payload, f"star <=> associativity on [0,{bound}]^4: {not mismatches}"
    if args.audit_command == "rank3-rings":
        rings = enumerate_rank3_based_rings(args.coeff_bound)
        payload = {
            "audit": "rank3-rings",
            "coeff_bound": args.coeff_bound,
            "count": len(rings),
            "rings": [r.to_json() for r in rings],
        }
        return payload, f"{len(rings)} based rings at coefficient bound {args.coeff_bound}"
    if args.audit_command == "case3b-grid":
        result = audit_case3b_grid(args.smax, args.tmax)
        payload = {
            "audit": "case3b-grid",
            "smax": args.smax,
            "tmax": args.tmax,
            "no_solutions": result,
        }
        return payload, str(result).lower()
    if args.audit_command == "landau":
        value = landau_bound(args.classes)
        payload = {"audit": "landau", "classes": args.classes, "bound": value}
        return payload, str(value)
    raise UsageError(f"unknown audit {args.audit_command!r}")


_COMMANDS = {
    "ring": _cmd_ring,
    "search": _cmd_search,
    "audit": _cmd_audit,
}


def _output_pieces(args):
    """The command's output text, without the final newline.  Every command
    but classify and enumerate is computed here; the rings of those two are
    computed as their pieces are drawn."""
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "enumerate":
        return _cmd_enumerate(args)
    payload, table = _COMMANDS[args.command](args)
    return (table if args.format == "table" and table is not None else json_text(payload),)


def _write_file(path: str, pieces) -> None:
    """Write the pieces to `path` + ".partial" and move that file to `path`
    once all are written, so that a run that fails leaves no file at `path`."""
    partial = path + ".partial"
    fh = open(partial, "w", encoding="utf-8")
    try:
        with fh:
            for piece in pieces:
                fh.write(piece)
            fh.write("\n")
        os.replace(partial, path)
    except BaseException:
        try:
            os.remove(partial)
        except OSError:
            pass
        raise


def _error(kind: str, detail: str) -> int:
    print(json.dumps({"error": {"kind": kind, "detail": detail}}), file=sys.stderr)
    return 1


def run(argv: list[str]) -> int:
    """Run one command.  The arguments, and that --out can be opened, are
    checked before anything is written.  classify writes each ring as it is
    decided: if it fails after that, stdout holds a truncated report, and an
    --out file never reaches its path."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        pieces = _output_pieces(args)
        if args.out:
            try:
                _write_file(args.out, pieces)
            except OSError as exc:
                return _error("OutputError", str(exc))
            print(f"wrote {args.out}")
        else:
            write = sys.stdout.write
            for piece in pieces:
                write(piece)
            write("\n")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (StarViolation, ValueError, RuntimeError) as exc:
        return _error(type(exc).__name__, str(exc))
    return 0


def json_text(obj, newline: str = "\n") -> str:
    """The bytes of `json.dumps(obj, indent=2)`, written by a direct
    recursive writer: `indent` turns json's C encoder off, and the
    pure-Python encoder that runs instead is slower than this.  Same rules:
    ASCII-escaped strings, tuples as lists, json's int and float reprs
    (NaN and Infinity included), "," and ": " separators.  Keys must be
    str; anything else raises TypeError.  `newline` starts every line after
    the first: a line break, then two spaces per enclosing level when the
    value sits inside a larger document."""
    out: list[str] = []
    _write_json(obj, out, newline)
    return "".join(out)


def _write_json(obj, out: list[str], newline: str) -> None:
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (`| head`): stop.  stdout goes to devnull so that
        # the interpreter's own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
