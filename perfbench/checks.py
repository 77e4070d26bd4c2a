"""Correctness checks on the CLI output of each workload.

Nothing here compares against an earlier run of the tool: the expected
answer is the paper's (Z/3, K(0,1,0,0), K(0,1,0,1), K(1,1,0,1)), and the
expected ring set is enumerated here from the star constraint and the
canonical form, without the program's enumeration code.

An operation is one ring verdict (classify workloads) or one search.  Each
check maps its failures to the operations they affect.
"""

from __future__ import annotations

import json
import math

PAPER_ADMISSIBLE = ["Z/3", "K(0,1,0,0)", "K(0,1,0,1)", "K(1,1,0,1)"]
EXCLUDED = "K(0,1,0,2)"  # satisfies the star constraint, admits no witness
ISING = "K(0,1,0,0)"  # modular witnesses: theta_X = -1, theta_Y primitive 16th


def label(params) -> str:
    return "K({},{},{},{})".format(*params)


def star_labels(bound: int) -> list[str]:
    """Canonical (k,l,m,n) in [0,bound]^4 with k^2 + l^2 = lm + kn + 1.

    The canonical representative of {(k,l,m,n), (l,k,n,m)} is the
    lexicographically smaller tuple.
    """
    found = []
    for k in range(bound + 1):
        for l in range(bound + 1):
            for m in range(bound + 1):
                rest = k * k + l * l - l * m - 1  # must equal k*n
                if k == 0:
                    ns = range(bound + 1) if rest == 0 else ()
                elif rest % k == 0 and 0 <= rest // k <= bound:
                    ns = (rest // k,)
                else:
                    ns = ()
                for n in ns:
                    p = (k, l, m, n)
                    if p <= (l, k, n, m):
                        found.append(p)
    return [label(p) for p in sorted(found)]


def operations(check: dict) -> list[str]:
    """The operations one repetition attempts, independent of its output."""
    if check["kind"] == "classify":
        return ["Z/3"] + star_labels(check["bound"])
    return [label(p) for p in check["rings"]]


def _ising_ok(witness: dict) -> bool:
    if witness["structure_class"] != "Modular":
        return True
    theta_x, theta_y = witness["twists"][1], witness["twists"][2]
    return (
        theta_x == {"p": 1, "q": 2}
        and theta_y["q"] == 16
        and math.gcd(theta_y["p"], 16) == 1
    )


def _check_witnesses(op: str, witnesses: list, admissible: bool, fail) -> None:
    if op == EXCLUDED and witnesses:
        fail(op, f"excluded ring {EXCLUDED} returned {len(witnesses)} witnesses")
    elif bool(witnesses) != admissible:
        fail(op, f"{op}: has witnesses = {bool(witnesses)}, admissible = {admissible}")
    if op == ISING and not all(_ising_ok(w) for w in witnesses):
        fail(op, f"{ISING}: a modular witness lacks theta_X = -1 and primitive 16th theta_Y")


def check_outputs(check: dict, outputs: list[tuple[int | None, str]]) -> dict[str, str]:
    """Failed operations of one repetition, each with its first message.

    `outputs` holds (exit code or None on an exception, stdout text) for each
    CLI call of the repetition, in order.
    """
    ops = operations(check)
    failed: dict[str, str] = {}

    def fail(op, msg):
        failed.setdefault(op, msg)

    def fail_all(msg):
        for op in ops:
            fail(op, msg)
        return failed

    if check["kind"] == "classify":
        code, text = outputs[0]
        if code != 0:
            return fail_all(f"exit code {code}")
        report = json.loads(text)
        rings = {r["label"]: r for r in report["rings"]}
        if len(rings) != len(report["rings"]) or set(rings) != set(ops):
            return fail_all(
                f"{len(report['rings'])} rings reported, {len(ops)} expected from the star constraint"
            )
        if report["admissible"] != PAPER_ADMISSIBLE:
            return fail_all(f"admissible list {report['admissible']} != {PAPER_ADMISSIBLE}")
        for op, ring in rings.items():
            admissible = op in PAPER_ADMISSIBLE
            if ring["admissible"] != admissible:
                fail(op, f"{op}: admissible = {ring['admissible']}")
            witnesses = ring.get("witnesses")
            if witnesses is None:
                if admissible or check["witness_all"]:
                    fail(op, f"{op}: no witness search was run")
                continue
            if ring["witness_count"] != len(witnesses):
                fail(op, f"{op}: witness_count disagrees with the witness list")
            _check_witnesses(op, witnesses, admissible, fail)
        return failed

    for op, (code, text) in zip(ops, outputs):
        if code != 0:
            fail(op, f"{op}: exit code {code}")
            continue
        payload = json.loads(text)
        if label(payload["params"]) != op:
            fail(op, f"{op}: output is for {label(payload['params'])}")
            continue
        if payload["count"] != len(payload["witnesses"]):
            fail(op, f"{op}: count disagrees with the witness list")
        _check_witnesses(op, payload["witnesses"], op in PAPER_ADMISSIBLE, fail)
    return failed
