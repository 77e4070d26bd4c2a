"""rank3ribbon benchmark: three CLI workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload classify-b30 --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the program is imported from `src/`.
Every repetition starts a fresh interpreter (worker.py), so module-level
caches start cold as they do for every CLI user.  Repetitions run one after
another from this single process, each with `--threads` set to the number
of usable cores.  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics from
a traced repetition, paired with an untraced one to measure the overhead.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from layers import PER_LAYER  # noqa: E402

# Why each workload: see README.md.  Each command is a list of option
# groups; the seed only shuffles their order (and the ring order of
# search-o100), so every seed asks for the same work and answer.
SEARCH_RINGS = [[0, 1, 0, 0], [0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 0, 2]]
WORKLOADS = {
    "classify-b30": {
        "commands": [["classify", ("--bound", "30")]],
        "check": {"kind": "classify", "bound": 30, "witness_all": False},
    },
    "search-o100": {
        "commands": [
            ["search", ("--params", ",".join(map(str, p))), ("--max-twist-order", "100")]
            for p in SEARCH_RINGS
        ],
        "check": {"kind": "search", "rings": SEARCH_RINGS},
    },
    "witness-all-b10-o16": {
        "commands": [[
            "classify", ("--bound", "10"), ("--witness-all",), ("--max-twist-order", "16"),
        ]],
        "check": {"kind": "classify", "bound": 10, "witness_all": True},
    },
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
SETUP_PROBES = 10
RUN_LIMIT_S = 150.0  # stop starting repetitions past this, to end well within 180 s
PROBE = (
    "import time, rank3ribbon.cli; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def build_spec(workload: str, seed: int, threads: int, trace: bool) -> dict:
    rng = random.Random(seed)
    wl = WORKLOADS[workload]
    order = list(range(len(wl["commands"])))
    rng.shuffle(order)
    argvs = []
    for i in order:
        sub, *groups = wl["commands"][i]
        groups = groups + [("--threads", str(threads))]
        rng.shuffle(groups)
        argvs.append([sub] + [a for g in groups for a in g])
    check = dict(wl["check"])
    if check["kind"] == "search":
        check["rings"] = [check["rings"][i] for i in order]
    return {"argvs": argvs, "check": check, "trace": trace, "src": str(SRC)}


def child_env() -> dict:
    """The caller's environment with `src/` first on the import path and
    bytecode caching on, so the warm-up's compiled modules are reused as an
    installed package's would be."""
    paths = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_time(env: dict) -> float:
    """Seconds from starting an interpreter until `rank3ribbon.cli` (and
    numpy with it) is imported, on the system-wide monotonic clock."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout) - t0


def repetition(spec: dict, env: dict, timeout: float) -> dict:
    """Run one repetition; a crash or timeout comes back as a failed rep."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"repetition exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    threads = len(os.sched_getaffinity(0))
    env = child_env()
    run_start = time.perf_counter()
    setup_time(env)  # warm-up: compiles bytecode once, as an installed package has it
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [setup_time(env) for _ in range(probes)]

    ops = checks.operations(WORKLOADS[workload]["check"])
    plain = build_spec(workload, seed, threads, trace=False)
    traced = build_spec(workload, seed, threads, trace=True)
    reps: list[dict] = []  # untraced
    traced_reps: list[dict] = []
    attempted = failed = 0
    messages: list[str] = []
    reference_sha = None
    start = time.perf_counter()
    rounds = 0
    while True:
        for spec, into in ((plain, reps), (traced, traced_reps)) if trace else ((plain, reps),):
            rep = repetition(spec, env, max(10.0, 175.0 - (time.perf_counter() - run_start)))
            into.append(rep)
            attempted += len(ops)
            if "crash" in rep:
                bad = set(ops)
                messages.append(rep["crash"])
            else:
                bad = set(rep["failed"])
                messages.extend(rep["failed"][op] for op in sorted(bad)[:3])
                messages.extend(rep["errors"][:1])
                reference_sha = reference_sha or rep["output_sha256"]
                if rep["output_sha256"] != reference_sha:
                    bad = set(ops)
                    messages.append("output bytes differ between repetitions")
            failed += len(bad)
        rounds += 1
        elapsed = time.perf_counter() - start
        # Start another round only while a whole one still fits.
        if (elapsed + elapsed / rounds > seconds
                or time.perf_counter() - run_start + elapsed / rounds > RUN_LIMIT_S):
            break
    # The second half of the probes samples set-up time at the other end
    # of the run.
    setups += [setup_time(env) for _ in range(probes)]

    good = [r for r in reps if "crash" not in r]
    good_traced = [r for r in traced_reps if "crash" not in r]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": threads,
        "nproc": threads,
        "python": good[0]["python"] if good else sys.version.split()[0],
        "numpy": good[0]["numpy"] if good else None,
        "argvs": plain["argvs"],
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "samples": {
            "wall_s": [r["wall_s"] for r in good],
            "cpu_s": [r["cpu_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "setup_s": setups,
        },
    }
    overheads = [
        t["wall_s"] - r["wall_s"] for r, t in zip(reps, traced_reps)
        if "crash" not in r and "crash" not in t
    ]
    if overheads:
        layers = {
            name: statistics.median(r["layers"][name] for r in good_traced)
            for name in good_traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(overheads)
        result["layers"] = layers
        result["spans"] = good_traced[0]["spans"]
    return result


def end_to_end(result: dict) -> dict:
    return {
        name: {"value": statistics.median(result["samples"][name]), "unit": unit}
        for name, unit in END_TO_END
        if result["samples"][name]
    }


def per_layer(result: dict) -> dict:
    units = dict(PER_LAYER, **{"trace.overhead_s": "s"})
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in result.get("layers", {}).items()
    }


def report(result: dict, metrics: dict) -> None:
    print(
        f"perfbench {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']:g} trace={int(result['trace'])}"
    )
    print(
        f"  python {result['python']}, numpy {result['numpy']}, "
        f"nproc {result['nproc']}, --threads {result['threads']}"
    )
    for argv in result["argvs"]:
        print("  rank3ribbon " + " ".join(argv))
    for name, m in metrics.items():
        samples = result["samples"].get(name)
        spread = ""
        if samples:
            spread = f"  (median of {len(samples)}, min {min(samples):.4g}, max {max(samples):.4g})"
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}{spread}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  error_rate {rate:.4g} ({result['failed']} failed of {result['attempted']} operations)")
    for msg in result["messages"]:
        print("  FAIL " + msg.strip().splitlines()[-1][:300])


def save(result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rank3ribbon" / "cli.py").is_file():
        print(f"perfbench: no rank3ribbon source under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save(result)
        own = per_layer(result) if args.trace else end_to_end(result)
        report(result, own)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in own.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
