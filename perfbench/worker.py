"""One repetition of a workload, in a fresh interpreter.

    python3 worker.py '<spec json>'

The spec gives the CLI argument lists, the check and whether to trace.  The
worker runs `rank3ribbon.cli.run` on each argument list in turn, exactly as
the command line does, with stdout captured in memory.  It times the calls,
then checks the outputs and prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(spec: dict) -> dict:
    import numpy
    import rank3ribbon
    from rank3ribbon import cli

    import checks

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rank3ribbon.__file__).startswith(src + os.sep):
        raise SystemExit(f"rank3ribbon imported from {rank3ribbon.__file__}, not {src}")

    trace = None
    if spec["trace"]:
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install()
    outputs: list[tuple[int | None, str]] = []
    errors: list[str] = []
    start = time.perf_counter()
    for argv in spec["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        span = trace.recorder.open("cli.run") if trace else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # a crash fails this call's operations, not the run
            code = None
            errors.append(traceback.format_exc())
        finally:
            if span is not None:
                trace.recorder.close(span)
        outputs.append((code, out.getvalue()))
        if err.getvalue():
            errors.append(err.getvalue())
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if trace:
        trace.restore()

    text = "".join(o for _, o in outputs)
    output_bytes = len(text.encode())
    try:
        failed = checks.check_outputs(spec["check"], outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        failed = {op: f"unreadable output: {exc!r}" for op in checks.operations(spec["check"])}
    result = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "output_bytes": output_bytes,
        "attempted": len(checks.operations(spec["check"])),
        "failed": failed,
        "errors": errors[:5],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if trace:
        result["layers"] = trace.metrics(output_bytes)
        result["spans"] = trace.span_summary()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
