"""Run one schreier command as ``python -m schreier`` does, timing its phases.

Usage: python3 perfbench/cli_probe.py SPAWN_NS ARG...

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so the interpreter's start-up shows as the gap to this script's
first line.  The command's stdout and exit code pass through unchanged;
the last stderr line is PROBE_MARK followed by JSON with the phase times
and the calls and self time of each traced layer.  Run with PYTHONPATH
pointing at the checkout's src directory.
"""

import time

STARTED_NS = time.monotonic_ns()

import sys  # noqa: E402


def main() -> int:
    spawned_ns = int(sys.argv[1])
    t0 = time.monotonic_ns()
    import schreier.cli

    t1 = time.monotonic_ns()
    import spans

    tracer = spans.Tracer()
    tracer.install()
    t2 = time.monotonic_ns()
    try:
        code = schreier.cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    t3 = time.monotonic_ns()
    sys.stdout.flush()

    import json

    record = {
        "interpreter_ns": STARTED_NS - spawned_ns,
        "import_ns": t1 - t0,
        "main_ns": t3 - t2,
        "layers": tracer.stats,
    }
    print(spans.PROBE_MARK + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
