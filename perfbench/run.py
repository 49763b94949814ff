"""Benchmark of the schreier library and CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table each

NAME is term, sequence, verify or cli (see perfbench/README.md).  One
client runs the workload's ops back to back (cli ops each start one
``python -m schreier`` child), repeating passes over the op list while
another pass still fits in S seconds.  Each pass runs in a child forked
from this fresh interpreter after import, so no pass sees what an
earlier one left behind.  Every timing is corrected to the reference
speed of pace.py, which takes out most of the CPU's own changes of
speed.  Every output is checked.  With --trace 0 the end-to-end metrics
are reported; with --trace 1 passes alternate
untraced and traced, and the per-layer metrics are reported.  A table
goes to stderr; the last two stdout lines are the run record and the
result JSON.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import pace
import selftest
import spans
from reference import Reference
from workloads import VERIFY_SUITES, WORKLOADS, Failure, Tally, int_str_limit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in spans.layer_names()
     for kind, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"verify.{suite}.ms", "ms") for suite in VERIFY_SUITES]
    + [
        ("verify.cases", "count"),
        ("bfile.bytes", "bytes"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.main_ms", "ms"),
        ("trace.overhead_frac", "frac"),
    ]
)
SETUP_PER_PASS = 5  # import timings before every pass and after the last
PROBE_CODE = (
    "import time; t = time.perf_counter(); import {module} as m; "
    "t = time.perf_counter() - t; print(t, m.__file__)"
)
PIN_TRIES = 3  # kernel timings on each CPU when choosing where a pass runs
# A failed op misses any latency limit; a percentile that lands on one reads this.
MISSED_MS = 60_000.0


def setup_samples(module: str, count: int) -> list[float]:
    """Seconds to import ``module``, each in a fresh interpreter, at the reference speed.

    The pace kernel is timed before every import and after the last.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    kernels = [pace.kernel()]
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", PROBE_CODE.format(module=module)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"{module} was imported from {path}, not from {SRC}")
        samples.append(float(seconds))
        kernels.append(pace.kernel())
    return pace.paced(samples, kernels)


def run_pass(workload, tracer) -> dict:
    """One pass over the op list; busy time excludes the benchmark's checks.

    The pace kernel is timed before every op and after the last; the
    op's own timing does not include it.
    """
    gc.collect()
    kernels: list[float] = []
    raw_ms: list[float] = []
    failures: list[Failure | None] = []
    counters: dict[str, int] = {}
    label_ms: dict[str, float] = {}
    if tracer is not None:
        tracer.install()
    try:
        for op in workload.ops:
            kernels.append(pace.kernel())
            start = perf_counter_ns()
            try:
                if tracer is None:
                    result = workload.execute(op)
                else:
                    result = tracer.call(f"op.{workload.name}", workload.execute, op, tracer)
            except Exception as exc:  # the op failed; count it and go on
                elapsed = perf_counter_ns() - start
                failure = Failure("error", f"{type(exc).__name__}: {exc}")
            else:
                elapsed = perf_counter_ns() - start
                try:
                    failure = workload.check(op, result)
                except Exception as exc:  # an output the check cannot read
                    failure = Failure("wrong", f"unreadable output: {exc!r}")
                if failure is None:
                    for key, value in workload.counters(op, result).items():
                        counters[key] = counters.get(key, 0) + value
            result = None
            raw_ms.append(elapsed / 1e6)
            failures.append(failure)
        kernels.append(pace.kernel())
    finally:
        if tracer is not None:
            tracer.uninstall()
    paced_ms = pace.paced(raw_ms, kernels)
    for op, ms in zip(workload.ops, paced_ms):
        label_ms[op.label] = label_ms.get(op.label, 0.0) + ms
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    done = {
        "traced": tracer is not None,
        "busy_s": sum(paced_ms) / 1e3,
        "raw_busy_s": sum(raw_ms) / 1e3,
        "kernel_ms": statistics.median(kernels) * 1e3,
        "outcomes": list(zip(paced_ms, failures)),
        "counters": counters,
        "label_ms": label_ms,
        "peak_kb": resource.getrusage(who).ru_maxrss,  # kilobytes on Linux
        "phases_ms": getattr(workload, "phases_ms", {}),
    }
    if tracer is not None:
        done["stats"], done["spans"] = tracer.take()
        done["absent"] = list(tracer.absent)
    return done


def forked_pass(workload, traced: bool) -> dict:
    """Run one pass in a forked child and return what ``run_pass`` gave there.

    The child starts from the state right after import: the benchmark's
    process never runs an op itself, so nothing the program caches in one
    pass survives into the next, although every pass repeats the same ops.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            done = run_pass(workload, spans.Tracer() if traced else None)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(done, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"the pass process failed with status {status}")
    return pickle.loads(data)


def pin_to_fastest_cpu(cpus: list[int]) -> int | None:
    """Pin this process and the children it starts to the CPU that is fastest now.

    The CPUs of a shared machine slow down independently, for seconds at a
    time; the best of a few kernel timings on each one picks the fastest.
    Pinned, a pass does not move between CPUs of different speeds.
    Returns the CPU, or None when there is no choice.
    """
    if len(cpus) < 2:
        return None
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(pace.kernel() for _ in range(PIN_TRIES)), cpu))
    fastest = min(timings)[1]
    os.sched_setaffinity(0, {fastest})
    return fastest


def measure(workload, seconds: int, trace: bool, tally: Tally) -> tuple[list, list]:
    """Repeat passes while another one fits in ``seconds``; with trace, alternate.

    A window before every pass, and one after the last, pins this process
    to the CPU that is fastest at that moment and takes SETUP_PER_PASS
    import timings.  Returns the passes and the windows.
    """
    passes: list[dict] = []
    windows: list[dict] = []
    walls: list[float] = []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def window() -> None:
        cpu = pin_to_fastest_cpu(cpus)
        windows.append({"cpu": cpu,
                        "setup": setup_samples(workload.setup_module, SETUP_PER_PASS)})

    started = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = perf_counter()
        window()
        done = forked_pass(workload, traced)
        done["cpu"] = windows[-1]["cpu"]
        for op, (_, failure) in zip(workload.ops, done["outcomes"]):
            tally.record(op, failure)
        walls.append(perf_counter() - t0)
        if traced:  # keep only the last traced pass's spans
            for earlier in passes:
                earlier.pop("spans", None)
        passes.append(done)
        if trace and not traced:
            continue
        if perf_counter() - started + statistics.median(walls) > seconds:
            window()
            return passes, windows


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; a failed op (inf) reads as MISSED_MS."""
    ranked = sorted(values)
    value = ranked[max(0, math.ceil(len(ranked) * share) - 1)]
    return MISSED_MS if math.isinf(value) else value


def end_to_end(workload, passes: list[dict], tally: Tally, setup: list[float],
               peak_kb: int) -> dict:
    """``run_s`` sums each op's median paced latency over the run's passes;
    the percentiles rank every paced latency of every pass.

    Every pass starts from the state right after import, so no pass is
    faster for what an earlier one cached.  A failed op misses every
    latency limit.
    """
    n = len(workload.ops)
    typical = [statistics.median(p["outcomes"][i][0] for p in passes) for i in range(n)]
    latencies = [math.inf if failure else ms for p in passes for ms, failure in p["outcomes"]]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "run_s": (sum(typical) / 1000, len(passes)),
        "op_p50_ms": (percentile(latencies, 0.5), len(latencies)),
        "op_p90_ms": (percentile(latencies, 0.9), len(latencies)),
        "peak_rss_mb": (peak_kb / 1024, 1),
        "ok_frac": (1 - tally.fail_frac, tally.attempted),
    }


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Layer timings at the reference speed, scaled by their pass's pace."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics: dict[str, tuple[float, int]] = {}
    for layer in spans.layer_names():
        calls = [p["stats"].get(layer, [0, 0])[0] for p in traced]
        self_ms = [p["stats"].get(layer, [0, 0])[1] / 1e6 * pace_of(p) for p in traced]
        metrics[f"{layer}.calls"] = (calls[-1], len(traced))
        metrics[f"{layer}.self_ms"] = (statistics.median(self_ms), len(traced))
    for suite in VERIFY_SUITES:
        ms = [p["label_ms"].get(suite, 0.0) for p in plain]
        metrics[f"verify.{suite}.ms"] = (statistics.median(ms), len(plain))
    for key in ("verify.cases", "bfile.bytes"):
        metrics[key] = (plain[-1]["counters"].get(key, 0), len(plain))
    for phase in ("interpreter", "import", "main"):
        values = [ms * pace_of(p) for p in traced for ms in p["phases_ms"].get(phase, [])]
        metrics[f"cli.{phase}_ms"] = (statistics.median(values or [0.0]), len(values))
    overhead = (statistics.median(p["busy_s"] for p in traced)
                / statistics.median(p["busy_s"] for p in plain) - 1)
    metrics["trace.overhead_frac"] = (overhead, len(passes))

    absent_names = traced[-1]["absent"]
    calls_per_pass = [{k: v[0] for k, v in p["stats"].items()} for p in traced]
    notes = {
        "absent_layers": [
            layer
            for layer, module, names in spans.LAYERS
            if all(f"schreier.{module}.{name}" in absent_names for name in names)
        ],
        "absent_names": absent_names,
        "calls_repeat_across_passes": all(c == calls_per_pass[0] for c in calls_per_pass),
    }
    return metrics, notes


def pace_of(done: dict) -> float:
    """The factor that takes a pass's raw timings to the reference speed."""
    return done["busy_s"] / done["raw_busy_s"]


def git_commit() -> str:
    """HEAD's commit read from .git, without asking git to search parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def write_spans(name: str, seed: int, kept: list) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.tsv"
    with path.open("w") as fh:
        fh.write("span\tparent\tlayer\tstart_ns\tend_ns\n")
        for row in kept:
            fh.write("\t".join(map(str, row)) + "\n")
    return str(path.relative_to(ROOT))


def print_table(name: str, metrics: dict, units: dict, tally: Tally, absent: list) -> None:
    rows = [(key, value, units[key], samples) for key, (value, samples) in metrics.items()]
    rows.append(("fail_frac", tally.fail_frac, "frac", tally.attempted))
    for key, value, unit, samples in rows:
        mark = "  absent" if key.rpartition(".")[0] in absent else ""
        print(f"{name:9} {key:38} {value:>14.6g} {unit:6} n={samples}{mark}", file=sys.stderr)


def run_workload(args) -> int:
    if not (SRC / "schreier" / "__init__.py").is_file():
        print(f"error: no schreier package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    setup_samples(cls.setup_module, 1)  # warms the file cache; not counted
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("schreier")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"schreier was imported from {lib.__file__}, not from {SRC}")
    # Load every traced module up front, so the tracer finds what exists.
    for module in sorted({module for _, module, _ in spans.LAYERS}):
        try:
            importlib.import_module(f"schreier.{module}")
        except ModuleNotFoundError:
            pass
    workload = cls(lib, args.seed, Reference(), ROOT)

    tally = Tally()
    passes, windows = measure(workload, args.seconds, bool(args.trace), tally)
    setup = [s for w in windows for s in w["setup"]]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "int_max_str_digits": int_str_limit(),
        "nproc": os.cpu_count(),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "git_commit": git_commit(),
        "passes": {
            "untraced": sum(not p["traced"] for p in passes),
            "traced": sum(p["traced"] for p in passes),
        },
        "pace": {
            "exponent": pace.EXPONENT,
            "nominal_ms": pace.NOMINAL_S * 1e3,
            "pass_kernel_ms": [p["kernel_ms"] for p in passes],
            "pass_raw_busy_s": [p["raw_busy_s"] for p in passes],
        },
        "pass_cpus": [p["cpu"] for p in passes],
        "setup_windows": len(windows),
        "ops_per_pass": len(workload.ops),
        "fail_frac": tally.fail_frac,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "first_failures": tally.first_failures,
        "params": workload.params(),
    }
    if args.trace:
        metrics, notes = per_layer(passes)
        record.update(notes)
        last = next(p for p in reversed(passes) if p["traced"])
        record["spans_file"] = write_spans(workload.name, args.seed, last["spans"])
        units = dict(PER_LAYER)
    else:
        peak_kb = max(p["peak_kb"] for p in passes)
        plain = [p for p in passes if not p["traced"]]
        metrics = end_to_end(workload, plain, tally, setup, peak_kb)
        units = dict(END_TO_END)
    record["samples"] = {key: samples for key, (_, samples) in metrics.items()}

    print_table(workload.name, metrics, units, tally, record.get("absent_layers", []))
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, (value, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if done.returncode:
            return done.returncode
        *_, record, result = done.stdout.splitlines()
        print(record)
        result = json.loads(result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    problems = selftest.run()
    for line in problems:
        print(f"self-test: {line}", file=sys.stderr)
    if problems:
        print("self-test: FAIL", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
