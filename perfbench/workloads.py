"""The four workloads: op lists made from a seed, how each op runs, and its check.

The seed sets only the op order and the exact n inside each band; the
ratios, bands and grids are fixed, so every seed asks for the same kind
and amount of work.  Each check returns None for a correct output or a
Failure; ``Tally`` counts both kinds of failure against the ops attempted.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from reference import Reference, residues_of
from spans import PROBE_MARK

RATIOS = tuple((p, q) for p in range(1, 7) for q in range(1, 7))
TERM_BANDS = (4000, 12000, 24000)
SEQUENCE_BANDS = (1000, 2500, 4000)
BAND_SHARE = 0.02  # n is drawn within +-2% of the band centre
SEQUENCE_SAMPLES = 3  # random indices per sequence op checked against Reference
CLI_TIMEOUT_S = 60
INT_STR_LIMIT = 4300  # CPython's default int-to-decimal digit limit


class Failure(NamedTuple):
    kind: str  # "wrong": a value that fails its check; "error": no value delivered
    detail: str


@dataclass(frozen=True)
class Op:
    args: tuple
    label: str  # what the op runs: the workload, verify suite or CLI command


class Tally:
    """Every op attempted, and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.first_failures: list[str] = []

    def record(self, op: Op, failure: Failure | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        if failure.kind == "wrong":
            self.wrong += 1
        else:
            self.errors += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(f"{op.label} {op.args}: {failure.detail}")

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def int_str_limit() -> int:
    """sys.get_int_max_str_digits(), or 0 (no limit) before Python 3.11."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


def _band(rng: random.Random, centre: int) -> int:
    """n within BAND_SHARE of centre; a band under one step wide is its centre.

    The oracle and enumeration ops near n = 16 and 10 take time
    exponential in n, so a step of one would change their work by far
    more than the band's share.
    """
    half = round(centre * BAND_SHARE)
    return rng.randint(centre - half, centre + half)


def check_residues(value, expected: tuple[int, ...]) -> Failure | None:
    if not isinstance(value, int) or isinstance(value, bool):
        return Failure("wrong", f"expected an int, got {type(value).__name__}")
    if residues_of(value) != expected:
        return Failure("wrong", "count differs from the reference residues")
    return None


def check_sequence(n: int, values: list, entries: list, samples: list) -> Failure | None:
    """values[0..n] as computed, entries as parsed back from the b-file."""
    if entries != list(zip(range(1, n + 1), values[1:])):
        return Failure("wrong", "parsed b-file differs from the computed values")
    for i, expected in samples:
        failure = check_residues(values[i], expected)
        if failure:
            return Failure("wrong", f"index {i}: {failure.detail}")
    return None


class Workload:
    name = ""
    why = ""
    setup_module = "schreier"  # what a user of this workload imports first

    def execute(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, result) -> Failure | None:
        raise NotImplementedError

    def counters(self, op: Op, result) -> dict[str, int]:
        """Per-op counts summed over a pass (e.g. bytes written)."""
        return {}

    def params(self) -> dict:
        """The op-list parameters, for the run record."""
        return {}


class TermWorkload(Workload):
    name = "term"
    why = "one count per op: the single-term recurrence does almost all the work"

    def __init__(self, lib, seed: int, ref: Reference, root: Path) -> None:
        rng = random.Random(seed)
        self.lib = lib
        self.ops = [
            Op((p, q, _band(rng, centre)), "term")
            for centre in TERM_BANDS
            for p, q in RATIOS
        ]
        rng.shuffle(self.ops)
        self.ratios = {pq: lib.Ratio(*pq) for pq in RATIOS}
        self.expected = {op: ref.residues(*op.args) for op in self.ops}

    def execute(self, op: Op, tracer=None):
        p, q, n = op.args
        return self.lib.count_schreier_recurrence(n, self.ratios[(p, q)])

    def check(self, op: Op, result) -> Failure | None:
        return check_residues(result, self.expected[op])

    def params(self) -> dict:
        return {
            "ratios": "1<=p,q<=6",
            "n_bands": TERM_BANDS,
            "band_share": BAND_SHARE,
            "ops": [list(op.args) for op in self.ops],
        }


class SequenceWorkload(Workload):
    name = "sequence"
    why = "every term of a prefix, then b-file render and parse: the forward pass and text I/O"

    def __init__(self, lib, seed: int, ref: Reference, root: Path) -> None:
        rng = random.Random(seed)
        self.lib = lib
        self.ops = [
            Op((p, q, _band(rng, centre)), "sequence")
            for centre in SEQUENCE_BANDS
            for p, q in RATIOS
        ]
        rng.shuffle(self.ops)
        self.ratios = {pq: lib.Ratio(*pq) for pq in RATIOS}
        self.samples = {}
        for op in self.ops:
            p, q, n = op.args
            indices = [n] + [rng.randint(1, n - 1) for _ in range(SEQUENCE_SAMPLES)]
            self.samples[op] = [(i, ref.residues(p, q, i)) for i in indices]

    def execute(self, op: Op, tracer=None):
        p, q, n = op.args
        sequence = self.lib.schreier_sequence(self.ratios[(p, q)], n)
        text = self.lib.bfile_from_sequence(sequence).render()
        return sequence, text, self.lib.parse_bfile(text)

    def check(self, op: Op, result) -> Failure | None:
        sequence, _, parsed = result
        n = op.args[2]
        values = [sequence[i] for i in range(n + 1)]
        return check_sequence(n, values, list(parsed.entries), self.samples[op])

    def counters(self, op: Op, result) -> dict[str, int]:
        return {"bfile.bytes": len(result[1].encode())}

    def params(self) -> dict:
        return {
            "ratios": "1<=p,q<=6",
            "prefix_bands": SEQUENCE_BANDS,
            "band_share": BAND_SHARE,
            "sampled_indices_per_op": SEQUENCE_SAMPLES + 1,
            "ops": [list(op.args) for op in self.ops],
        }


# suite label -> (function in schreier.verify, reduced grid, cases pinned for that grid)
VERIFY_SUITES = {
    # 6 * 6 * 150
    "formula": ("formula_suite", {"p_max": 6, "q_max": 6, "n_max": 150}, 5400),
    # 4 * 4 * 18
    "recurrence": ("recurrence_suite", {"p_max": 4, "q_max": 4, "n_max": 18}, 288),
    # 3 * 3 cells * 3 factors * 201 values of n
    "scale_invariance": (
        "scale_invariance_suite",
        {"p_max": 3, "q_max": 3, "n_max": 200},
        5427,
    ),
    # sum over p, q <= 3 of (15 - p - q) * (2^q - 1) gap choices
    "gap_bijections": ("gap_bijection_suite", {"p_max": 3, "q_max": 3, "n_max": 14}, 345),
    # sum over p, q <= 3 of 2 * (15 - p - q)
    "window_bijections": (
        "window_bijection_suite",
        {"p_max": 3, "q_max": 3, "n_max": 14},
        198,
    ),
    # 10 * 200
    "interval_agreement": ("interval_agreement_suite", {"p_max": 10, "n_max": 200}, 2000),
    # sum over p <= 20 of (301 - p), plus 100 quarter squares
    "turan_cross": (
        "turan_cross_suite",
        {"p_max": 20, "n_max": 300, "quarter_n_max": 100},
        5910,
    ),
    # sum over p <= 20 of (301 - p)
    "turan_identity": (
        "turan_identity_suite",
        {"p_max": 20, "n_max": 300, "enum_limit": 150},
        5810,
    ),
}


def check_report(report, pinned_cases: int) -> Failure | None:
    if not report.passed or report.failures:
        return Failure("wrong", f"suite failed: {report.failures[:1]}")
    if report.cases != pinned_cases:
        return Failure("wrong", f"{report.cases} cases, grid pins {pinned_cases}")
    return None


class VerifyWorkload(Workload):
    name = "verify"
    why = "the paper's cross-checks: direct sum, oracle, enumeration, bijections and Turan legs"

    def __init__(self, lib, seed: int, ref: Reference, root: Path) -> None:
        self.lib = lib
        self.ops = [Op((suite,), suite) for suite in VERIFY_SUITES]
        random.Random(seed).shuffle(self.ops)

    def execute(self, op: Op, tracer=None):
        function, grid, _ = VERIFY_SUITES[op.label]
        return getattr(self.lib.verify, function)(**grid)

    def check(self, op: Op, result) -> Failure | None:
        return check_report(result, VERIFY_SUITES[op.label][2])

    def counters(self, op: Op, result) -> dict[str, int]:
        return {"verify.cases": result.cases}

    def params(self) -> dict:
        return {
            "suites": {
                label: {"grid": grid, "pinned_cases": cases}
                for label, (_, grid, cases) in VERIFY_SUITES.items()
            },
            "order": [op.label for op in self.ops],
        }


def check_exit(returncode: int, stdout: str, expected_digest: str) -> Failure | None:
    if returncode != 0:
        return Failure("error", f"exit code {returncode}")
    if hashlib.sha256(stdout.encode()).hexdigest() != expected_digest:
        return Failure("wrong", "stdout differs from the library value")
    return None


class CliWorkload(Workload):
    name = "cli"
    why = "python -m schreier per op: interpreter start and import dominate small commands"
    setup_module = "schreier.cli"

    def __init__(self, lib, seed: int, ref: Reference, root: Path) -> None:
        rng = random.Random(seed)
        self.root = root
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.probe = str(Path(__file__).with_name("cli_probe.py"))
        self.phases_ms: dict[str, list[float]] = {"interpreter": [], "import": [], "main": []}
        commands = self._commands(lib, rng)
        rng.shuffle(commands)
        self.ops = [Op(tuple(argv), argv[0]) for argv, _ in commands]
        # The expected output is the benchmark's own reference computation, so
        # it may lift the decimal-conversion limit the program runs under.
        limit = int_str_limit()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            outputs = [expect() for _, expect in commands]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        self.expected = {
            op: hashlib.sha256(out.encode()).hexdigest()
            for op, out in zip(self.ops, outputs)
        }
        self.over_limit = sum(
            1
            for op, out in zip(self.ops, outputs)
            if op.label == "count" and len(out) - 1 > INT_STR_LIMIT
        )

    @staticmethod
    def _commands(lib, rng: random.Random) -> list:
        """(argv, expected-stdout thunk) pairs; the thunks call the library."""
        Ratio = lib.Ratio
        count_fns = {
            "recurrence": lib.count_schreier_recurrence,
            "direct": lib.count_schreier_direct,
            "oracle": lib.count_schreier_bruteforce,
        }

        def count(p, q, n, method="recurrence"):
            argv = ["count", "--p", str(p), "--q", str(q), "--n", str(n)]
            if method != "recurrence":
                argv += ["--method", method]
            return argv, lambda: f"{count_fns[method](n, Ratio(p, q))}\n"

        def sequence(p, q, n_max, fmt):
            argv = ["sequence", "--p", str(p), "--q", str(q), "--max", str(n_max)]
            argv += ["--format", fmt]

            def expect():
                seq = lib.schreier_sequence(Ratio(p, q), n_max)
                if fmt == "csv":
                    return ",".join(str(seq[n]) for n in range(1, n_max + 1)) + "\n"
                return lib.bfile_from_sequence(seq).render()

            return argv, expect

        def enumerate_(p, q, n):
            argv = ["enumerate", "--p", str(p), "--q", str(q), "--n", str(n)]
            return argv, lambda: "".join(
                f"{member}\n" for member in lib.enumerate_schreier(n, Ratio(p, q))
            )

        def turan(n, parts, method):
            fn = lib.turan_edges_formula if method == "formula" else lib.turan_edges_construction
            argv = ["turan", "--n", str(n), "--parts", str(parts), "--method", method]
            return argv, lambda: f"{fn(n, parts)}\n"

        def interval(n, p, method):
            fn = {
                "closed": lib.interval_count_closed,
                "sum": lib.interval_count_sum,
                "enum": lib.count_interval_bruteforce,
            }[method]
            argv = ["interval-count", "--n", str(n), "--p", str(p), "--method", method]
            return argv, lambda: f"{fn(n, p)}\n"

        commands = []
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                commands += [count(p, q, _band(rng, c)) for c in (50, 500, 2000)]
                commands.append(count(p, q, _band(rng, 60), "direct"))
                commands.append(count(p, q, _band(rng, 16), "oracle"))
                commands += [sequence(p, q, _band(rng, c), "bfile") for c in (100, 600)]
                commands.append(enumerate_(p, q, _band(rng, 10)))
        for parts in range(2, 8):
            for method in ("formula", "graph"):
                commands.append(turan(_band(rng, 100), parts, method))
        for p in range(1, 5):
            for method in ("closed", "sum", "enum"):
                commands.append(interval(_band(rng, 200), p, method))
        # the README's examples
        commands += [
            count(1, 1, 10),
            count(3, 2, 50, "direct"),
            sequence(1, 2, 8, "csv"),
            sequence(1, 1, 6, "bfile"),
            enumerate_(1, 2, 4),
            turan(10, 3, "formula"),
            interval(12, 2, "closed"),
        ]
        # over CPython's 4300-digit str() limit: a known failure that must stay
        commands.append(count(1, 1, 30000))
        return commands

    def execute(self, op: Op, tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "schreier", *op.args]
        else:
            argv = [sys.executable, self.probe, str(time.monotonic_ns()), *op.args]
        done = subprocess.run(
            argv,
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if tracer is not None:
            self._fold_probe(done.stderr, tracer)
        return done.returncode, done.stdout

    def _fold_probe(self, stderr: str, tracer) -> None:
        lines = [line for line in stderr.splitlines() if line.startswith(PROBE_MARK)]
        if not lines:
            return
        record = json.loads(lines[-1][len(PROBE_MARK) :])
        for phase in self.phases_ms:
            self.phases_ms[phase].append(record[f"{phase}_ns"] / 1e6)
        for layer, (calls, self_ns) in record["layers"].items():
            tracer.add(layer, calls, self_ns)

    def check(self, op: Op, result) -> Failure | None:
        returncode, stdout = result
        return check_exit(returncode, stdout, self.expected[op])

    def params(self) -> dict:
        return {
            "ops_by_command": dict(Counter(op.label for op in self.ops)),
            "over_limit_count_ops": self.over_limit,
            "over_limit_share": self.over_limit / len(self.ops),
            "ops": [" ".join(op.args) for op in self.ops],
        }


WORKLOADS = {
    w.name: w for w in (TermWorkload, SequenceWorkload, VerifyWorkload, CliWorkload)
}
