"""Command-line interface: golden outputs and the exit-code contract."""

import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schreier.cli
import schreier.counting
import schreier.verify
from schreier import (
    INTERVAL_LIMIT,
    DomainError,
    INTERVAL_SUM_LIMIT,
    ORACLE_LIMIT,
    Ratio,
    count_schreier_direct,
    enumerate_schreier,
    interval_count_closed,
    parse_bfile,
)
from schreier.cli import build_parser, main
from schreier.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["count", "--p", "1", "--q", "1", "--n", "10", "--method", "recurrence"], "55\n"),
        (["count", "--p", "1", "--q", "2", "--n", "4", "--method", "oracle"], "5\n"),
        (["count", "--p", "2", "--q", "1", "--n", "1", "--method", "direct"], "0\n"),
        (["sequence", "--p", "1", "--q", "1", "--max", "6", "--format", "csv"], "1,1,2,3,5,8\n"),
        (["sequence", "--p", "1", "--q", "1", "--max", "1", "--format", "csv"], "1\n"),
        (["enumerate", "--p", "1", "--q", "1", "--n", "3"], "{3}\n{2,3}\n"),
        (["enumerate", "--p", "1", "--q", "1", "--n", "1"], "{1}\n"),
        (["enumerate", "--p", "3", "--q", "1", "--n", "2"], ""),
        (["turan", "--n", "5", "--parts", "2", "--method", "formula"], "6\n"),
        (["turan", "--n", "7", "--parts", "3", "--method", "graph"], "16\n"),
        (["turan", "--n", "3", "--parts", "1"], "0\n"),
        (["interval-count", "--n", "3", "--p", "2", "--method", "closed"], "5\n"),
        (["interval-count", "--n", "1", "--p", "9", "--method", "sum"], "1\n"),
        (["interval-count", "--n", "3", "--p", "5", "--method", "enum"], "6\n"),
        # n = 0 has no members on every route
        (["count", "--p", "1", "--q", "1", "--n", "0", "--method", "oracle"], "0\n"),
        (["enumerate", "--p", "1", "--q", "1", "--n", "0"], ""),
        # part sizes are counted, not listed: 10^12 of them need no memory
        (["turan", "--n", "3", "--parts", "1000000000000", "--method", "graph"], "3\n"),
    ],
)
def test_golden_outputs(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_sequence_bfile_output(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--p", "1", "--q", "2", "--max", "5", "--format", "bfile"
    )
    assert code == 0
    assert out == "1 1\n2 2\n3 3\n4 5\n5 9\n"


def test_sequence_bfile_roundtrips(capsys):
    _, out, _ = run_cli(
        capsys, "sequence", "--p", "2", "--q", "3", "--max", "40", "--format", "bfile"
    )
    parsed = parse_bfile(out)
    assert parsed.entries[0][0] == 1
    assert parsed.entries[-1][0] == 40
    assert [v for _, v in parsed.entries] == [
        schreier.counting.count_schreier_recurrence(n, Ratio(2, 3))
        for n in range(1, 41)
    ]


def test_sequence_include_zero_and_offset(capsys):
    _, out, _ = run_cli(
        capsys, "sequence", "--p", "1", "--q", "1", "--max", "5", "--offset", "0"
    )
    assert out == "0,1,1,2,3,5\n"
    _, out, _ = run_cli(
        capsys,
        "sequence", "--p", "1", "--q", "1", "--max", "6",
        "--format", "bfile", "--offset", "4",
    )
    assert out == "4 3\n5 5\n6 8\n"


def test_count_methods_agree(capsys):
    values = set()
    for method in ("oracle", "recurrence", "direct"):
        code, out, _ = run_cli(
            capsys, "count", "--p", "2", "--q", "3", "--n", "14", "--method", method
        )
        assert code == 0
        values.add(out)
    assert len(values) == 1


def test_oracle_guard_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "count", "--p", "1", "--q", "1", "--n", "31", "--method", "oracle"
    )
    assert code == 3
    assert "instance too large for oracle" in err
    code, _, _ = run_cli(capsys, "enumerate", "--p", "1", "--q", "1", "--n", "99")
    assert code == 3


def test_enumerate_refuses_before_any_output(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--p", "1", "--q", "1", "--n", "31")
    assert code == 3
    assert out == ""
    assert "n=31 exceeds the n <= 30 guard" in err


def test_enumerate_streams_the_listing_byte_for_byte(capsys):
    for p in range(1, 4):
        for q in range(1, 4):
            for n in range(13):
                code, out, _ = run_cli(
                    capsys, "enumerate", "--p", str(p), "--q", str(q), "--n", str(n)
                )
                assert code == 0
                listing = enumerate_schreier(n, Ratio(p, q))
                assert out == "".join(f"{member}\n" for member in listing)


def test_enumerate_holds_one_member_at_a_time(monkeypatch):
    # every one of the 2**15 sets at n = 16 is a member for p/q = 1/100
    argv = ["enumerate", "--p", "1", "--q", "100", "--n", "16"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            streamed_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    listing = enumerate_schreier(16, Ratio(1, 100))
    # what the whole tuple holds: the members and their element tuples
    held = sys.getsizeof(listing) + sum(
        sys.getsizeof(fs) + sys.getsizeof(fs.elements) for fs in listing
    )
    assert len(listing) == 1 << 15
    assert streamed_peak * 20 < held


def child_env():
    """This package's directory first on PYTHONPATH; stdout buffered, as in a shell."""
    src = str(Path(schreier.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # 2**17 members at n = 18 overrun any pipe buffer after the first line
        (["enumerate", "--p", "1", "--q", "100", "--n", "18"], b"{18}\n"),
        # a short answer is still in stdout's buffer when its command returns
        (["count", "--p", "1", "--q", "1", "--n", "10"], None),
    ],
    ids=["mid-listing", "at-the-last-flush"],
)
def test_a_closed_pipe_exits_141_without_a_traceback(argv, first_line):
    with subprocess.Popen(
        [sys.executable, "-m", "schreier", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as child:
        if first_line is not None:
            assert child.stdout.readline() == first_line
        child.stdout.close()
        assert child.wait(timeout=60) == 141
        assert child.stderr.read() == b""


@pytest.mark.parametrize(
    "argv, out",
    [
        (["count", "--p", "1", "--q", "100000000", "--n", "5"], "16\n"),
        (["sequence", "--p", "1", "--q", "100000000", "--max", "3"], "1,2,4\n"),
    ],
    ids=["count", "sequence"],
)
def test_a_head_far_below_a_huge_depth_answers_within_10_s(argv, out):
    # depth 10^8 + 1: the pass builds only the running sums that n reaches
    child = subprocess.run(
        [sys.executable, "-m", "schreier", *argv],
        capture_output=True, text=True, env=child_env(), timeout=10,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, out, "")


def test_importing_the_cli_leaves_heapq_unloaded():
    # only a listing merges strides, so no other command pays for heapq
    probe = "import sys, schreier.cli; print('heapq' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")


def fresh_child(code):
    """stdout of ``code`` run by a new interpreter, which must exit 0 in silence."""
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


def test_importing_the_cli_leaves_the_verify_layers_unloaded():
    # measured against a bare interpreter, whatever its site start-up preloads
    probe = "import sys{}; print(*sorted(sys.modules))"
    bare = set(fresh_child(probe.format("")).split())
    loaded = set(fresh_child(probe.format(", schreier.cli")).split())
    assert not {
        "schreier.verify", "schreier.bijections", "schreier.bfile", "dataclasses", "inspect"
    } & (loaded - bare)
    assert {"schreier.cli", "schreier.counting"} <= loaded
    # the verify layers build their records on sets.Frozen, not dataclasses,
    # and run_suite reads the suites' bounds from __kwdefaults__, not inspect
    layers = ", schreier.verify, schreier.bijections, schreier.bfile"
    loaded = set(fresh_child(probe.format(layers)).split())
    assert not {"dataclasses", "inspect"} & (loaded - bare)


def test_a_csv_sequence_leaves_the_bfile_layer_unloaded():
    out = fresh_child(
        "import sys\n"
        "from schreier.cli import main\n"
        "main(['sequence', '--p', '1', '--q', '1', '--max', '6', '--offset', '0'])\n"
        "print('schreier.bfile' in sys.modules)"
    )
    assert out == "0,1,1,2,3,5,8\nFalse\n"


def test_importing_the_package_loads_no_submodule_until_a_name_is_read():
    out = fresh_child(
        "import sys, schreier\n"
        "print(*[m for m in sys.modules if m.startswith('schreier.')])\n"
        "print(schreier.verify is sys.modules['schreier.verify'])\n"
        "print([n for n in schreier.__all__ if not hasattr(schreier, n)])"
    )
    assert out == "\nTrue\n[]\n"


def test_star_import_dir_and_unknown_names():
    out = fresh_child(
        "import schreier\n"
        "space = {}\n"
        "exec('from schreier import *', space)\n"
        "print(sorted(set(space) - {'__builtins__'}) == sorted(schreier.__all__))\n"
        "print(set(schreier.__all__) <= set(dir(schreier)))\n"
        "for name in ('no_such_name', 'no_such_module', '_private'):\n"
        "    try:\n"
        "        getattr(schreier, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    assert out.splitlines() == [
        "True",
        "True",
        "module 'schreier' has no attribute 'no_such_name'",
        "module 'schreier' has no attribute 'no_such_module'",
        "module 'schreier' has no attribute '_private'",
    ]


def test_interval_enumeration_guard_exit_code(capsys):
    argv = ["interval-count", "--p", "2", "--method", "enum", "--n"]
    code, out, err = run_cli(capsys, *argv, str(INTERVAL_LIMIT))
    assert code == 0
    assert out == f"{interval_count_closed(INTERVAL_LIMIT, 2)}\n"
    code, out, err = run_cli(capsys, *argv, str(INTERVAL_LIMIT + 1))
    assert code == 3
    assert out == ""
    assert f"exceeds the n <= {INTERVAL_LIMIT} guard" in err
    # the interval-agreement suite's brute-force leg meets the same guard
    argv = ["verify", "--suite", "interval-agreement", "--nmax"]
    code, out, err = run_cli(capsys, *argv, str(INTERVAL_LIMIT + 1))
    assert (code, out) == (3, "")
    assert "interval enumeration" in err


def test_interval_sum_guard_exit_code(capsys):
    # the linear sum refuses before any work; the closed form has no guard
    argv = ["interval-count", "--p", "1", "--method", "sum", "--n"]
    for n in (INTERVAL_SUM_LIMIT + 1, 10**12):
        code, out, err = run_cli(capsys, *argv, str(n))
        assert (code, out) == (3, "")
        assert f"n={n} exceeds the n <= {INTERVAL_SUM_LIMIT} guard" in err
    code, out, _ = run_cli(capsys, "interval-count", "--p", "1", "--n", str(10**12))
    assert (code, out) == (0, f"{interval_count_closed(10**12, 1)}\n")


def test_bad_values_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "0", "--q", "1", "--n", "3")
    assert code == 2
    assert err == "error: --p must be a positive integer, got 0\n"
    code, _, _ = run_cli(capsys, "sequence", "--p", "1", "--q", "1", "--max", "0")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "sequence", "--p", "1", "--q", "1", "--max", "4", "--offset", "9"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suite", "formula", "--nmax", "-1")
    assert code == 2
    assert "--nmax must be a non-negative integer, got -1" in err


BELOW_MINIMUM = [  # every integer flag of every command, one below its minimum
    ("count --p 0 --q 1 --n 3", "--p", 1),
    ("count --p 1 --q 0 --n 3", "--q", 1),
    ("count --p 1 --q 1 --n -1", "--n", 0),
    ("sequence --p 0 --q 1 --max 3", "--p", 1),
    ("sequence --p 1 --q 0 --max 3", "--q", 1),
    ("sequence --p 1 --q 1 --max 0", "--max", 1),
    ("enumerate --p 0 --q 1 --n 3", "--p", 1),
    ("enumerate --p 1 --q 0 --n 3", "--q", 1),
    ("enumerate --p 1 --q 1 --n -1", "--n", 0),
    ("turan --n 0 --parts 2", "--n", 1),
    ("turan --n 5 --parts 0", "--parts", 1),
    ("interval-count --n 0 --p 1", "--n", 1),
    ("interval-count --n 3 --p 0", "--p", 1),
    ("verify --pmax -1", "--pmax", 0),
    ("verify --suite formula --qmax -1", "--qmax", 0),
    ("verify --suite turan-cross --nmax -1", "--nmax", 0),
]


@pytest.mark.parametrize(
    "command, flag, minimum",
    BELOW_MINIMUM,
    ids=[command.split()[0] + flag for command, flag, _ in BELOW_MINIMUM],
)
def test_every_integer_flag_refuses_one_below_its_minimum_by_its_name(
    capsys, command, flag, minimum
):
    # the refusal names the command's own flag, not the library parameter
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (2, "")
    rule = "a positive" if minimum else "a non-negative"
    assert err == f"error: {flag} must be {rule} integer, got {minimum - 1}\n"


def test_verify_turan_identity_refuses_an_nmax_past_the_interval_sum_guard(
    capsys, monkeypatch
):
    def summed(n, p):
        raise AssertionError("the interval sum ran")

    monkeypatch.setattr(schreier.verify, "interval_count_sum", summed)
    n = INTERVAL_SUM_LIMIT + 1
    argv = ["verify", "--suite", "turan-identity", "--pmax", "1", "--nmax", str(n)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: instance too large for the interval sum: "
        f"n={n} exceeds the n <= {INTERVAL_SUM_LIMIT} guard\n"
    )


@pytest.mark.parametrize("suite", ["recurrence", "bijections"])
def test_verify_oracle_suites_refuse_an_nmax_past_the_oracle_guard(
    capsys, monkeypatch, suite
):
    def scanned(*args):
        raise AssertionError("the oracle scanned")

    monkeypatch.setattr(schreier.verify, "_subset_tally", scanned)
    monkeypatch.setattr(schreier.verify, "_listings", scanned)
    n = ORACLE_LIMIT + 1
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--nmax", str(n))
    assert (code, out) == (3, "")
    assert err == (
        f"error: instance too large for oracle: n={n} exceeds the n <= {ORACLE_LIMIT} guard\n"
    )


def test_unparseable_flags_exit_code():
    # argparse handles usage errors itself and exits with status 2
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--p", "1", "--q", "1"])  # --n missing
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--p", "1", "--q", "1", "--n", "4", "--method", "psychic"])
    assert excinfo.value.code == 2


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "recurrence", "--pmax", "2", "--qmax", "2", "--nmax", "10",
    )
    assert code == 0
    assert "recurrence: pass" in out


def test_verify_empty_grid_is_a_usage_error(capsys):
    for argv in (
        ["--pmax", "0"],
        ["--suite", "turan-cross", "--pmax", "0"],
        ["--suite", "turan-cross", "--nmax", "0"],
        # no p, so no cell: the interval scan's guard is never reached
        ["--suite", "interval-agreement", "--pmax", "0", "--nmax", "2001"],
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "no cases" in err


def test_verify_refuses_a_bound_the_suite_does_not_take(capsys):
    for argv in (
        ["--suite", "turan-cross", "--qmax", "0"],
        ["--suite", "turan-identity", "--qmax", "3", "--pmax", "3", "--nmax", "20"],
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: suite '{argv[1]}' takes no q_max bound\n"


def test_verify_suite_choices_come_from_the_registry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == [*SUITES, "all"]


def test_verify_usage_names_every_registered_suite(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # the suite list on one help line
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bogus" in err
    listed = err.rsplit("(choose from ", 1)[1].rstrip(")\n").split(", ")
    assert [name.strip("'") for name in listed] == [*SUITES, "all"]
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "-h"])
    assert excinfo.value.code == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "one of" in line]
    assert line.split("one of ", 1)[1].split(", ") == [*SUITES, "all"]


def test_verify_failure_exit_code_under_fault_injection(capsys, monkeypatch):
    honest = schreier.counting._starts

    def corrupted(ratio, n_max):
        # P's one term at (1, 1) starts at n = 0, not 1
        return {start - ((ratio.p, ratio.q) == (1, 1)) for start in honest(ratio, n_max)}

    monkeypatch.setattr(schreier.counting, "_starts", corrupted)
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "recurrence", "--pmax", "1", "--qmax", "1", "--nmax", "6",
    )
    assert code == 1
    assert "FAIL" in out
    assert "first counterexample" in out


@pytest.mark.parametrize(
    "error", [DomainError("boom domain"), RuntimeError("boom postcondition")]
)
def test_verify_reports_a_map_that_raises_at_its_cell(capsys, monkeypatch, error):
    # neither a usage error (exit 2) nor a traceback: a failing case, exit 1
    honest = schreier.verify._collapse

    def raising(batch, gaps):
        if gaps.n == 9:
            raise error
        return honest(batch, gaps)

    monkeypatch.setattr(schreier.verify, "_collapse", raising)
    code, out, err = run_cli(
        capsys,
        "verify", "--suite", "bijections", "--pmax", "2", "--qmax", "2", "--nmax", "10",
    )
    name = type(error).__name__
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "gap-bijections: FAIL (62 cases over 1<=p<=2, 1<=q<=2, p+q<=n<=10, "
        "all gap choices, 8 failures)",  # every gap choice at n = 9
        "first counterexample: (p,q)=(1,1), n=9, gaps=(8,): "
        f"collapse raised {name}: {error}",
        "window-bijections: pass "
        "(64 cases over 1<=p<=2, 1<=q<=2, p+q<=n<=10, 0 failures)",
    ]


@pytest.fixture
def low_digit_limit():
    """Lower the int-to-str digit limit to 640 for one test, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "1", "--q", "1", "--n", "4000"],
        ["sequence", "--p", "1", "--q", "1", "--max", "4000", "--format", "csv"],
        ["sequence", "--p", "1", "--q", "1", "--max", "4000", "--format", "bfile"],
        ["count", "--p", "1", "--q", "1", "--n", "4000", "--method", "direct"],
        ["turan", "--n", str(10**330), "--parts", "2"],
        ["interval-count", "--n", str(10**330), "--p", "1"],
    ],
)
def test_count_beyond_the_digit_limit_exits_4(capsys, monkeypatch, low_digit_limit, argv):
    # F(4000) has 836 decimal digits, and the Turán and interval counts at
    # n = 10^330 have 659, all beyond the lowered limit of 640.  The refusal
    # must come before the direct sum or the forward pass runs.
    def no_direct_sum(n, ratio):
        raise AssertionError(f"direct sum ran at n={n} before the refusal")

    def no_forward_pass(ratio, n_max):
        raise AssertionError("forward pass ran before the refusal")

    monkeypatch.setattr(schreier.counting, "count_schreier_direct", no_direct_sum)
    monkeypatch.setattr(schreier.cli, "count_schreier_direct", no_direct_sum)
    monkeypatch.setattr(schreier.cli, "schreier_sequence", no_forward_pass)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "sys.get_int_max_str_digits() = 640" in err


def test_digit_limit_boundary_matches_the_printable_length(capsys, low_digit_limit):
    # turan --parts n counts the complete graph's n(n - 1)/2 edges; at the
    # largest n with n(n - 1)/2 < 10^640 that prints all 640 digits the limit
    # allows, and one vertex more is refused
    n = isqrt(2 * 10**640) + 1
    while n * (n - 1) // 2 >= 10**640:
        n -= 1
    assert (n + 1) * n // 2 >= 10**640
    code, out, _ = run_cli(capsys, "turan", "--n", str(n), "--parts", str(n))
    assert (code, len(out.strip())) == (0, 640)
    code, out, err = run_cli(capsys, "turan", "--n", str(n + 1), "--parts", str(n + 1))
    assert (code, out) == (4, "")
    assert "sys.get_int_max_str_digits() = 640" in err


@pytest.fixture
def default_digit_limit():
    """Hold the int-to-str digit limit at CPython's default of 4300 for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


ROUTES = ("count_schreier_recurrence", "count_schreier_direct", "schreier_sequence")


def forbid(patch, *routes):
    """Make each named counting route raise if the CLI calls it."""

    def ran(*args):
        raise AssertionError("a counting route ran before the refusal")

    for route in routes:
        patch.setattr(schreier.cli, route, ran)


def test_refusal_cost_is_bounded_by_the_limit(capsys, monkeypatch, default_digit_limit):
    # At (6,6) one term of the size sum passes 4300 digits far below n = 10^6,
    # so n = 10^6 and 10^12 are both refused from that term alone: no
    # counting route runs, however large n is.
    forbid(monkeypatch, *ROUTES)
    for n in (10**6, 10**12):
        code, out, err = run_cli(capsys, "count", "--p", "6", "--q", "6", "--n", str(n))
        assert code == 4
        assert out == ""
        assert "sys.get_int_max_str_digits() = 4300" in err


@pytest.mark.parametrize(
    "p,q,n",
    [(1000000, 1, 10**9), (1, 1000000, 2 * 10**6), (1000, 1, 10**7), (1, 300, 10**5)],
)
def test_a_deep_or_wide_count_is_refused_before_any_route_runs(
    capsys, monkeypatch, default_digit_limit, p, q, n
):
    # the engine at depth 10^6 + 1, a pass 10^6 sums wide, or n = 10^7 by
    # either route would take minutes; one term of the size sum refuses at once
    forbid(monkeypatch, *ROUTES)
    code, out, err = run_cli(capsys, "count", "--p", str(p), "--q", str(q), "--n", str(n))
    assert (code, out) == (4, "")
    assert "sys.get_int_max_str_digits() = 4300" in err


def test_a_deep_sequence_runs_the_forward_pass_alone(capsys, monkeypatch, default_digit_limit):
    # the terms up to --max 300000 at (100000,1) have 6 digits; no engine
    # at depth 100001 may size them first
    forbid(monkeypatch, "count_schreier_recurrence")
    code, out, _ = run_cli(capsys, "sequence", "--p", "100000", "--q", "1", "--max", "300000")
    assert code == 0
    values = out.split(",")
    assert len(values) == 300000
    assert int(values[-1]) == count_schreier_direct(300000, Ratio(100000, 1))


def test_count_runs_the_engine_once_and_direct_never(capsys, monkeypatch, default_digit_limit):
    honest = schreier.cli.count_schreier_recurrence
    sized = []

    def recording(n, ratio):
        sized.append(n)
        return honest(n, ratio)

    monkeypatch.setattr(schreier.cli, "count_schreier_recurrence", recording)
    code, out, _ = run_cli(capsys, "count", "--p", "6", "--q", "6", "--n", "20000")
    assert (code, sized) == (0, [20000])
    forbid(monkeypatch, "count_schreier_recurrence", "schreier_sequence")
    assert run_cli(
        capsys, "count", "--p", "6", "--q", "6", "--n", "20000", "--method", "direct"
    ) == (0, out, "")


def _size_terms(n, ratio):
    """C(n - ceil(ps/q), s - 1) for s = 1, 2, ... while it can be nonzero."""
    s = 1
    while (top := n - -(-ratio.p * s // ratio.q)) >= s - 1:
        yield comb(top, s - 1)
        s += 1


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "1", "--q", "1", "--n", "3065"],
        ["count", "--p", "1", "--q", "1", "--n", "3065", "--method", "direct"],
        ["sequence", "--p", "1", "--q", "1", "--max", "3065"],
    ],
)
def test_a_count_just_past_the_limit_is_refused_after_its_route(capsys, low_digit_limit, argv):
    # F(3065) has 641 digits, but no term of its size sum reaches 10^640
    # before n = 3072: the pre-check passes, and the computed count is refused
    assert all(term < 10**640 for term in _size_terms(3065, Ratio(1, 1)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert "sys.get_int_max_str_digits() = 640" in err


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 4000),
    st.sampled_from(["recurrence", "direct"]),
)
@example(1, 1, 3064, "recurrence")  # the largest n whose count fits
@example(1, 1, 3065, "direct")  # past the limit, though every term still fits
@example(1, 1, 3072, "recurrence")  # the first n with a term past the limit
@example(1, 40, 2153, "recurrence")
@settings(max_examples=60, deadline=None)
@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int-to-str digit limit",
)
def test_count_exits_4_exactly_past_the_limit_and_early_on_a_long_term(p, q, n, method):
    # the lowest limit CPython allows is 640 digits; no size-sum term may
    # reach 10^640 unless the count does, and once one does, no route runs
    ratio = Ratio(p, q)
    count = count_schreier_direct(n, ratio)
    long_term = any(term >= 10**640 for term in _size_terms(n, ratio))
    assert not long_term or count >= 10**640
    saved = sys.get_int_max_str_digits()
    with pytest.MonkeyPatch.context() as patch:
        if long_term:
            forbid(patch, *ROUTES)
        out, err = io.StringIO(), io.StringIO()
        sys.set_int_max_str_digits(640)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(
                    ["count", "--p", str(p), "--q", str(q), "--n", str(n), "--method", method]
                )
        finally:
            sys.set_int_max_str_digits(saved)
    if count >= 10**640:
        assert (code, out.getvalue()) == (4, "")
        assert "sys.get_int_max_str_digits() = 640" in err.getvalue()
    else:
        assert (code, out.getvalue()) == (0, f"{count}\n")


def test_no_digit_limit_prints_every_count(capsys):
    # a limit of 0 means no limit: the early guard must not refuse anything
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_cli(capsys, "count", "--p", "1", "--q", "1", "--n", "30000")
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    assert len(out.strip()) == 6270
