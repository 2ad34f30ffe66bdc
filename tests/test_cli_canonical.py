"""The canonical-argv parser ``cli._parse`` against argparse.

``_parse`` answers an argv made only of exact long options, each given
once with a valid value; it declines every other argv, which argparse
then answers as before. So for every argv it must return None or exactly
argparse's namespace, and ``main`` must print and return the same as with
argparse alone. The argv are the fuzz pools of test_cli_fuzz.py and
mutations of them by scripts/cli_parity.py, which checks the parses
without pytest on any Python.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insdel import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from cli_parity import argparse_namespace, mutate, parses  # noqa: E402 - the scripts directory is not a package
from test_cli_fuzz import (  # noqa: E402
    BOUNDS,
    CONSTRUCT_L1,
    CONSTRUCT_L1_RING_DEGREE,
    CONSTRUCT_RS2,
    COUNTEREXAMPLE,
    DIST,
    EXACT_IQ,
    SECONDS,
    SELFTEST,
    VERIFY_RS2,
    WITNESS_RS,
    Worker,
    _argv,
)

SRC = ROOT / "src"
CODE_FILE = "CWL1 3 6 3\n6 0 0\n0 6 0\n0 0 6\n"

CODE_FILES = st.one_of(
    _argv(
        "code-distance",
        {"--in": st.just("{dir}/code.txt")},
        {"--metric": st.sampled_from(["INSDEL", "L1", "HAMMING", "FOO", ""])},
        flags=("--json",),
    ),
    _argv(
        "lift",
        {"--in": st.just("{dir}/code.txt"), "--out": st.just("{dir}/lifted.txt")},
        flags=("--verify", "--json"),
    ),
)
POOLS = (
    EXACT_IQ,
    CONSTRUCT_L1,
    CONSTRUCT_L1_RING_DEGREE,
    COUNTEREXAMPLE,
    VERIFY_RS2,
    DIST,
    CONSTRUCT_RS2,
    WITNESS_RS,
    BOUNDS,
    SELFTEST,
    CODE_FILES,
)


@st.composite
def _mutated(draw, pool):
    """An argv of the pool with one change of ``cli_parity.mutate``."""
    command, *rest = draw(pool)
    mutate(draw(st.randoms(use_true_random=False)), rest)
    return [command, *rest]


ARGV = st.one_of(*POOLS, *(_mutated(pool) for pool in POOLS))


@given(ARGV)
@settings(max_examples=1500, deadline=None)
def test_parse_returns_none_or_argparses_namespace(argv):
    result = parses(argv[0], argv[1:])
    if result is not None:
        got, want = result
        assert got == want, argv


@given(st.one_of(*POOLS))
@settings(max_examples=500, deadline=None)
def test_parse_accepts_the_pools_argparse_accepts(argv):
    """The pools give each option once, exactly; only a value starting
    with "-" (a negative number) sends an argv argparse accepts to it."""
    command, rest = argv[0], argv[1:]
    negative = any(t.startswith("-") and not t.startswith("--") for t in rest)
    if not negative and argparse_namespace(command, rest) is not None:
        assert cli._parse(command, rest) is not None, argv


# Runs each argv through main twice in one interpreter, with the canonical
# parser and with argparse alone, and prints both [exit code, stdout,
# stderr]; an exception escaping main stands in for the exit code.
PARITY_WORKER = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from insdel import cli
canonical = cli._parse

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]

for line in sys.stdin:
    argv = json.loads(line)
    cli._parse = canonical
    both = [run(argv)]
    cli._parse = lambda command, argv: None
    both.append(run(argv))
    sys.stdout.write(json.dumps(both) + "\\n")
    sys.stdout.flush()
"""


@pytest.fixture(scope="module")
def parity_worker():
    w = Worker(PARITY_WORKER, 2 * SECONDS)
    yield w
    w.close()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    path = tmp_path_factory.mktemp("canonical")
    (path / "code.txt").write_text(CODE_FILE)
    return path


# exact-iq runs under a time budget, so a run near it may end either way;
# selftest takes half a second a run. Their parses are checked above.
TIMED = ("exact-iq", "selftest")


@given(ARGV.filter(lambda argv: argv[0] not in TIMED))
@settings(max_examples=300, deadline=None)
def test_main_prints_what_argparse_alone_prints(parity_worker, files, argv):
    argv = [a.replace("{dir}", str(files)) if isinstance(a, str) else a for a in argv]
    result = parity_worker.run(argv)
    assert result is not None, f"{argv} ran past {2 * SECONDS} s"
    fast, argparse_only = result
    assert fast == argparse_only, argv


# Each declined argv, and the canonical one it is changed from.
DECLINED = {
    "--n=4": ("construct-rs2", ["--n=4"], ["--n", "4"]),
    "abbreviated --max-seconds": (
        "exact-iq",
        ["--q", "2", "--n", "3", "--d", "4", "--max-s", "5"],
        ["--q", "2", "--n", "3", "--d", "4", "--max-seconds", "5"],
    ),
    "abbreviated --threads": (
        "bounds",
        ["--q", "2", "--n", "8", "--d", "4", "--thr", "2"],
        ["--q", "2", "--n", "8", "--d", "4", "--threads", "2"],
    ),
    "repeated --q": ("dist", ["--q", "2", "--q", "3", "--u", "0", "--v", "1"], ["--q", "3", "--u", "0", "--v", "1"]),
    "--alpha -1": (
        "construct-l1",
        ["--q", "3", "--n", "6", "--delta", "2", "--alpha", "-1"],
        ["--q", "3", "--n", "6", "--delta", "2", "--alpha", "1"],
    ),
    "-h": ("counterexample", ["--q", "5", "--n", "4", "-h"], ["--q", "5", "--n", "4"]),
    "missing value": (
        "verify-rs2",
        ["--q", "11", "--n", "4", "--alphas"],
        ["--q", "11", "--n", "4", "--alphas", "0,1,3,7"],
    ),
    "bad int": (
        "witness-rs",
        ["--q", "7", "--k", "three", "--alphas", "0,1,2,3,4,5"],
        ["--q", "7", "--k", "3", "--alphas", "0,1,2,3,4,5"],
    ),
    "bad --metric": (
        "code-distance",
        ["--in", "c.txt", "--metric", "LEVENSHTEIN"],
        ["--in", "c.txt", "--metric", "L1"],
    ),
    "missing required": ("lift", ["--in", "c.txt", "--verify"], ["--in", "c.txt", "--verify", "--out", "d.txt"]),
    "bad --threads": ("selftest", ["--threads", "0"], ["--threads", "1"]),
}


@pytest.mark.parametrize("command, declined, canonical", DECLINED.values(), ids=DECLINED)
def test_declined_argv(command, declined, canonical):
    assert cli._parse(command, declined) is None
    assert vars(cli._parse(command, canonical)) == vars(cli._parser(command).parse_args(canonical))


@pytest.mark.parametrize(
    "spec",
    [
        {"type": int, "nargs": 2},
        {"action": "append"},
        {"action": "store_false"},
        {"metavar": "Q"},
        {"type": int, "default": "3"},
    ],
)
def test_options_refuse_an_unmodelled_spec(monkeypatch, spec):
    monkeypatch.setitem(cli._OPTIONS, "probe", {"--x": spec})
    with pytest.raises(TypeError, match="--x"):
        cli._options.__wrapped__("probe")


PROBE = """
import contextlib, io, json, sys
from insdel import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue(), "argparse" in sys.modules, "gettext" in sys.modules])
print(json.dumps(runs))
"""


def _fresh(*argvs):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout)


def _argparse_only(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.setattr(cli, "_parse", lambda command, argv: None)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


CANONICAL = ["dist", "--q", "2", "--u", "0,1,1", "--v", "1,0", "--json"]


def test_canonical_call_leaves_argparse_unloaded():
    (run,) = _fresh(CANONICAL)
    assert run == [0, '{"command": "dist", "distance": 3, "q": 2, "u": [0, 1, 1], "v": [1, 0]}\n', "", False, False]


@pytest.mark.parametrize(
    "argv", [["dist", "--help"], ["dist", "--q", "x", "--u", "0", "--v", "1"]], ids=["help", "bad value"]
)
def test_argparse_loads_for_help_and_errors(monkeypatch, argv):
    first, then = _fresh(CANONICAL, argv)
    assert first[3:] == [False, False]
    assert then[3] is True
    assert then[:3] == _argparse_only(monkeypatch, argv)
