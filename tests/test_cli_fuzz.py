"""Hypothesis fuzz of the CLI: the argv of all eleven subcommands, and
the bytes of the code files that code-distance and lift read.

Integers come from negatives, 0, small values and huge ones (10^11, and
n = 4096 for exact-iq). Code files are drawn as valid codes, as headers
with rows of drawn integers, and as raw bytes. Every call must exit 0, 1,
2 or 64, print at most one stderr line and no traceback, and return
within two seconds. The pools keep the parameters that pass every cap
small enough to finish in that time; exact-iq always runs with a budget.

The calls run in one worker interpreter with a 1 GiB address-space limit,
so a call that tries to form a huge integer fails with MemoryError instead
of exhausting memory, and a call that overruns is killed with its worker.
"""

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"
SECONDS = 2.0
EXIT_CODES = {0, 1, 2, 64}

WORKER = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from insdel.cli import main
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    sys.stdout.write(json.dumps([code, err.getvalue()]) + "\\n")
    sys.stdout.flush()
"""


class Worker:
    """One interpreter running a script (``WORKER`` by default: one call of
    ``insdel.cli.main``) on each argv it is sent; replaced after a call
    that overruns."""

    def __init__(self, script=WORKER, seconds=SECONDS):
        self.script, self.seconds = script, seconds
        self.proc = None

    def run(self, argv):
        """The script's answer for one argv ((exit code, stderr) for
        ``WORKER``), or None past the time limit."""
        if self.proc is None:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            self.proc = subprocess.Popen(
                [sys.executable, "-c", self.script], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
            )
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], self.seconds)
        if not ready:
            self.close()
            return None
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            return "worker died", ""
        return tuple(json.loads(line))

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None


@pytest.fixture(scope="module")
def worker():
    w = Worker()
    yield w
    w.close()


HUGE = 10**11
PRIME = 99999999977  # prime, past the 2^20 field cap


def _ints(*values):
    return st.sampled_from(values).map(str)


def _argv(command, required, optional=None, flags=()):
    """argv of one command: every required option, each optional one or
    not, each flag or not."""
    parts = [st.tuples(st.just(name), pool) for name, pool in required.items()]
    for name, pool in (optional or {}).items():
        parts.append(st.one_of(st.just(()), st.tuples(st.just(name), pool)))
    parts += [st.sampled_from([(), (flag,)]) for flag in flags]
    return st.tuples(*parts).map(lambda groups: [command] + [x for group in groups for x in group])


EXACT_IQ = _argv(
    "exact-iq",
    {
        "--q": _ints(-1, 0, 1, 2, 3, 16, 64, HUGE),
        "--n": _ints(-1, 0, 1, 2, 3, 4096, HUGE),
        "--d": _ints(-2, 0, 1, 2, 4, 6, 16, HUGE),
        "--max-seconds": st.just("0.5"),
    },
)

CONSTRUCT_L1_OPTIONS = {"--r": _ints(-1, 0, 2, 7, HUGE, PRIME), "--alpha": _ints(-1, 0, 1, HUGE)}

CONSTRUCT_L1 = _argv(
    "construct-l1",
    {
        "--q": _ints(-1, 0, 1, 2, 3, 5, 10**4, HUGE),
        "--n": _ints(-1, 0, 1, 2, 3, 8, 10**4, HUGE),
        "--delta": _ints(-1, 0, 1, 2, 3, 400, HUGE),
    },
    CONSTRUCT_L1_OPTIONS,
)

# n = 400 is drawn with q = 2 only: q = 3, n = 400 passes every cap (80601
# compositions) and buckets for 1.4 to 5 s.
CONSTRUCT_L1_RING_DEGREE = _argv(
    "construct-l1",
    {"--q": _ints(2), "--n": _ints(400), "--delta": _ints(-1, 2, 3, 400, HUGE)},
    CONSTRUCT_L1_OPTIONS,
)

COUNTEREXAMPLE = _argv(
    "counterexample",
    {"--q": _ints(-1, 0, 1, 2, 3, 5, 64, 4096, HUGE), "--n": _ints(-1, 0, 1, 2, 3, 5, 64, HUGE)},
)

VERIFY_RS2 = _argv(
    "verify-rs2",
    {
        "--q": _ints(-1, 0, 1, 2, 4, 7, 16, 64, 81, HUGE, PRIME, PRIME**2),
        "--n": _ints(-1, 0, 1, 3, 4, HUGE),
        "--alphas": st.lists(st.sampled_from([-1, 0, 1, 2, 3, 5, HUGE]), max_size=5).map(
            lambda xs: ",".join(map(str, xs))
        ),
    },
    flags=("--exhaustive",),
)


SYMBOLS = st.lists(st.sampled_from([-1, 0, 1, 2, 3, 5, HUGE]), max_size=12)


def _csv(pool):
    return pool.map(lambda xs: ",".join(map(str, xs)))


DIST = _argv(
    "dist",
    {
        "--q": _ints(-1, 0, 1, 2, 3, HUGE),
        "--u": st.one_of(_csv(SYMBOLS), st.sampled_from(["1,,2", "x", "1.5", "0," * 4096])),
        "--v": _csv(SYMBOLS),
    },
    flags=("--json",),
)

# n = 13 is the step cap's frontier over a prime field (0.6 to 0.9 s);
# n = 14 is refused.
CONSTRUCT_RS2 = _argv(
    "construct-rs2",
    {"--n": _ints(-1, 0, 1, 3, 4, 5, 8, 12, 13, 14, 16, 22, HUGE)},
    {"--q": _ints(-1, 0, 1, 2, 4, 7, 16, 64, 1024, 2**20, 1048573, HUGE, PRIME)},
    flags=("--json",),
)

# Long calls at the work caps over the largest prime field: a vector that
# meets the criterion at n = 13 (a full scan, under 1 s), the least n the
# criterion cap refuses, k = 42 on 942 points, which the witness cap
# admits (about 0.3 s), and k = 43 on 986, which it refuses.
AT_THE_CAPS = st.tuples(
    st.sampled_from(
        [
            ["verify-rs2", "--q", "1048573", "--n", "13", "--alphas", "0,1,2,5,7,18,24,44,59,67,101,218,225"],
            ["verify-rs2", "--q", "1048573", "--n", "15", "--alphas", ",".join(map(str, range(15)))],
            ["witness-rs", "--q", "1048573", "--k", "42", "--alphas", ",".join(map(str, range(942)))],
            ["witness-rs", "--q", "1048573", "--k", "43", "--alphas", ",".join(map(str, range(986)))],
        ]
    ),
    st.sampled_from([[], ["--json"]]),
).map(lambda parts: parts[0] + parts[1])

WITNESS_RS = _argv(
    "witness-rs",
    {
        "--q": _ints(-1, 0, 1, 2, 4, 7, 16, 64, 1048573, HUGE, PRIME),
        "--k": _ints(-1, 0, 1, 2, 3, 4, 5, HUGE),
        "--alphas": _csv(
            st.one_of(
                SYMBOLS,
                st.integers(0, 17).map(lambda n: list(range(n))),
            )
        ),
    },
    flags=("--json",),
)

BOUNDS = _argv(
    "bounds",
    {
        "--q": _ints(-1, 0, 1, 2, 3, 64, HUGE),
        "--n": _ints(-1, 0, 1, 2, 8, 4096, 14284, HUGE),
        "--d": _ints(-1, 0, 2, 3, 4, 16, 8192, 28568, HUGE),
    },
    flags=("--json",),
)

SELFTEST = _argv("selftest", {}, flags=("--json",))


def _check_call(worker, argv):
    start = time.monotonic()
    result = worker.run(argv)
    elapsed = time.monotonic() - start
    assert result is not None, f"{argv} ran past {SECONDS} s"
    code, stderr = result
    assert code in EXIT_CODES, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    assert stderr.count("\n") <= 1, (argv, stderr)
    assert elapsed <= SECONDS, (argv, elapsed)


@given(
    st.one_of(
        EXACT_IQ,
        CONSTRUCT_L1,
        CONSTRUCT_L1_RING_DEGREE,
        COUNTEREXAMPLE,
        VERIFY_RS2,
        DIST,
        CONSTRUCT_RS2,
        WITNESS_RS,
        AT_THE_CAPS,
        BOUNDS,
        SELFTEST,
    )
)
@settings(max_examples=300, deadline=None)
def test_every_call_ends_in_an_exit_code(worker, argv):
    _check_call(worker, argv)


def _code_text(kind, q, n, rows):
    return f"{kind} {q} {n} {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


@st.composite
def _valid_code(draw):
    """Text of a valid INSDEL or CWL1 code."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        return _code_text("INSDEL", q, n, draw(st.lists(row, max_size=12, unique_by=tuple)))
    row = st.lists(st.integers(0, n), min_size=q - 1, max_size=q - 1).filter(lambda c: sum(c) <= n)
    counts = draw(st.lists(row, max_size=12, unique_by=tuple))
    return _code_text("CWL1", q, n, [c + [n - sum(c)] for c in counts])


CODE_TEXT = st.one_of(
    _valid_code(),
    st.builds(
        _code_text,
        st.sampled_from(["INSDEL", "CWL1", "XYZ"]),
        st.sampled_from([-1, 0, 1, 2, 3, HUGE]),
        st.sampled_from([-1, 0, 1, 2, 3, HUGE]),
        st.lists(SYMBOLS, max_size=4),
    ),
)
CODE_BYTES = st.one_of(
    CODE_TEXT.map(str.encode),
    CODE_TEXT.map(lambda t: "# comment\n\n" + t.replace("\n", "\r\n")).map(str.encode),
    st.binary(max_size=64),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(
    data=CODE_BYTES,
    command=st.one_of(
        st.tuples(
            st.just("code-distance"),
            st.sampled_from([(), ("--metric", "INSDEL"), ("--metric", "L1"), ("--metric", "HAMMING")]),
        ),
        st.tuples(
            st.just("lift"),
            st.sampled_from([("--out", "{out}"), ("--out", "{out}", "--verify"), ("--out", "{dir}")]),
        ),
    ),
    source=st.sampled_from(["{in}", "{in}", "{missing}", "{dir}"]),
    as_json=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_every_code_file_ends_in_an_exit_code(worker, files, data, command, source, as_json):
    (files / "in.txt").write_bytes(data)
    paths = {
        "{in}": files / "in.txt",
        "{out}": files / "out.txt",
        "{missing}": files / "missing.txt",
        "{dir}": files,
    }
    name, options = command
    argv = [name, "--in", source, *options] + (["--json"] if as_json else [])
    _check_call(worker, [str(paths.get(a, a)) for a in argv])
