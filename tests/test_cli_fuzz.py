"""Hypothesis fuzz of the CLI's argv for exact-iq, construct-l1,
counterexample and verify-rs2.

Integers come from negatives, 0, small values and huge ones (10^11, and
n = 4096 for exact-iq). Every call must exit 0, 1, 2 or 64, print at most
one stderr line and no traceback, and return within two seconds. The pools
keep the parameters that pass every cap small enough to finish in that
time; exact-iq always runs with a budget.

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
    """One interpreter running ``insdel.cli.main`` on each argv it is sent;
    replaced after a call that overruns."""

    def __init__(self):
        self.proc = None

    def run(self, argv):
        """(exit code, stderr) of one call, or None past the time limit."""
        if self.proc is None:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            self.proc = subprocess.Popen(
                [sys.executable, "-c", WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
            )
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], SECONDS)
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

# No n = 10^4 here: q = 2, n = 10^4 passes the enumeration cap and then
# verifies a fibre of about 5000 compositions pairwise, far past the limit.
CONSTRUCT_L1 = _argv(
    "construct-l1",
    {
        "--q": _ints(-1, 0, 1, 2, 3, 5, 10**4, HUGE),
        "--n": _ints(-1, 0, 1, 2, 3, 8, HUGE),
        "--delta": _ints(-1, 0, 1, 2, 3, HUGE),
    },
    {"--r": _ints(-1, 0, 2, 7, HUGE, PRIME), "--alpha": _ints(-1, 0, 1, HUGE)},
)

# No q = 4096 here: its 4097 words pass the pair cap and take seconds to
# verify.
COUNTEREXAMPLE = _argv(
    "counterexample",
    {"--q": _ints(-1, 0, 1, 2, 3, 5, 64, HUGE), "--n": _ints(-1, 0, 1, 2, 3, 5, 64, HUGE)},
)

VERIFY_RS2 = _argv(
    "verify-rs2",
    {
        "--q": _ints(-1, 0, 1, 2, 4, 7, 16, HUGE, PRIME, PRIME**2),
        "--n": _ints(-1, 0, 1, 3, 4, HUGE),
        "--alphas": st.lists(st.sampled_from([-1, 0, 1, 2, 3, 5, HUGE]), max_size=5).map(
            lambda xs: ",".join(map(str, xs))
        ),
    },
    flags=("--exhaustive",),
)


@given(st.one_of(EXACT_IQ, CONSTRUCT_L1, COUNTEREXAMPLE, VERIFY_RS2))
@settings(max_examples=200, deadline=None)
def test_every_call_ends_in_an_exit_code(worker, argv):
    start = time.monotonic()
    result = worker.run(argv)
    elapsed = time.monotonic() - start
    assert result is not None, f"{argv} ran past {SECONDS} s"
    code, stderr = result
    assert code in EXIT_CODES, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    assert stderr.count("\n") <= 1, (argv, stderr)
    assert elapsed <= SECONDS, (argv, elapsed)
