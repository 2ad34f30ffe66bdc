"""Per-call paths leave no blocks behind on CPython's tuple free lists.

``tuple(x for x in ...)`` and ``tuple(map(...))`` do not know their length
up front, so CPython allocates a guess and resizes it. When such a tuple
is freed, it goes on the free list for its final length, while the next
one is again allocated at the guessed length. So free-list entries pile
up, up to 2000 per length, and a long-running process (such as the
benchmark's loop over ``insdel.cli.main``) grows with every call. Built
from a list or at a known length, a tuple is taken back off the free list
it went to.

The allocation test runs one subcommand's jobs in a fresh interpreter,
5 warm-up rounds and then 40 measured rounds, and bounds the growth of
``sys.getallocatedblocks()``. Built by resizing, the tuples of these
paths grow every case by 400 to 2900 blocks; at exact sizes no case grows
by more than about 170. That rest comes from free lists with a small cap
(dicts, lists) filling up, and on CPython 3.11 and 3.12 from tuples of
exactly 20 items, whose free list those versions push to but never pop
(the 5 x 4 evaluation matrix of a k = 3 witness is one): at most 2000
blocks per process, whatever builds them.

The AST test keeps the resizing pattern out of the code paths the
allocation test does not run.
"""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "insdel"

WARMUP, ROUNDS = 5, 40
MAX_GROWTH = 250  # blocks over the measured rounds

# One case per subcommand whose per-call path built tuples by resizing:
# odd-characteristic extension fields for the GF(p^m) add and subtract,
# and words of several lengths for the parsed --u / --v lists. Only
# lengths under 20 other than 10, CPython's guess, were resized onto a
# free list; a 20-symbol pair would add the 3.11 / 3.12 effect above.
_WORDS = [
    ("2", "0,1,1,0,1,0,0,1", "1,1,0,0,1,0,1,0,1"),
    ("3", "0,2,1,1,0,2,2,1,0,1,2,2", "2,1,0,0,1,2,2,1,1,0,2,1"),
    ("4", "3,0,1,2,2,1,0,3,3,0,1,2,0,1", "0,1,2,3,3,2,1,0,0,1,2,3,1,2,0"),
    ("5", "0,4,1,3,2,2,3,1,4,0,0,1,2,3,4,4,3", "4,3,2,1,0,0,1,2,3,4,4,3,2,1,0,1,2,3,4"),
    ("7", "0,5,3,1,6,4,2,0,5,3,1,6,4,2,0,5", "6,5,4,3,2,1,0,6,5,4,3,2,1,0,1,2,3"),
    ("8", ",".join(str(i * 3 % 8) for i in range(33)), ",".join(str(i * 5 % 8) for i in range(40))),
]
CASES = {
    "witness-rs": [
        ["witness-rs", "--q", "729", "--k", "3", "--alphas", "14,283,297,30,418,491", "--json"],
        ["witness-rs", "--q", "256", "--k", "4", "--alphas", "3,17,200,45,99,120,7,250,31,66,140", "--json"],
    ],
    "verify-rs2": [
        ["verify-rs2", "--q", "243", "--n", "5", "--alphas", "1,5,17,88,130", "--json"],
        ["verify-rs2", "--q", "81", "--n", "4", "--alphas", "0,1,5,40", "--json"],
        ["verify-rs2", "--q", "27", "--n", "4", "--alphas", "0,1,2,3", "--json"],
    ],
    "construct-rs2": [
        ["construct-rs2", "--n", "5", "--q", "243", "--json"],
        ["construct-rs2", "--n", "5", "--q", "625", "--json"],
        ["construct-rs2", "--n", "5", "--q", "343", "--json"],
    ],
    "construct-l1 -> lift -> code-distance": [
        ["construct-l1", "--q", "5", "--n", "10", "--delta", "3", "--alpha", "4",
         "--out", "{work}/l1.txt", "--json"],
        ["lift", "--in", "{work}/l1.txt", "--verify", "--out", "{work}/lift.txt", "--json"],
        ["code-distance", "--in", "{work}/lift.txt", "--json"],
    ],
    "dist": [["dist", "--q", q, "--u", u, "--v", v, "--json"] for q, u, v in _WORDS],
    # (5, 3, 4) also prunes by orbits below the root of its proof.
    "exact-iq": [
        ["exact-iq", "--q", "2", "--n", "6", "--d", "4", "--json"],
        ["exact-iq", "--q", "3", "--n", "4", "--d", "6", "--json"],
        ["exact-iq", "--q", "5", "--n", "3", "--d", "4", "--json"],
    ],
}

# The child disables the cyclic collector: a full collection empties the
# free lists and would hide what is measured.
CHILD = f"""
import contextlib, gc, io, json, sys
from insdel.cli import main

work, jobs = sys.argv[1], json.loads(sys.argv[2])
jobs = [[a.replace("{{work}}", work) for a in argv] for argv in jobs]


def rounds(count):
    for _ in range(count):
        for argv in jobs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            if rc != 0:
                raise SystemExit(f"{{argv}} exited {{rc}}")


gc.disable()
rounds({WARMUP})
before = sys.getallocatedblocks()
rounds({ROUNDS})
print(sys.getallocatedblocks() - before)
"""


def _counts_blocks() -> bool:
    return platform.python_implementation() == "CPython" and sys.getallocatedblocks() > 0


@pytest.mark.skipif(not _counts_blocks(), reason="needs CPython's allocated-block count")
@pytest.mark.parametrize("case", sorted(CASES))
def test_repeated_calls_leave_no_blocks_behind(case, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("INSDEL_MAX_PAIRS", None)
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps(CASES[case])],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    growth = int(result.stdout)
    assert growth < MAX_GROWTH, f"{case}: {growth} blocks over {ROUNDS} rounds"


# -- no tuple built by resizing ---------------------------------------------

RESIZING = {"map", "filter", "zip", "islice"}


def _builds_by_resizing(node) -> bool:
    """A generator expression, or a call of map, filter, zip or islice."""
    if isinstance(node, ast.GeneratorExp):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in RESIZING
    return False


def _resized_tuples(tree):
    """Lines of ``tuple(<iterator>)`` calls, and of calls that unpack one
    with ``*``, which builds the argument tuple the same way."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
            if _builds_by_resizing(node.args[0]):
                yield node.lineno
        for arg in node.args:
            if isinstance(arg, ast.Starred) and _builds_by_resizing(arg.value):
                yield node.lineno


def test_the_guard_sees_each_form():
    src = "tuple(x for x in y)\ntuple(map(f, y))\nf(*itertools.islice(y, 3))\ntuple([x for x in y])\ntuple(y)\n"
    assert list(_resized_tuples(ast.parse(src))) == [1, 2, 3]


def test_no_tuple_is_built_from_an_iterator():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _resized_tuples(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, "build these tuples from a list: " + ", ".join(found)
