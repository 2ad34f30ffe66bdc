"""Each subcommand's parser is built once per interpreter and reused: a
reused parser answers every argv, failing ones included, as a fresh
interpreter does, and importing the CLI builds none."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from insdel import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv of a JSON list from stdin through main in one interpreter
# and prints [exit code, stdout, stderr] for each.
RUNNER = """
import contextlib, io, json, sys
from insdel.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run(argvs, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("INSDEL_MAX_PAIRS", None)
    result = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=True,
    )
    return json.loads(result.stdout)


def test_option_and_dispatch_tables_list_the_same_subcommands():
    assert list(cli._OPTIONS) == list(cli._DISPATCH)
    assert len(cli.COMMANDS) == 11


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_parser_built_once(name):
    assert cli._parser(name) is cli._parser(name)


def test_interleaved_calls_match_fresh_interpreters(tmp_path):
    l1, lifted = str(tmp_path / "l1.txt"), str(tmp_path / "lifted.txt")
    sequence = [
        ["dist", "--q", "2", "--u", "0,1,1", "--v", "1,0"],
        ["dist", "--q", "x", "--u", "0", "--v", "1"],
        ["bounds", "--q", "2", "--n", "8", "--d", "4", "--json"],
        ["bounds", "--q", "2", "--n", "8"],
        ["counterexample", "--q", "5", "--n", "4"],
        ["counterexample", "--q", "5", "--n", "4", "--bogus"],
        ["verify-rs2", "--q", "11", "--n", "4", "--alphas", "0,1,3,7", "--json"],
        ["verify-rs2", "--q", "11", "--n", "4", "--alphas", "0,1,3,7", "--threads", "0"],
        ["witness-rs", "--q", "64", "--k", "3", "--alphas", "0,1,2,3,4,5"],
        ["exact-iq", "--q", "2", "--n", "4", "--d", "4", "--max-seconds", "nan"],
        ["exact-iq", "--q", "2", "--n", "4", "--d", "4", "--max-s", "5", "--json"],
        ["construct-rs2", "--n=4"],
        ["construct-rs2", "--n", "4", "--q", "1.5"],
        ["construct-l1", "--q", "3", "--n", "6", "--delta", "2", "--out", l1, "--json"],
        ["construct-l1", "--q", "3", "--delta", "2"],
        ["lift", "--in", l1, "--out", lifted, "--verify"],
        ["lift", "--in", l1],
        ["code-distance", "--in", lifted, "--json"],
        ["code-distance", "--in", lifted, "--metric", "FOO"],
        ["selftest", "--json"],
        ["selftest", "--threads", "x"],
        ["dist", "--q", "3", "--u", "0,1,2", "--v", "2,1,0", "--json", "--thr", "2"],
        ["bounds", "--help"],
        ["bounds", "--q", "3", "--n", "7", "--d", "6"],
        ["lift", "--in", l1, "--out", lifted, "--json"],
    ]
    assert {argv[0] for argv in sequence} == set(cli.COMMANDS)
    together = _run(sequence, tmp_path)
    fresh = [_run([argv], tmp_path)[0] for argv in sequence]
    for argv, got, want in zip(sequence, together, fresh):
        assert got == want, argv
    assert [code for code, _, _ in together].count(1) == 10


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_help_twice_prints_the_same_text(name, capsys):
    texts = []
    for _ in range(2):
        assert cli.main([name, "--help"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: insdel {name} [-h] [--json] [--threads THREADS]")


def test_import_builds_no_parser():
    probe = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import insdel.cli
print(len(built), insdel.cli._parser.cache_info().currsize)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "0 0\n"
