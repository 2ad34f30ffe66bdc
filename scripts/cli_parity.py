#!/usr/bin/env python3
"""Check the CLI's canonical-argv parser against argparse, with the
standard library only, so that it runs on any supported Python.

For each subcommand it draws argv from the option table: each option or
not, in a random order, most values valid for the option's type and some
not, and for half of them one change (``mutate``). ``cli._parse`` must return
None or exactly the namespace argparse returns, values of the same
types. Prints the Python version and how many argv were checked and
accepted; exits 1 on a mismatch.

    python scripts/cli_parity.py [--count N] [--seed S]
"""

import argparse
import contextlib
import io
import platform
import random
import sys

from insdel import cli

VALID = {
    int: ["0", "1", "2", "7", "12", "٣", " 4"],
    cli._int_list: ["0,1,2", "3", "", "1,0,1,1"],
    cli._thread_count: ["1", "2"],
    cli._seconds: ["0.5", "2", "1e-3"],
    None: ["out.txt", "c.txt", "="],
}
JUNK = ["-1", "x", "", "1.5", "1,,2", "nan", "inf", "--q", "-h"]
NON_STR = [1, None, 2.5, ["--q"]]


def _value(rng, spec):
    if rng.random() < 0.1:
        return rng.choice(JUNK)
    if "choices" in spec:
        return rng.choice(list(spec["choices"]) + ["FOO"])
    return rng.choice(VALID[spec.get("type")])


def _argv(rng, command):
    options = list({**cli._SHARED, **cli._OPTIONS[command]}.items())
    rng.shuffle(options)
    argv = []
    for flag, spec in options:
        if spec.get("required") or rng.random() < 0.5:
            argv.append(flag)
            if spec.get("action") != "store_true":
                argv.append(_value(rng, spec))
    if rng.random() < 0.5:
        mutate(rng, argv)
    return argv


def mutate(rng, argv):
    """Change an argv of str tokens in place, one way: drop a token;
    repeat an option, abbreviate it, or join it to its value with "=";
    negate a value; shuffle the options; insert -h, --threads or a token
    that is not a str."""
    groups = []  # each option with the tokens up to the next one
    for token in argv:
        if not groups or token.startswith("--"):
            groups.append([])
        groups[-1].append(token)
    options = [g for g in groups if g[0].startswith("--")]
    valued = [g for g in options if len(g) > 1]
    kind = rng.choice(["drop", "repeat", "abbreviate", "join", "negate", "shuffle", "help", "threads", "non-str"])
    at = rng.randrange(len(argv) + 1)
    if kind == "drop" and argv:
        del argv[min(at, len(argv) - 1)]
    elif kind == "repeat" and options:
        argv += rng.choice(options)
    elif kind == "help":
        argv.insert(at, rng.choice(["-h", "--help"]))
    elif kind == "threads":
        argv[at:at] = ["--threads", rng.choice(["1", "4", "0", "x", "-1", "", "٣"])]
    elif kind == "non-str":
        argv.insert(at, rng.choice(NON_STR))
    else:  # an edit of the option groups
        if kind == "abbreviate" and options:
            group = rng.choice(options)
            if len(group[0]) > 3:
                group[0] = group[0][: rng.randrange(3, len(group[0]))]
        elif kind == "join" and valued:
            group = rng.choice(valued)
            group[:2] = [f"{group[0]}={group[1]}"]
        elif kind == "negate" and valued:
            group = rng.choice(valued)
            group[1] = "-" + group[1]
        elif kind == "shuffle":
            rng.shuffle(groups)
        argv[:] = [t for g in groups for t in g]


def argparse_namespace(command, argv):
    """vars() of argparse's namespace for argv, or None where argparse
    prints help, refuses the argv or raises."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._parser(command).parse_args(argv))
    except (SystemExit, Exception):  # noqa: BLE001 - any refusal is one outcome
        return None


def parses(command, argv):
    """None where ``cli._parse`` declines argv; else its namespace and
    argparse's (None where argparse refuses), each a list of (dest,
    value, type of value) in order, equal when the two agree."""
    fast = cli._parse(command, argv)
    if fast is None:
        return None
    want = argparse_namespace(command, argv)
    return [(k, v, type(v)) for k, v in vars(fast).items()], want and [(k, v, type(v)) for k, v in want.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=20000, help="argv to check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    accepted = mismatched = 0
    for _ in range(args.count):
        command = rng.choice(cli.COMMANDS)
        argv = _argv(rng, command)
        result = parses(command, argv)
        if result is None:
            continue
        accepted += 1
        got, want = result
        if got != want:
            mismatched += 1
            print(f"MISMATCH {command} {argv!r}: _parse {got!r}, argparse {want!r}")
    print(f"Python {platform.python_version()}: {args.count} argv, {accepted} accepted, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
