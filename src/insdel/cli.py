"""Command-line interface.

One executable, eleven subcommands, deterministic output. ``--json``
switches every report to a single JSON document on stdout. Exit codes:
0 success, 1 bad parameters, 2 scale-cap refusal, 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import sys

from .errors import DomainError, InsdelError, ScaleCapExceeded
from .words import CWL1, INSDEL, L1, Word, code_min_distance, insdel_distance

# What the subcommands call outside ``errors`` and ``words``: name -> the
# module, or the module's attribute, it stands for. A subcommand loads the
# modules of the names its code reads on its first run, so ``import
# insdel.cli`` loads none of them. Subcommands call these names through this
# module's globals, so a name patched on this module (perfbench/tracing.py
# patches several) is the one that runs.
_CALLEES = {
    "codefile": "codefile",
    "counterexample_code": "bounds.counterexample_code",
    "exact_iq": "bounds.exact_iq",
    "levenshtein_lower_bound": "bounds.levenshtein_lower_bound",
    "singleton_bound": "bounds.singleton_bound",
    "size_upper_bound": "bounds.size_upper_bound",
    "L1ConstructionSpec": "cw_l1.L1ConstructionSpec",
    "construct_l1": "cw_l1.construct_l1",
    "field_from_size": "gf.field_from_size",
    "lift": "lift.lift",
    "pair_cap": "lift.pair_cap",
    "verification_refusal": "lift.verification_refusal",
    "RsCode": "rs.RsCode",
    "check_rs2_criterion": "rs.check_rs2_criterion",
    "construct_rs2": "rs.construct_rs2",
    "low_distance_witness": "rs.low_distance_witness",
    "rs2_field_threshold": "rs.rs2_field_threshold",
    "rs_exhaustive_insdel": "rs.rs_exhaustive_insdel",
}


def __getattr__(name: str):
    """Bind a callee of ``_CALLEES`` here on its first access."""
    path = _CALLEES.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home, _, attr = path.partition(".")
    value = importlib.import_module(f"{__package__}.{home}")
    if attr:
        value = getattr(value, attr)
    globals()[name] = value
    return value


COMMANDS = (
    "dist",
    "code-distance",
    "construct-l1",
    "lift",
    "construct-rs2",
    "verify-rs2",
    "witness-rs",
    "exact-iq",
    "bounds",
    "counterexample",
    "selftest",
)

USAGE = "usage: insdel {" + ",".join(COMMANDS) + "} [options]\n"


class _Parser(argparse.ArgumentParser):
    """Argument errors are parameter-domain errors, exit code 1."""

    def error(self, message):
        raise DomainError(message)


def _thread_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _jsonable(value, fraction):
    if isinstance(value, fraction):
        return {"numerator": str(value.numerator), "denominator": str(value.denominator)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, fraction) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v, fraction) for k, v in value.items()}
    if isinstance(value, Word):
        return list(value.symbols)
    return value


@functools.cache
def _json_encode():
    """The encoder of ``json.dumps(obj, sort_keys=True)``, imported on the
    first JSON report and built once rather than on every call."""
    import json

    return json.JSONEncoder(sort_keys=True).encode


def _render(report: dict, as_json: bool) -> str:
    # A report can hold a Fraction only once some module has loaded
    # ``fractions``; until then ``isinstance(value, ())`` is false for all.
    fraction = getattr(sys.modules.get("fractions"), "Fraction", ())
    if as_json:
        return _json_encode()(_jsonable(report, fraction)) + "\n"
    lines = []
    for key, value in report.items():
        if isinstance(value, fraction):
            value = f"{value.numerator}/{value.denominator}"
        lines.append(f"{key}={value}\n")
    return "".join(lines)


def _emit(report: dict, as_json: bool) -> None:
    """Write the whole report or nothing: an integer longer than the
    interpreter's int-to-str digit limit is a scale-cap refusal."""
    try:
        text = _render(report, as_json)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ScaleCapExceeded(
            f"a report integer has more than {sys.get_int_max_str_digits()} decimal digits"
        ) from None
    sys.stdout.write(text)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_dist(a):
    d = insdel_distance(Word(a.q, a.u), Word(a.q, a.v))
    if a.json:
        _emit({"command": "dist", "q": a.q, "u": list(a.u), "v": list(a.v), "distance": d}, True)
    else:
        print(d)
    return 0


def _cmd_code_distance(a):
    code = codefile.load(a.infile)
    metric = a.metric or (L1 if code.kind == CWL1 else INSDEL)
    d, witness = code_min_distance(code, metric)
    wit = [
        list(w.counts) if code.kind == CWL1 else list(w.symbols) for w in witness
    ]
    _emit(
        {
            "command": "code-distance",
            "kind": code.kind,
            "q": code.q,
            "n": code.n,
            "size": len(code),
            "metric": metric,
            "min_distance": d,
            "witness": wit,
        },
        a.json,
    )
    return 0


def _cmd_construct_l1(a):
    spec = L1ConstructionSpec(q=a.q, n=a.n, delta=a.delta, r=a.r, alpha=a.alpha)
    code, report = construct_l1(spec)
    if a.out:
        codefile.dump(code, a.out)
    report = {"command": "construct-l1", **report}
    _emit(report, a.json)
    return 0


def _cmd_lift(a):
    code = codefile.load(a.infile)
    lifted, report = lift(code)
    if a.verify and not report["verified"]:
        if len(lifted) < 2:
            raise DomainError(f"--verify needs a code of at least two members, got {len(lifted)}")
        raise ScaleCapExceeded(verification_refusal(report["pairs"], lifted.n, pair_cap()))
    codefile.dump(lifted, a.out)
    report = {"command": "lift", "q": lifted.q, "n": lifted.n, **report}
    _emit(report, a.json)
    return 0


def _cmd_construct_rs2(a):
    ctx = field_from_size(a.q) if a.q else None
    code = construct_rs2(a.n, ctx)
    _emit(
        {
            "command": "construct-rs2",
            "n": code.n,
            "q": code.ctx.q,
            "threshold": rs2_field_threshold(a.n),
            "alphas": list(code.alphas),
        },
        a.json,
    )
    return 0


def _cmd_verify_rs2(a):
    if len(a.alphas) != a.n:
        raise DomainError(f"expected {a.n} evaluation points, got {len(a.alphas)}")
    code = RsCode(field_from_size(a.q), a.alphas, 2)
    ok, witness = check_rs2_criterion(code)
    report = {
        "command": "verify-rs2",
        "q": a.q,
        "n": a.n,
        "criterion_holds": ok,
        "target_distance": 2 * a.n - 4,
    }
    if witness is not None:
        i, j, sigma = witness
        report["witness_i"] = [x + 1 for x in i]
        report["witness_j"] = [x + 1 for x in j]
        report["witness_map"] = {"a": sigma.a, "b": sigma.b}
    if a.exhaustive:
        d, pair = rs_exhaustive_insdel(code)
        report["exhaustive_min_insdel"] = d
        report["agrees"] = ok == (d == 2 * a.n - 4)
    _emit(report, a.json)
    return 0


def _cmd_witness_rs(a):
    code = RsCode(field_from_size(a.q), a.alphas, a.k)
    w = low_distance_witness(code, a.k)
    _emit(
        {
            "command": "witness-rs",
            "q": a.q,
            "n": code.n,
            "k": a.k,
            "f": list(w["f"]),
            "g": list(w["g"]),
            "i": [x + 1 for x in w["i"]],
            "j": [x + 1 for x in w["j"]],
            "lcs_lower_bound": w["lcs_lower_bound"],
            "distance_upper_bound": w["distance_upper_bound"],
            "codeword_f": list(w["codeword_f"]),
            "codeword_g": list(w["codeword_g"]),
        },
        a.json,
    )
    return 0


def _cmd_exact_iq(a):
    size, code = exact_iq(a.q, a.n, a.d, a.max_seconds)
    if a.out:
        codefile.dump(code, a.out)
    _emit(
        {
            "command": "exact-iq",
            "q": a.q,
            "n": a.n,
            "d": a.d,
            "size": size,
            "witness": [list(w.symbols) for w in code.members],
        },
        a.json,
    )
    return 0


def _cmd_bounds(a):
    upper, clause = size_upper_bound(a.q, a.n, a.d)
    lower = levenshtein_lower_bound(a.q, a.n, a.d)
    _emit(
        {
            "command": "bounds",
            "q": a.q,
            "n": a.n,
            "d": a.d,
            "singleton": singleton_bound(a.q, a.n, a.d),
            "upper_bound": upper,
            "upper_bound_clause": clause,
            "levenshtein_lower": lower,
            "levenshtein_lower_floor": lower.numerator // lower.denominator,
        },
        a.json,
    )
    return 0


def _cmd_counterexample(a):
    code, report = counterexample_code(a.q, a.n)
    if a.out:
        codefile.dump(code, a.out)
    _emit({"command": "counterexample", **report}, a.json)
    return 0


def _cmd_selftest(a):
    from .acceptance import CRITERIA

    results = []
    for name, _, check in CRITERIA:
        try:
            check()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    ok = all(passed for _, passed, _ in results)
    if a.json:
        _emit(
            {
                "command": "selftest",
                "passed": ok,
                "checks": [
                    {"name": n, "passed": s, "detail": m} for n, s, m in results
                ],
            },
            True,
        )
    else:
        for name, passed, msg in results:
            line = f"{'PASS' if passed else 'FAIL'} {name}"
            if msg:
                line += f" ({msg})"
            print(line)
        print(f"selftest: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


# Each subcommand's options, declared once: every parser takes --json and
# --threads first, then its own options in the order --help lists them.
_SHARED = {
    "--json": {"action": "store_true", "help": "emit one JSON document"},
    "--threads": {
        "type": _thread_count,
        "default": 1,
        "help": "accepted on every subcommand; every command runs sequentially, "
        "so results do not depend on it",
    },
}
_INT = {"type": int, "required": True}
_INTS = {"type": _int_list, "required": True}
_OPTIONS = {
    "dist": {"--q": _INT, "--u": _INTS, "--v": _INTS},
    "code-distance": {
        "--in": {"dest": "infile", "required": True},
        "--metric": {"choices": (INSDEL, "HAMMING", L1), "default": None},
    },
    "construct-l1": {
        "--q": _INT,
        "--n": _INT,
        "--delta": _INT,
        "--r": {"type": int, "default": 0},
        "--alpha": {"type": int, "default": 0},
        "--out": {"default": None},
    },
    "lift": {
        "--in": {"dest": "infile", "required": True},
        "--out": {"required": True},
        "--verify": {
            "action": "store_true",
            "help": "refuse (exit 2) instead of skipping the pairwise verification",
        },
    },
    "construct-rs2": {"--n": _INT, "--q": {"type": int, "default": 0}},
    "verify-rs2": {"--q": _INT, "--n": _INT, "--alphas": _INTS, "--exhaustive": {"action": "store_true"}},
    "witness-rs": {"--q": _INT, "--k": _INT, "--alphas": _INTS},
    "exact-iq": {
        "--q": _INT,
        "--n": _INT,
        "--d": _INT,
        "--max-seconds": {"type": _seconds, "default": None},
        "--out": {"default": None},
    },
    "bounds": {"--q": _INT, "--n": _INT, "--d": _INT},
    "counterexample": {"--q": _INT, "--n": _INT, "--out": {"default": None}},
    "selftest": {},
}


@functools.cache
def _parser(name: str) -> _Parser:
    """The subcommand's parser, built on first use and kept: building one
    costs several times what a parse does."""
    p = _Parser(prog=f"insdel {name}", add_help=True)
    for flag, spec in {**_SHARED, **_OPTIONS[name]}.items():
        p.add_argument(flag, **spec)
    return p


_DISPATCH = {
    "dist": _cmd_dist,
    "code-distance": _cmd_code_distance,
    "construct-l1": _cmd_construct_l1,
    "lift": _cmd_lift,
    "construct-rs2": _cmd_construct_rs2,
    "verify-rs2": _cmd_verify_rs2,
    "witness-rs": _cmd_witness_rs,
    "exact-iq": _cmd_exact_iq,
    "bounds": _cmd_bounds,
    "counterexample": _cmd_counterexample,
    "selftest": _cmd_selftest,
}


def _code_names(code) -> set[str]:
    """The global and attribute names a code object and its nested ones read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _code_names(const)
    return names


@functools.cache
def _handler(command: str):
    """The subcommand's handler, with the callees its code names bound here
    on first use; a name already bound (or patched) stays as it is."""
    handler = _DISPATCH[command]
    for name in _code_names(handler.__code__) & _CALLEES.keys():
        if name not in globals():
            __getattr__(name)
    return handler


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command not in _DISPATCH:
        sys.stderr.write(f"insdel: unknown subcommand {command!r}\n{USAGE}")
        return 64
    try:
        args = _parser(command).parse_args(rest)
        return _handler(command)(args)
    except SystemExit as exc:  # argparse exits after printing -h/--help; error() raises DomainError
        return exc.code
    except ScaleCapExceeded as exc:
        sys.stderr.write(f"insdel {command}: scale cap: {exc}\n")
        return 2
    except InsdelError as exc:
        sys.stderr.write(f"insdel {command}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"insdel {command}: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
