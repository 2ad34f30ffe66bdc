"""Lazy start-up: the package and the CLI load a module on first use, with
the same public names, and a name patched on ``insdel.cli`` (as
perfbench/tracing.py patches them) is the one a subcommand calls."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import insdel
from insdel import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

# Home module -> the public names the package has taken from it since
# before its names loaded lazily.
HOMES = {
    "errors": "AlphabetMismatch ContextMismatch DomainError InsdelError LengthMismatch "
    "NonUnitError ScaleCapExceeded UndefinedDistance",
    "words": "CWL1 HAMMING INSDEL L1 Code Composition Word all_words code_min_distance "
    "compositions_colex hamming_distance insdel_distance l1_distance lcs_length phi psi",
    "gf": "FieldCtx Matrix Polynomial ResidueCtx UnitResidue det field_from_size field_make "
    "is_prime next_prime nullspace poly_gcd unit_group_size",
    "cw_l1": "L1ConstructionSpec construct_l1 pi_map smallest_construction_prime verify_l1_code",
    "lift": "guarantee_report lift",
    "rs": "AffineMap RsCode affine_apply affine_fixed_points affine_through check_rs2_criterion "
    "construct_rs2 invertible_difference_indices low_distance_witness rs2_field_threshold "
    "rs_encode rs_exhaustive_insdel",
    "bounds": "counterexample_code distance_drop_threshold exact_iq field_size_threshold "
    "levenshtein_lower_bound project_code singleton_bound size_upper_bound verify_support_structure",
}
SUBMODULES = ("bounds", "codefile", "cw_l1", "errors", "gf", "rs", "value", "words")


def _fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("INSDEL_MAX_PAIRS", None)
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


# -- public API ---------------------------------------------------------


def test_all_lists_the_same_73_names():
    names = {name for names in HOMES.values() for name in names.split()} | set(SUBMODULES)
    assert len(names) == 73
    assert insdel.__all__ == sorted(names)


@pytest.mark.parametrize("home", sorted(HOMES))
def test_names_resolve_to_their_home_objects(home):
    module = importlib.import_module(f"insdel.{home}")
    for name in HOMES[home].split():
        assert getattr(insdel, name) is getattr(module, name), name


def test_submodule_names_resolve_to_submodules():
    for name in SUBMODULES:
        assert getattr(insdel, name) is sys.modules[f"insdel.{name}"]


@pytest.mark.parametrize(
    "imports",
    [
        ("insdel.cw_l1", "insdel.lift"),
        ("insdel.lift", "insdel.cw_l1"),
        ("insdel.bounds",),
        ("insdel.cli",),
        ("insdel",),
    ],
)
def test_lift_stays_the_function_in_every_import_order(imports):
    probe = "".join(f"import {m}\n" for m in imports) + (
        "import sys, insdel\n"
        "from insdel import lift\n"
        "module = sys.modules['insdel.lift']\n"
        "print(insdel.lift is module.lift, lift is module.lift)\n"
    )
    assert _fresh(probe) == "True True\n"


def test_star_import_and_dir_in_a_fresh_interpreter():
    probe = """
import insdel
public = [n for n in dir(insdel) if not n.startswith("_")]
ns = {}
exec("from insdel import *", ns)
ns.pop("__builtins__")
print(public == insdel.__all__, sorted(ns) == insdel.__all__,
      all(ns[n] is getattr(insdel, n) for n in ns))
"""
    assert _fresh(probe) == "True True True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        insdel.no_such_name
    with pytest.raises(ImportError):
        from insdel import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# -- what each subcommand loads -------------------------------------------

LOADED = """
import contextlib, io, sys
from insdel.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
watched = {"json", "fractions", "decimal"}
print(code, *sorted(m for m in sys.modules if m.startswith("insdel.") or m in watched))
"""

# The package loads insdel.lift itself (see insdel/__init__.py), and
# insdel.lift loads errors, value and words. A subcommand loads the home
# module of every callee its code names, also one this argv does not
# reach (codefile for construct-l1 and counterexample without --out).
BASE = ("insdel.cli", "insdel.errors", "insdel.lift", "insdel.value", "insdel.words")
FRACTIONS = ("decimal", "fractions")


LOADS = [
    (["dist", "--q", "2", "--u", "0,1,1", "--v", "1,0", "--json"], ("json",)),
    (["bounds", "--q", "2", "--n", "8", "--d", "4"], ("insdel.bounds", *FRACTIONS)),
    (["bounds", "--q", "2", "--n", "8", "--d", "4", "--json"], ("insdel.bounds", "json", *FRACTIONS)),
    (["counterexample", "--q", "5", "--n", "4"], ("insdel.bounds", "insdel.codefile")),
    (["exact-iq", "--q", "2", "--n", "4", "--d", "4", "--out", "{dir}/iq.txt"], ("insdel.bounds", "insdel.codefile")),
    (["verify-rs2", "--q", "11", "--n", "4", "--alphas", "0,1,3,7"], ("insdel.gf", "insdel.rs")),
    (["construct-rs2", "--n", "4"], ("insdel.gf", "insdel.rs")),
    (["witness-rs", "--q", "7", "--k", "3", "--alphas", "0,1,2,3,4,5"], ("insdel.gf", "insdel.rs")),
    (["construct-l1", "--q", "3", "--n", "6", "--delta", "2"], ("insdel.codefile", "insdel.cw_l1", "insdel.gf")),
    (["code-distance", "--in", "{dir}/l1.txt"], ("insdel.codefile",)),
    (["lift", "--in", "{dir}/l1.txt", "--out", "{dir}/lifted.txt", "--json"], ("insdel.codefile", "json")),
]


@pytest.mark.parametrize(
    "argv, loads", LOADS, ids=[argv[0] + (" --json" if "--json" in argv else "") for argv, _ in LOADS]
)
def test_each_subcommand_loads_only_its_own_modules(argv, loads, tmp_path):
    assert cli.main(["construct-l1", "--q", "3", "--n", "6", "--delta", "2", "--out", str(tmp_path / "l1.txt")]) == 0
    loaded = _fresh(LOADED, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert loaded.split() == ["0", *sorted(BASE + loads)]


# -- the names perfbench/tracing.py patches on insdel.cli ------------------

# Each traced name and a subcommand that calls it; construct-l1 writes the
# file that lift and code-distance read.
TRACED = {
    "construct_l1": ["construct-l1", "--q", "3", "--n", "6", "--delta", "2", "--out", "{dir}/l1.txt"],
    "lift": ["lift", "--in", "{dir}/l1.txt", "--out", "{dir}/lifted.txt"],
    "code_min_distance": ["code-distance", "--in", "{dir}/l1.txt"],
    "insdel_distance": ["dist", "--q", "2", "--u", "0,1,1", "--v", "1,0"],
    "field_from_size": ["verify-rs2", "--q", "11", "--n", "4", "--alphas", "0,1,3,7"],
    "check_rs2_criterion": ["verify-rs2", "--q", "11", "--n", "4", "--alphas", "0,1,3,7"],
    "rs_exhaustive_insdel": ["verify-rs2", "--q", "11", "--n", "4", "--alphas", "0,1,3,7", "--exhaustive"],
    "construct_rs2": ["construct-rs2", "--n", "4"],
    "low_distance_witness": ["witness-rs", "--q", "7", "--k", "3", "--alphas", "0,1,2,3,4,5"],
    "exact_iq": ["exact-iq", "--q", "2", "--n", "4", "--d", "4"],
    "counterexample_code": ["counterexample", "--q", "5", "--n", "4"],
    "size_upper_bound": ["bounds", "--q", "2", "--n", "8", "--d", "4"],
    "levenshtein_lower_bound": ["bounds", "--q", "2", "--n", "8", "--d", "4"],
    "singleton_bound": ["bounds", "--q", "2", "--n", "8", "--d", "4"],
}


def test_tracer_patches_the_listed_names_before_any_command():
    probe = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import insdel.cli as cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(sorted(attr for owner, attr, _ in tracer._undo if owner is cli)))
"""
    assert json.loads(_fresh(probe)) == sorted(TRACED)


def test_traced_names_resolve_in_a_fresh_interpreter():
    home = {name: home for home, names in HOMES.items() for name in names.split()}
    probe = f"""
import importlib, insdel.cli as cli
home = {home!r}
got = {{name: getattr(cli, name) for name in {sorted(TRACED)!r}}}
print(all(fn is getattr(importlib.import_module("insdel." + home[name]), name) for name, fn in got.items()))
"""
    assert _fresh(probe) == "True\n"


def _recording(name, fn, calls):
    def recording(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return recording


@pytest.mark.parametrize("name", sorted(TRACED))
def test_subcommand_calls_the_patched_name(name, monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(cli, name, _recording(name, getattr(cli, name), calls))
    if name in ("lift", "code_min_distance"):
        assert cli.main([a.replace("{dir}", str(tmp_path)) for a in TRACED["construct_l1"]]) == 0
    assert cli.main([a.replace("{dir}", str(tmp_path)) for a in TRACED[name]]) == 0
    assert name in calls


def test_names_patched_before_the_first_run_are_called(tmp_path):
    probe = f"""
import contextlib, io, json
import insdel.cli as cli
traced = {TRACED!r}
calls = []
def recording(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper
for name in traced:
    setattr(cli, name, recording(name, getattr(cli, name)))
missed = []
for name, argv in traced.items():
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([a.replace("{{dir}}", {str(tmp_path)!r}) for a in argv])
    if code != 0 or name not in calls:
        missed.append(name)
print(json.dumps(missed))
"""
    assert json.loads(_fresh(probe)) == []
