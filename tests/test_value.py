"""Value types on __slots__: what ``import insdel.cli`` loads, and parity
with the frozen dataclasses they replace."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel.cw_l1 import L1ConstructionSpec
from insdel.gf import Matrix, Polynomial, ResidueCtx, UnitResidue, field_make
from insdel.rs import AffineMap, RsCode
from insdel.words import CWL1, INSDEL, Code, Composition, Word

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_dataclasses_out():
    probe = "import sys, insdel.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'insdel.acceptance', 'insdel.oracles'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"


# The dataclasses the value types replace, under the same class names.
RefWord = dataclasses.make_dataclass("Word", [("q", int), ("symbols", tuple)], frozen=True, order=True)
RefComposition = dataclasses.make_dataclass(
    "Composition", [("q", int), ("counts", tuple)], frozen=True, order=True
)

WORDS = st.integers(2, 3).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), max_size=3).map(tuple))
)
COMPOSITIONS = st.integers(1, 3).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, 2), min_size=q, max_size=q).map(tuple))
)


def _same_behaviour(ours, refs):
    (a, b), (ra, rb) = ours, refs
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert hash(a) == hash(ra)
    assert (a < b) == (ra < rb)
    assert (a <= b) == (ra <= rb)
    assert (a > b) == (ra > rb)
    assert (a >= b) == (ra >= rb)
    assert repr(a) == repr(ra)
    name = dataclasses.fields(ra)[0].name
    for obj in (a, ra):
        with pytest.raises(AttributeError):
            setattr(obj, name, 5)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert obj != tuple(getattr(obj, f.name) for f in dataclasses.fields(ra))
        with pytest.raises(TypeError):
            obj < ()


@given(WORDS, WORDS)
def test_word_matches_frozen_dataclass(u, v):
    _same_behaviour((Word(*u), Word(*v)), (RefWord(*u), RefWord(*v)))


@given(COMPOSITIONS, COMPOSITIONS)
def test_composition_matches_frozen_dataclass(a, b):
    _same_behaviour((Composition(*a), Composition(*b)), (RefComposition(*a), RefComposition(*b)))


def test_classes_differ_even_with_equal_fields():
    assert Word(2, (0, 1)) != Composition(2, (0, 1))
    assert len({Word(2, (0, 1)), Composition(2, (0, 1))}) == 2
    assert repr(Word(2, (0, 1))) == "Word(q=2, symbols=(0, 1))"
    assert len(Word(2, (0, 1, 1))) == 3


def _values():
    f7 = field_make(7)
    ring = ResidueCtx.linear_power(f7, 0, 3)
    return [
        Word(2, (0, 1)),
        Composition(2, (1, 1)),
        Code(2, 2, (Word(2, (0, 1)),)),
        Polynomial(f7, (1, 2)),
        Matrix(f7, 1, 2, (3, 4)),
        ring,
        UnitResidue(ring, (1, 0)),
        RsCode(f7, (0, 1, 2), 2),
        AffineMap(f7, 2, 3),
        L1ConstructionSpec(3, 4, 2),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_fields_equality_repr_and_immutability(value):
    cls = type(value)
    fields = [getattr(value, name) for name in cls.__slots__]
    twin = cls(*fields)
    assert twin == value and hash(twin) == hash(value) == hash(tuple(fields))
    assert value != object()
    shown = ", ".join(f"{name}={v!r}" for name, v in zip(cls.__slots__, fields))
    assert repr(value) == f"{cls.__name__}({shown})"
    with pytest.raises(AttributeError):
        setattr(value, cls.__slots__[0], None)
    assert not hasattr(value, "__dict__")


def test_constructor_signatures():
    def params(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(Code) == [("q", empty), ("n", empty), ("members", ()), ("kind", INSDEL)]
    assert params(L1ConstructionSpec) == [
        ("q", empty),
        ("n", empty),
        ("delta", empty),
        ("r", 0),
        ("alpha", 0),
        ("alphas", ()),
        ("irreducible_modulus", None),
    ]


def test_l1_spec_from_defaults_and_from_keywords():
    spec = L1ConstructionSpec(5, 10, 3)
    assert (spec.r, spec.alpha, spec.alphas, spec.irreducible_modulus) == (7, 0, (1, 2, 3, 4, 5), None)
    keywords = L1ConstructionSpec(
        q=5, n=10, delta=3, r=7, alpha=0, alphas=[1, 2, 3, 4, 5], irreducible_modulus=None
    )
    assert keywords == spec and hash(keywords) == hash(spec)
    assert keywords.alphas == (1, 2, 3, 4, 5)
    expert = L1ConstructionSpec(q=3, n=4, delta=3, irreducible_modulus=(1, 0, 1))
    assert (expert.r, expert.alphas) == (3, (0, 1, 2))
    assert L1ConstructionSpec(q=3, n=4, delta=3, alpha=4, r=7).alphas == (0, 1, 2)
    assert Code(2, 3, kind=CWL1).members == ()
