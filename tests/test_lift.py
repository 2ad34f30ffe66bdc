import importlib
import math

import pytest

from insdel.cw_l1 import L1ConstructionSpec, construct_l1
from insdel.errors import DomainError, ScaleCapExceeded
from insdel.lift import guarantee_report, lift, pair_cap, verification_refusal
from insdel.words import CWL1, INSDEL, Code, Composition, Word, code_min_distance, psi

# The package re-exports the function ``lift`` over its module name.
lift_module = importlib.import_module("insdel.lift")


def small_cwl1_code():
    return Code(
        2, 3, (Composition(2, (3, 0)), Composition(2, (1, 2))), kind=CWL1
    )


class TestLift:
    def test_memberwise_sorted_words(self):
        lifted, report = lift(small_cwl1_code())
        assert lifted.kind == INSDEL
        assert set(lifted.members) == {Word(2, (0, 0, 0)), Word(2, (0, 1, 1))}
        assert report["verified"] is True
        assert report["min_insdel"] == 4

    def test_rejects_insdel_input(self):
        code = Code(2, 2, (Word(2, (0, 0)), Word(2, (1, 1))))
        with pytest.raises(DomainError):
            lift(code)

    def test_distance_preserved_from_construction(self):
        for q, n, delta in [(2, 4, 2), (3, 5, 2), (4, 8, 2)]:
            source, src_report = construct_l1(L1ConstructionSpec(q=q, n=n, delta=delta))
            lifted, report = lift(source)
            assert len(lifted) == len(source)
            assert report["verified"] is True
            assert report["min_insdel"] == src_report["verified_min_l1"]
            assert report["min_insdel"] >= 2 * delta

    def test_injective_on_johnson_space(self):
        comps = set()
        words = set()
        for a in small_cwl1_code().members:
            comps.add(a)
            words.add(psi(a))
        assert len(words) == len(comps)

    def test_cap_skips_verification(self, monkeypatch):
        monkeypatch.setenv("INSDEL_MAX_PAIRS", "0")
        lifted, report = lift(small_cwl1_code())
        assert report["verified"] is False
        assert report["min_insdel"] is None
        assert report["note"] == "inherited, unverified"
        assert len(lifted) == 2

    def test_cell_budget_before_any_lcs(self, monkeypatch):
        # One pair of length-40000 words: 1.6e9 LCS cells, past 9 * 10^7.
        monkeypatch.delenv("INSDEL_MAX_PAIRS", raising=False)
        monkeypatch.setattr(lift_module, "code_min_distance", None)
        code = Code(2, 40000, (Composition(2, (40000, 0)), Composition(2, (0, 40000))), kind=CWL1)
        assert lift(code)[1] == {
            "size": 2,
            "pairs": 1,
            "min_insdel": None,
            "verified": False,
            "note": "inherited, unverified",
        }

    def test_cell_budget_boundary(self, monkeypatch):
        # Two words of length 3 take 9 cells, the budget of one pair; two of
        # length 4 take 16, past one pair's budget and inside two pairs'.
        monkeypatch.setenv("INSDEL_MAX_PAIRS", "1")
        assert lift(small_cwl1_code())[1]["verified"] is True
        length_four = Code(2, 4, (Composition(2, (4, 0)), Composition(2, (1, 3))), kind=CWL1)
        assert lift(length_four)[1]["verified"] is False
        monkeypatch.setenv("INSDEL_MAX_PAIRS", "2")
        assert lift(length_four)[1]["min_insdel"] == 6
        assert verification_refusal(1, 4, 2) is None
        assert verification_refusal(1, 4, 1) == (
            "1 verification pairs of length-4 words take 16 LCS cells, past the budget 9"
            " (9 for each of the 1 pairs of INSDEL_MAX_PAIRS)"
        )
        assert verification_refusal(2, 1, 1) == "2 verification pairs exceed the cap 1 (INSDEL_MAX_PAIRS)"

    def test_fewer_than_two_members_unverified(self):
        for members in ((), (Composition(2, (3, 0)),)):
            report = lift(Code(2, 3, members, kind=CWL1))[1]
            assert report["pairs"] == 0
            assert report["verified"] is False
            assert report["note"] == "inherited, unverified"

    def test_symbol_cap_before_any_word(self, monkeypatch):
        heavy = Code(2, 10**11, (Composition(2, (10**11, 0)),), kind=CWL1)
        with pytest.raises(ScaleCapExceeded, match="10000000 symbols"):
            lift(heavy)
        # Two words of length 3.
        monkeypatch.setattr(lift_module, "SYMBOL_CAP", 6)
        assert lift(small_cwl1_code())[1]["size"] == 2
        monkeypatch.setattr(lift_module, "SYMBOL_CAP", 5)
        with pytest.raises(ScaleCapExceeded):
            lift(small_cwl1_code())

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("INSDEL_MAX_PAIRS", "123")
        assert pair_cap() == 123
        monkeypatch.delenv("INSDEL_MAX_PAIRS")
        assert pair_cap() == 10**7

    @pytest.mark.parametrize("raw", ["abc", "1e3", "-1"])
    def test_env_cap_rejects_malformed(self, monkeypatch, raw):
        monkeypatch.setenv("INSDEL_MAX_PAIRS", raw)
        with pytest.raises(DomainError, match="INSDEL_MAX_PAIRS"):
            pair_cap()


class TestGuaranteeReport:
    def test_reference_values(self):
        report = guarantee_report(4, 8, 2)
        assert report["guaranteed_size"] == 19  # ceil(C(11,8) / 9)
        assert report["singleton_ceiling"] == 4**7

    def test_worst_case_denominator(self):
        q, n, delta = 3, 7, 3
        report = guarantee_report(q, n, delta)
        expected = -(-math.comb(n + q - 1, n) // ((2 * q + 2) ** (delta - 2) * (2 * q + 1)))
        assert report["guaranteed_size"] == expected
        assert report["singleton_exponent"] == n - delta + 1

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            guarantee_report(1, 3, 2)
        with pytest.raises(DomainError):
            guarantee_report(3, 2, 3)
