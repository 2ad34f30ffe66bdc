import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insdel import cw_l1
from insdel.cw_l1 import (
    ENUMERATION_CAP,
    L1ConstructionSpec,
    _composition_count,
    construct_l1,
    pi_map,
    smallest_construction_prime,
    verify_l1_code,
)
from insdel.errors import DomainError, ScaleCapExceeded
from insdel.gf import Polynomial, UnitResidue, field_make
from insdel.words import (
    CWL1,
    L1,
    Code,
    Composition,
    code_min_distance,
    compositions_colex,
    l1_distance,
)


class TestConstructionPrime:
    def test_examples(self):
        assert smallest_construction_prime(2) == 3
        assert smallest_construction_prime(4) == 5
        assert smallest_construction_prime(6) == 7

    @given(st.integers(2, 200))
    @settings(max_examples=50, deadline=None)
    def test_in_window(self, q):
        r = smallest_construction_prime(q)
        assert q + 1 <= r <= 2 * (q + 1)


class TestSpecValidation:
    def test_defaults(self):
        spec = L1ConstructionSpec(q=2, n=3, delta=2)
        assert spec.r == 3
        assert spec.alpha == 0
        assert spec.alphas == (1, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            L1ConstructionSpec(q=1, n=3, delta=2)
        with pytest.raises(DomainError):
            L1ConstructionSpec(q=2, n=1, delta=2)
        with pytest.raises(DomainError):
            L1ConstructionSpec(q=2, n=3, delta=2, r=4)
        with pytest.raises(DomainError):
            L1ConstructionSpec(q=2, n=3, delta=2, r=2)

    def test_alpha_must_avoid_bucket_points(self):
        with pytest.raises(DomainError):
            L1ConstructionSpec(q=2, n=3, delta=2, alphas=(0, 1))

    def test_guaranteed_lower_bound(self):
        assert L1ConstructionSpec(q=2, n=3, delta=2).guaranteed_lower_bound() == 2
        # C(11,8)/(5^0*4) = 165/4 rounded up.
        assert L1ConstructionSpec(q=4, n=8, delta=2, r=5).guaranteed_lower_bound() == 42


class TestPiMap:
    def test_multiplicative_in_counts(self):
        spec = L1ConstructionSpec(q=3, n=4, delta=3)
        a = Composition(3, (2, 1, 1))
        b = Composition(3, (0, 3, 1))
        ra, rb = pi_map(a, spec), pi_map(b, spec)
        combined = pi_map(Composition(3, (2, 4, 2)), _respec(spec, 8))
        assert (ra * rb).coeffs == combined.coeffs

    def test_rejects_mismatched_composition(self):
        spec = L1ConstructionSpec(q=2, n=3, delta=2)
        with pytest.raises(DomainError):
            pi_map(Composition(2, (1, 1)), spec)


def _respec(spec, n):
    return L1ConstructionSpec(
        q=spec.q, n=n, delta=spec.delta, r=spec.r, alpha=spec.alpha, alphas=spec.alphas
    )


class TestConstruction:
    def test_small_example(self):
        code, report = construct_l1(L1ConstructionSpec(q=2, n=3, delta=2))
        assert report == {
            "q": 2,
            "n": 3,
            "delta": 2,
            "r": 3,
            "bucket_unit": 1,
            "size": 2,
            "guaranteed_lower_bound": 2,
            "verified_min_l1": 4,
        }
        assert set(code.members) == {Composition(2, (2, 1)), Composition(2, (0, 3))}

    def test_size_meets_guarantee_and_distance(self):
        for q, n, delta in [(2, 4, 2), (3, 5, 2), (3, 6, 3), (4, 8, 2)]:
            spec = L1ConstructionSpec(q=q, n=n, delta=delta)
            code, report = construct_l1(spec)
            assert report["size"] >= report["guaranteed_lower_bound"]
            if report["verified_min_l1"] is not None:
                assert report["verified_min_l1"] >= 2 * delta
            ok, witness = verify_l1_code(code, delta)
            assert ok, witness

    def test_buckets_partition_the_space(self):
        spec = L1ConstructionSpec(q=3, n=4, delta=2)
        total = math.comb(4 + 3 - 1, 4)
        rctx = spec.residue_ctx()
        codes = {}
        for comp in compositions_colex(4, 3):
            codes.setdefault(pi_map(comp, spec).code, []).append(comp)
        assert sum(len(v) for v in codes.values()) == total

    def test_same_bucket_implies_distance(self):
        spec = L1ConstructionSpec(q=3, n=5, delta=2)
        buckets = {}
        for comp in compositions_colex(5, 3):
            buckets.setdefault(pi_map(comp, spec).code, []).append(comp)
        for members in buckets.values():
            for a, b in itertools.combinations(members, 2):
                assert l1_distance(a, b) >= 2 * spec.delta

    def test_enumeration_cap(self):
        with pytest.raises(ScaleCapExceeded):
            construct_l1(L1ConstructionSpec(q=12, n=40, delta=2))

    def test_enumeration_cap_without_forming_the_binomial(self):
        # C(19999, 10000) has over 6000 digits; the message names it by
        # its parameters.
        with pytest.raises(ScaleCapExceeded, match="q=10000, n=10000"):
            construct_l1(L1ConstructionSpec(q=10000, n=10000, delta=3))
        with pytest.raises(ScaleCapExceeded):
            L1ConstructionSpec(q=99999999999, n=3, delta=2)

    def test_composition_count(self):
        for q in range(1, 9):
            for n in range(0, 12):
                total = math.comb(n + q - 1, n)
                assert _composition_count(n, q, 10**9) == total
                assert _composition_count(n, q, total) == total
                assert _composition_count(n, q, total - 1) is None
        assert _composition_count(10**11, 10**11, ENUMERATION_CAP) is None

    def test_verification_stops_at_the_pair_cap(self, monkeypatch):
        spec = L1ConstructionSpec(q=3, n=6, delta=2)
        _, full = construct_l1(spec)
        pairs = full["size"] * (full["size"] - 1) // 2
        monkeypatch.setenv("INSDEL_MAX_PAIRS", str(pairs))
        assert construct_l1(spec)[1] == full
        monkeypatch.setenv("INSDEL_MAX_PAIRS", str(pairs - 1))
        monkeypatch.setattr(cw_l1, "code_min_distance", None)
        code, report = construct_l1(spec)
        assert report == {**full, "verified_min_l1": None, "note": "min L1 >= 4 guaranteed, unverified"}
        assert len(code) == full["size"]

    def test_long_weight_past_the_pair_cap_is_not_verified(self):
        # 10001 compositions; the fibre of 5001 has 12.5 million pairs.
        start = time.monotonic()
        _, report = construct_l1(L1ConstructionSpec(q=2, n=10**4, delta=2))
        assert time.monotonic() - start < 5
        assert report["size"] == 5001
        assert report["verified_min_l1"] is None
        assert report["note"] == "min L1 >= 4 guaranteed, unverified"

    def test_ring_degree_cap_before_bucketing(self, monkeypatch):
        monkeypatch.setattr(cw_l1, "_unit_map", None)
        # 401 compositions times 399^2 ring steps.
        with pytest.raises(ScaleCapExceeded, match="delta=400"):
            construct_l1(L1ConstructionSpec(q=2, n=400, delta=400))

    def test_ring_degree_cap_boundary(self, monkeypatch):
        # q=2, n=5: 6 compositions times (3-1)^2 = 24 ring steps.
        spec = L1ConstructionSpec(q=2, n=5, delta=3)
        monkeypatch.setattr(cw_l1, "ENUMERATION_CAP", 24)
        assert construct_l1(spec)[1]["size"] >= 1
        monkeypatch.setattr(cw_l1, "ENUMERATION_CAP", 23)
        with pytest.raises(ScaleCapExceeded, match="6 compositions times"):
            construct_l1(spec)

    def test_composition_width_cap_boundary(self, monkeypatch):
        # q=3, n=2: 6 compositions times q = 18 counts, and 6 ring steps.
        spec = L1ConstructionSpec(q=3, n=2, delta=2)
        monkeypatch.setattr(cw_l1, "ENUMERATION_CAP", 18)
        assert construct_l1(spec)[1]["size"] >= 1
        monkeypatch.setattr(cw_l1, "ENUMERATION_CAP", 17)
        with pytest.raises(ScaleCapExceeded, match="6 compositions times q=3 counts for n=2"):
            construct_l1(spec)

    def test_composition_width_cap_before_bucketing(self, monkeypatch):
        monkeypatch.setattr(cw_l1, "_unit_map", None)
        # 9997156 compositions of 4471 bins pass the count cap alone.
        with pytest.raises(ScaleCapExceeded, match="q=4471"):
            construct_l1(L1ConstructionSpec(q=4471, n=2, delta=2))

    def test_deterministic(self):
        spec = L1ConstructionSpec(q=3, n=5, delta=2)
        first, r1 = construct_l1(spec)
        second, r2 = construct_l1(spec)
        assert first.members == second.members
        assert r1 == r2


def _reference_construct(spec):
    """The bucketing loop with every unit product taken as a Polynomial
    product reduced by Polynomial division."""
    rctx = spec.residue_ctx()
    fctx = spec.field_ctx()
    factors = [Polynomial(fctx, (fctx.neg(ai), 1)) % rctx.modulus for ai in spec.alphas]
    buckets = {}
    for comp in compositions_colex(spec.n, spec.q):
        res = Polynomial(fctx, (1,))
        for f, count in zip(factors, comp.counts):
            for _ in range(count):
                res = (res * f) % rctx.modulus
        padded = res.coeffs + (0,) * (rctx.degree - len(res.coeffs))
        buckets.setdefault(rctx.encode(padded), []).append(comp)
    best_code = min(buckets, key=lambda c: (-len(buckets[c]), c))
    members = tuple(buckets[best_code])
    code = Code(spec.q, spec.n, members, kind=CWL1)
    report = {
        "q": spec.q,
        "n": spec.n,
        "delta": spec.delta,
        "r": spec.r,
        "bucket_unit": best_code,
        "size": len(members),
        "guaranteed_lower_bound": spec.guaranteed_lower_bound(),
        "verified_min_l1": code_min_distance(code, L1)[0] if len(members) >= 2 else None,
    }
    return members, report


REFERENCE_GRID = [
    L1ConstructionSpec(q=2, n=5, delta=2),
    L1ConstructionSpec(q=3, n=6, delta=3),
    L1ConstructionSpec(q=3, n=6, delta=3, alpha=2),
    L1ConstructionSpec(q=4, n=7, delta=3, alpha=1),
    L1ConstructionSpec(q=3, n=7, delta=4),
    L1ConstructionSpec(q=4, n=6, delta=5, alpha=3),
    L1ConstructionSpec(q=5, n=6, delta=3, r=11, alpha=7),
    # Ring degrees 5 and 6, with every term of the modulus nonzero; the
    # q = 2 fibres have 3 members.
    L1ConstructionSpec(q=3, n=8, delta=6, r=7, alpha=2),
    L1ConstructionSpec(q=2, n=28, delta=6, r=7, alpha=1),
    L1ConstructionSpec(q=2, n=28, delta=7, r=7, alpha=4),
    # Counts past the unit group's order (6, 4 and 3), which the unit map
    # reduces before taking powers.
    L1ConstructionSpec(q=2, n=13, delta=3),
    L1ConstructionSpec(q=3, n=9, delta=2, alpha=3),
    L1ConstructionSpec(q=2, n=7, delta=3, irreducible_modulus=(1, 1, 1)),
    L1ConstructionSpec(
        q=3, n=5, delta=3, r=3, alphas=(0, 1, 2), irreducible_modulus=(1, 0, 1)
    ),
    L1ConstructionSpec(
        q=5, n=6, delta=4, r=5, irreducible_modulus=field_make(5, 3).modulus
    ),
]


def _spec_id(spec):
    ring = "irr" if spec.irreducible_modulus else f"a{spec.alpha}"
    return f"q{spec.q}-n{spec.n}-d{spec.delta}-r{spec.r}-{ring}"


class TestAgainstPolynomialReference:
    @pytest.mark.parametrize("spec", REFERENCE_GRID, ids=_spec_id)
    def test_construct_matches_reference(self, spec):
        code, report = construct_l1(spec)
        members, expected = _reference_construct(spec)
        assert report == expected
        assert code.members == members

    @pytest.mark.parametrize("spec", REFERENCE_GRID, ids=_spec_id)
    def test_pi_map_matches_bucket_codes(self, spec):
        code, report = construct_l1(spec)
        for comp in code.members:
            assert pi_map(comp, spec).code == report["bucket_unit"]


def test_bucketing_builds_no_unit_residue_per_composition(monkeypatch):
    built = []
    init = UnitResidue.__init__
    monkeypatch.setattr(UnitResidue, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    for spec in (L1ConstructionSpec(q=4, n=12, delta=3, alpha=2), REFERENCE_GRID[-1]):
        built.clear()
        construct_l1(spec)
        # The q reduced linear factors and the ring's one, for 455 and 210
        # compositions.
        assert len(built) == spec.q + 1


@pytest.mark.parametrize(
    "spec",
    [
        L1ConstructionSpec(q=2, n=13, delta=3),
        L1ConstructionSpec(q=4, n=12, delta=3, alpha=2),
        REFERENCE_GRID[-1],
    ],
    ids=_spec_id,
)
def test_bucketing_squares_each_factor_once(monkeypatch, spec):
    # Each factor is squared once per bit of the largest reduced count;
    # then each composition multiplies one tabled power per set bit of its
    # reduced counts, after the first, and squares nothing.
    calls = []
    for name in ("_mul_fold", "_square_fold"):
        kernel = getattr(cw_l1, name)
        monkeypatch.setattr(cw_l1, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    construct_l1(spec)
    order = spec.unit_count()
    per_composition = sum(
        max(sum(bin(c % order).count("1") for c in comp.counts) - 1, 0)
        for comp in compositions_colex(spec.n, spec.q)
    )
    table = spec.q * (min(spec.n, order - 1).bit_length() - 1)
    assert len(calls) <= table + per_composition


class TestExpertModulus:
    def test_irreducible_modulus_path(self):
        # x^2 + 1 is irreducible over F_3; permits r = q = 3.
        spec = L1ConstructionSpec(
            q=3, n=5, delta=3, r=3, alphas=(0, 1, 2), irreducible_modulus=(1, 0, 1)
        )
        assert spec.unit_count() == 3**2 - 1
        code, report = construct_l1(spec)
        assert report["size"] >= spec.guaranteed_lower_bound()
        ok, witness = verify_l1_code(code, 3)
        assert ok, witness

    def test_reducible_modulus_rejected(self):
        with pytest.raises(DomainError):
            L1ConstructionSpec(
                q=3, n=5, delta=3, r=3, alphas=(0, 1, 2), irreducible_modulus=(0, 0, 1)
            )

    def test_needs_delta_three(self):
        with pytest.raises(DomainError):
            L1ConstructionSpec(
                q=3, n=5, delta=2, r=3, alphas=(0, 1, 2), irreducible_modulus=(1, 1)
            )


class TestVerifier:
    def test_flags_violation(self):
        code = Code(
            2, 3, (Composition(2, (0, 3)), Composition(2, (1, 2))), kind=CWL1
        )
        ok, witness = verify_l1_code(code, 2)
        assert not ok
        assert witness == (Composition(2, (0, 3)), Composition(2, (1, 2)))

    def test_singleton_passes(self):
        code = Code(2, 3, (Composition(2, (0, 3)),), kind=CWL1)
        assert verify_l1_code(code, 5) == (True, None)
