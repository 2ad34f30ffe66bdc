import itertools
import math
import random

import pytest

from insdel.errors import DomainError, ScaleCapExceeded
from insdel.gf import SIZE_CAP, FieldCtx, Matrix, Polynomial, det, field_from_size, field_make, is_prime, next_prime
import insdel.rs as rs
from insdel.rs import (
    ALL_FIXED,
    CONSTRUCT_STEP_CAP,
    CRITERION_STEP_CAP,
    EXHAUSTIVE_CAP,
    WITNESS_STEP_CAP,
    AffineMap,
    RsCode,
    affine_apply,
    affine_fixed_points,
    affine_through,
    check_rs2_criterion,
    construct_rs2,
    construct_rs2_steps,
    criterion_steps,
    invertible_difference_indices,
    low_distance_witness,
    rs2_field_threshold,
    rs_encode,
    rs_exhaustive_insdel,
    witness_steps,
)
from insdel.words import PackedWords, Word, insdel_distance, lcs_length_raw


class TestAffineMaps:
    def test_rejects_zero_scale(self):
        with pytest.raises(DomainError):
            AffineMap(field_make(5), 0, 1)

    def test_point_action_example(self):
        ctx = field_make(5)
        s = AffineMap(ctx, 2, 3)
        # 2^(-1) = 3 in F_5, so 0 -> 3*(0-3) = 3*2 = 6 = 1.
        assert affine_apply(s, 0) == 1

    def test_fixed_points_cases(self):
        ctx = field_make(5)
        assert affine_fixed_points(AffineMap(ctx, 1, 0)) == ALL_FIXED
        assert affine_fixed_points(AffineMap(ctx, 1, 2)) == frozenset()
        s = AffineMap(ctx, 2, 3)
        fixed = affine_fixed_points(s)
        assert fixed == frozenset({2})
        assert affine_apply(s, 2) == 2

    @pytest.mark.parametrize("q", [5, 7, 13])
    def test_two_transitive_exhaustive(self, q):
        ctx = field_make(q)
        for src in itertools.permutations(range(q), 2):
            for dst in itertools.permutations(range(q), 2):
                s = affine_through(ctx, src, dst)
                assert affine_apply(s, src[0]) == dst[0]
                assert affine_apply(s, src[1]) == dst[1]

    @pytest.mark.parametrize("q", [5, 7, 13])
    def test_at_most_one_fixed_point(self, q):
        ctx = field_make(q)
        for a in range(1, q):
            for b in range(q):
                s = AffineMap(ctx, a, b)
                if s.is_identity():
                    continue
                fixed = [x for x in range(q) if affine_apply(s, x) == x]
                assert len(fixed) <= 1
                assert frozenset(fixed) == affine_fixed_points(s)

    def test_substitution_compatible_with_point_action(self):
        ctx = field_make(7)
        rng = random.Random(11)
        for _ in range(200):
            a = rng.randrange(1, 7)
            b = rng.randrange(7)
            s = AffineMap(ctx, a, b)
            f = Polynomial(ctx, tuple(rng.randrange(7) for _ in range(3)))
            alpha = rng.randrange(7)
            assert f(alpha) == s.apply_polynomial(f)(affine_apply(s, alpha))


class TestRsEncoding:
    def test_codeword_is_evaluation_vector(self):
        ctx = field_make(7)
        code = RsCode(ctx, (0, 1, 2, 3), 2)
        f = Polynomial(ctx, (1, 2))
        assert rs_encode(code, f) == (1, 3, 5, 0)

    def test_rejects_high_degree_message(self):
        ctx = field_make(7)
        code = RsCode(ctx, (0, 1, 2), 2)
        with pytest.raises(DomainError):
            rs_encode(code, Polynomial(ctx, (0, 0, 1)))

    def test_rejects_repeated_points(self):
        with pytest.raises(DomainError):
            RsCode(field_make(7), (0, 1, 1), 2)


class TestRs2Criterion:
    def test_threshold_values(self):
        assert rs2_field_threshold(4) == 36
        assert rs2_field_threshold(5) == 180
        with pytest.raises(DomainError):
            rs2_field_threshold(3)

    def test_verdict_matches_exhaustive_sweep(self):
        rng = random.Random(20240824)
        for q, n in [(7, 3), (7, 4), (11, 4), (13, 5)]:
            ctx = field_make(q)
            for _ in range(10):
                alphas = tuple(rng.sample(range(q), n))
                code = RsCode(ctx, alphas, 2)
                ok, witness = check_rs2_criterion(code)
                d, _ = rs_exhaustive_insdel(code)
                assert ok == (d == 2 * n - 4), (q, alphas)

    def test_witness_translates_to_close_codewords(self):
        # Consecutive points over a small field fail the criterion.
        ctx = field_make(7)
        code = RsCode(ctx, (0, 1, 2, 3), 2)
        ok, witness = check_rs2_criterion(code)
        if not ok:
            i, j, sigma = witness
            assert len(i) == len(j) == 3
            assert affine_apply(sigma, code.alphas[i[2]]) == code.alphas[j[2]]

    def test_exhaustive_cap(self):
        code = RsCode(field_make(101), tuple(range(4)), 2)
        with pytest.raises(ScaleCapExceeded):
            rs_exhaustive_insdel(code, cap=100)

    def test_cap_counts_all_codewords(self):
        # The cap bounds q^k, the size of the whole code, although only
        # orbit representatives are swept.
        code = RsCode(field_make(7), tuple(range(4)), 2)
        assert rs_exhaustive_insdel(code, cap=49)[0] == rs_exhaustive_insdel(code)[0]
        with pytest.raises(ScaleCapExceeded, match="49 codewords"):
            rs_exhaustive_insdel(code, cap=48)
        assert EXHAUSTIVE_CAP == 10**4
        with pytest.raises(ScaleCapExceeded, match="10201 codewords"):
            rs_exhaustive_insdel(RsCode(field_make(101), tuple(range(4)), 2))
        assert rs_exhaustive_insdel(RsCode(field_make(97), tuple(range(4)), 2))[0] >= 2


def _full_sweep(code):
    """Every unordered pair of codewords, messages in product order: the
    reference for the orbit-quotient sweep."""
    ctx = code.ctx
    words = [
        tuple(Polynomial(ctx, coeffs)(a) for a in code.alphas)
        for coeffs in itertools.product(range(ctx.q), repeat=code.k)
    ]
    best = witness = None
    for idx, u in enumerate(words):
        for v in words[idx + 1 :]:
            d = 2 * code.n - 2 * lcs_length_raw(u, v)
            if best is None or d < best:
                best, witness = d, (u, v)
    return best, witness


class TestExhaustiveSweep:
    @pytest.mark.parametrize(
        "q, k",
        [(7, 1), (8, 1)]
        + [(5, 2), (7, 2), (13, 2), (4, 2), (8, 2), (9, 2), (16, 2), (25, 2), (27, 2)]
        + [(4, 3), (5, 3), (8, 3), (9, 3)],
    )
    def test_matches_full_sweep(self, q, k):
        ctx = field_from_size(q)
        rng = random.Random(q * 10 + k)
        for n in range(k, min(q, 6) + 1):
            for _ in range(2):
                code = RsCode(ctx, tuple(rng.sample(range(q), n)), k)
                assert rs_exhaustive_insdel(code) == _full_sweep(code), code.alphas

    @pytest.mark.parametrize(
        "q, k, n", [(7, 1, 5), (16, 1, 6), (7, 2, 5), (16, 2, 4), (27, 2, 6), (4, 3, 4), (8, 3, 6), (4, 4, 4)]
    )
    def test_codebook_field_calls(self, monkeypatch, q, k, n):
        # One q x q addition table and q scaled rows per degree 1..k-1;
        # no field call for any single codeword.
        code = RsCode(field_from_size(q), tuple(random.Random(q * n + k).sample(range(q), n)), k)
        calls = []

        def counting(name):
            fn = getattr(FieldCtx, name)
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
            monkeypatch.setattr(FieldCtx, name, counting(name))
        rs_exhaustive_insdel(code)
        if k == 1:
            assert calls == []
        assert calls.count("add") <= q * q
        assert calls.count("mul") <= (k - 1) * q * n
        assert set(calls) <= {"add", "mul"}

    @pytest.mark.parametrize("q, k", [(7, 1), (7, 2), (4, 3)])
    def test_sweeps_one_representative_per_orbit(self, q, k, monkeypatch):
        # One kernel row per representative r; its partners are the
        # q^k - 1 - r messages above it.
        rows = []
        row = PackedWords.row

        def counting_row(self, word, start=0):
            counts = row(self, word, start)
            rows.append(len(counts))
            return counts

        monkeypatch.setattr(PackedWords, "row", counting_row)
        rs_exhaustive_insdel(RsCode(field_from_size(q), tuple(range(k + 1)), k))
        messages = itertools.product(range(q), repeat=k)
        # Zero constant term, lowest nonzero coefficient 1 (or none).
        reps = [r for r, c in enumerate(messages) if not c[0] and next((x for x in c if x), 1) == 1]
        assert len(reps) == 1 + (q ** (k - 1) - 1) // (q - 1)
        assert rows == [q**k - 1 - r for r in reps]


class TestGreedyConstruction:
    def test_n4_reference_run(self):
        code = construct_rs2(4)
        assert code.ctx.q == 37
        assert code.alphas[:3] == (0, 1, 2)
        assert check_rs2_criterion(code)[0]

    def test_prefixes_stay_valid(self):
        code = construct_rs2(5)
        assert code.ctx.q == 181
        for m in range(3, code.n + 1):
            prefix = RsCode(code.ctx, code.alphas[:m], 2)
            assert check_rs2_criterion(prefix)[0]

    def test_small_field_rejected(self):
        with pytest.raises(DomainError):
            construct_rs2(4, field_make(31))

    def test_deterministic(self):
        assert construct_rs2(4).alphas == construct_rs2(4).alphas

    @staticmethod
    def _counted_run(monkeypatch, n, ctx):
        """Names of the field multiplies and inversions and the affine-map
        calls of ``construct_rs2(n, ctx)``, split where the criterion
        re-check starts."""
        calls = []

        def counting(owner, name):
            fn = getattr(owner, name)
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("affine_through", "affine_apply", "affine_fixed_points"):
            monkeypatch.setattr(rs, name, counting(rs, name))
        for name in ("mul", "inv"):
            monkeypatch.setattr(FieldCtx, name, counting(FieldCtx, name))
        check = rs.check_rs2_criterion
        before_check = []
        monkeypatch.setattr(rs, "check_rs2_criterion", lambda code: before_check.append(len(calls)) or check(code))
        construct_rs2(n, ctx)
        return calls[: before_check[0]], calls[before_check[0] :]

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10])
    def test_steps_count_the_map_work(self, monkeypatch, n):
        ctx = field_make(next_prime(rs2_field_threshold(n)))
        greedy_calls, check_calls = self._counted_run(monkeypatch, n, ctx)
        greedy = construct_rs2_steps(n, ctx) - criterion_steps(n, ctx)
        # One batch inversion for each point but the first and the last.
        assert greedy_calls.count("inv") == n - 2
        assert greedy_calls.count("mul") + greedy_calls.count("inv") == len(greedy_calls) <= greedy
        # The bound stays close to the greedy it counts.
        assert greedy < 2 * len(greedy_calls)
        # The greedy's vector meets the criterion: the re-check scans every
        # counted triple pair, building one map and inverting once for each
        # and applying none.
        pairs = sum(1 for _ in rs._triples_with_gap(n))
        assert pairs == criterion_steps(n, ctx)
        assert check_calls.count("affine_through") == check_calls.count("inv") == pairs
        assert "affine_apply" not in check_calls and "affine_fixed_points" not in check_calls
        gf1024 = field_from_size(1024)
        assert construct_rs2_steps(n, gf1024) == construct_rs2_steps(n, ctx) * 2 * 10 * 11
        assert criterion_steps(n, gf1024) == criterion_steps(n, ctx) * 2 * 10 * 11

    @pytest.mark.parametrize("q", [243, 1024])
    def test_extension_steps_bound_the_field_work(self, monkeypatch, q):
        ctx = field_from_size(q)
        greedy_calls, _ = self._counted_run(monkeypatch, 5, ctx)
        # The multiplies inside each inversion's power are counted too.
        assert greedy_calls.count("inv") == 3
        assert len(greedy_calls) <= construct_rs2_steps(5, ctx) - criterion_steps(5, ctx)

    def test_step_cap_before_the_greedy(self, monkeypatch):
        cases = ((14, None), (16, None), (22, None), (12, field_from_size(2**20)), (6, field_from_size(4096)))

        def no_arithmetic(*args):
            raise AssertionError("field arithmetic before the refusal")

        for name in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
            monkeypatch.setattr(FieldCtx, name, no_arithmetic)
        for n, ctx in cases:
            with pytest.raises(ScaleCapExceeded, match="weighted steps, past the cap"):
                construct_rs2(n, ctx)

    def test_step_cap_boundary(self, monkeypatch):
        assert construct_rs2_steps(13, field_make(56629)) <= CONSTRUCT_STEP_CAP < construct_rs2_steps(
            14, field_make(85193)
        )
        gf243 = field_from_size(243)
        monkeypatch.setattr(rs, "CONSTRUCT_STEP_CAP", construct_rs2_steps(5, gf243))
        assert construct_rs2(5, gf243).alphas == (0, 1, 2, 3, 11)
        monkeypatch.setattr(rs, "CONSTRUCT_STEP_CAP", construct_rs2_steps(5, gf243) - 1)
        with pytest.raises(ScaleCapExceeded, match="n=5 over GF\\(243\\) takes 18480 "):
            construct_rs2(5, gf243)

    def test_cap_admits_every_input_it_admitted_before(self):
        """The step bound before the ratio greedy's own count: C(m,2)^2 (m+2)
        map steps per admission and two per criterion triple pair, capped
        at 3 * 10^5. Every (n, field) it admitted is still admitted."""

        def before(n):
            greedy = sum(math.comb(m, 2) ** 2 * (m + 2) for m in range(3, n))
            return greedy + 2 * math.comb(n, 3) ** 2

        admitted = 0
        for ctx in _field_per_weight():
            for n in range(4, 30):
                if ctx.q <= rs2_field_threshold(n):
                    break
                if before(n) * rs._weight(ctx) <= 3 * 10**5:
                    admitted += 1
                    assert construct_rs2_steps(n, ctx) <= CONSTRUCT_STEP_CAP, (n, ctx)
        assert admitted > 30

    def test_recheck_within_the_criterion_cap(self):
        for ctx in _field_per_weight():
            for n in range(4, 30):
                if construct_rs2_steps(n, ctx) <= CONSTRUCT_STEP_CAP:
                    assert criterion_steps(n, ctx) <= CRITERION_STEP_CAP, (n, ctx)


def _field_per_weight():
    """The largest field up to SIZE_CAP of each step weight."""
    sizes = [next(q for q in range(SIZE_CAP, 1, -1) if is_prime(q))]
    sizes += [p**e for p in range(2, 1025) if is_prime(p) for e in range(2, 21) if p**e <= SIZE_CAP]
    by_weight = {}
    for q in sorted(sizes):  # a larger field of the same weight replaces a smaller one
        ctx = field_from_size(q)
        by_weight[rs._weight(ctx)] = ctx
    return list(by_weight.values())


def _holding(ctx, n, seed=0, restarts=None):
    """A random length-n vector over ctx that meets the criterion: each
    point drawn outside the set the earlier ones forbid (see
    ``rs._RatioTables``), starting over at a dead end, at most
    ``restarts`` times if given (None when every attempt ends)."""
    rng = random.Random(seed)
    tables = rs._RatioTables(ctx)
    while len(tables.alphas) < n:
        free = [x for x in range(ctx.q) if x not in tables.forbidden]
        if free:
            tables.admit(rng.choice(free))
        elif restarts == 0:
            return None
        else:
            tables = rs._RatioTables(ctx)
            restarts = None if restarts is None else restarts - 1
    return RsCode(ctx, tuple(tables.alphas), 2)


def _scan_applying_each_map(code):
    """The criterion scan that applies each triple pair's map to the
    third point, inverting its scale a second time."""
    alphas = code.alphas
    for i, j in rs._triples_with_gap(code.n):
        sigma = affine_through(code.ctx, (alphas[i[0]], alphas[i[1]]), (alphas[j[0]], alphas[j[1]]))
        if affine_apply(sigma, alphas[i[2]]) == alphas[j[2]]:
            return False, (i, j, sigma)
    return True, None


def _translated_triple(ctx, n, rng):
    """A length-n vector, n >= 6, failing the criterion: three points,
    their translates by one d in the same order, then fresh points."""
    while True:
        first = rng.sample(range(ctx.q), 3)
        d = rng.randrange(1, ctx.q)
        points = first + [ctx.add(x, d) for x in first]
        if len(set(points)) == 6:
            rest = [x for x in range(ctx.q) if x not in points]
            return RsCode(ctx, tuple(points + rng.sample(rest, n - 6)), 2)


CROSS_CHECK_FIELDS = [p for p in range(7, 102) if is_prime(p)] + [4, 8, 9, 16, 25, 27, 64, 243, 256, 729]


@pytest.mark.parametrize("q", CROSS_CHECK_FIELDS)
def test_criterion_matches_the_scan_applying_each_map(q):
    ctx = field_from_size(q)
    rng = random.Random(q)
    codes = []
    for n in range(3, min(q, 8) + 1):
        if criterion_steps(n, ctx) > CRITERION_STEP_CAP:
            break
        codes += [RsCode(ctx, tuple(rng.sample(range(q), n)), 2) for _ in range(2)]
        holding = _holding(ctx, n, seed=q + n, restarts=20)
        if holding is not None:
            codes.append(holding)
        if n >= 6:
            codes.append(_translated_triple(ctx, n, rng))
    if ctx.m == 1:
        # The arithmetic progressions of the benchmark's verify-rs2 jobs.
        for _ in range(3):
            start, step = rng.randrange(q), rng.randrange(1, q)
            codes.append(RsCode(ctx, tuple((start + t * step) % q for t in range(5)), 2))
    verdicts = []
    for code in codes:
        expected = _scan_applying_each_map(code)
        assert check_rs2_criterion(code) == expected, code.alphas
        verdicts.append(expected[0])
    assert True in verdicts and False in verdicts


def _scan_unordered_pairs(code):
    """The criterion scan over the triple pairs (i, j) with i before j in
    ``combinations`` order only."""
    ctx, alphas = code.ctx, code.alphas
    triples = list(itertools.combinations(range(code.n), 3))
    for t, i in enumerate(triples):
        for j in triples[t + 1 :]:
            if sum(x != y for x, y in zip(i, j)) >= 2:
                sigma = affine_through(ctx, (alphas[i[0]], alphas[i[1]]), (alphas[j[0]], alphas[j[1]]))
                if affine_apply(sigma, alphas[i[2]]) == alphas[j[2]]:
                    return False, (i, j, sigma)
    return True, None


# The prime powers from 7 to 81: one prime divisor each.
ORDER_FIELDS = [q for q in range(7, 82) if sum(q % p == 0 for p in range(2, q + 1) if is_prime(p)) == 1]


@pytest.mark.parametrize("q", ORDER_FIELDS)
def test_first_witness_is_an_unordered_pair(q):
    # The pair (j, i) carries the inverse map of (i, j), so it fails
    # exactly when (i, j) does: the scan's first witness comes before its
    # mirror, and scanning half the pairs gives the same verdict, witness
    # and map.
    ctx = field_from_size(q)
    rng = random.Random(1000 + q)
    verdicts = []
    for n in range(3, min(q, 8) + 1):
        if criterion_steps(n, ctx) > CRITERION_STEP_CAP:
            break
        for _ in range(16):
            code = RsCode(ctx, tuple(rng.sample(range(q), n)), 2)
            verdict = check_rs2_criterion(code)
            if not verdict[0]:
                i, j, _ = verdict[1]
                assert i < j, code.alphas
            assert _scan_unordered_pairs(code) == verdict, code.alphas
            verdicts.append(verdict[0])
    assert True in verdicts and False in verdicts


class TestCriterionCap:
    @pytest.mark.parametrize("q,n", [(7, 3), (11, 4), (31, 5), (64, 5), (101, 6), (243, 5)])
    def test_steps_count_the_maps_of_a_holding_vector(self, monkeypatch, q, n):
        code = _holding(field_from_size(q), n)
        calls = []
        through = rs.affine_through
        monkeypatch.setattr(rs, "affine_through", lambda *args: calls.append(1) or through(*args))
        assert check_rs2_criterion(code) == (True, None)
        assert len(calls) * rs._weight(code.ctx) == criterion_steps(n, code.ctx)

    def test_cap_boundary(self, monkeypatch):
        prime = field_make(1048573)
        assert criterion_steps(14, prime) <= CRITERION_STEP_CAP < criterion_steps(15, prime)
        for q, n in ((3**12, 6), (2**20, 5)):
            ctx = field_from_size(q)
            assert criterion_steps(n, ctx) <= CRITERION_STEP_CAP < criterion_steps(n + 1, ctx)
        code = _holding(field_from_size(64), 5)
        monkeypatch.setattr(rs, "CRITERION_STEP_CAP", criterion_steps(5, code.ctx))
        assert check_rs2_criterion(code) == (True, None)
        monkeypatch.setattr(rs, "CRITERION_STEP_CAP", criterion_steps(5, code.ctx) - 1)
        with pytest.raises(ScaleCapExceeded, match=f"n=5 over GF\\(64\\) takes {60 * 84} weighted affine-map steps"):
            check_rs2_criterion(code)

    def test_refuses_before_the_scan(self, monkeypatch):
        def no_arithmetic(*args):
            raise AssertionError("field arithmetic before the refusal")

        codes = [RsCode(field_make(1048573), tuple(range(15)), 2), RsCode(field_from_size(2**20), tuple(range(6)), 2)]
        for name in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
            monkeypatch.setattr(FieldCtx, name, no_arithmetic)
        for code in codes:
            with pytest.raises(ScaleCapExceeded, match="past the cap 150000"):
                check_rs2_criterion(code)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_inversion_chain_within_its_weight(self, monkeypatch, m):
        # An inversion over GF(2^m) takes the Itoh-Tsujii chain's products,
        # multiplies and squares, within the 2 bitlength(q) multiplies that
        # _inv_weight charges (and _weight's 2m bitlength(q) steps).
        ctx = field_make(2, m)
        calls = []
        mul, square = FieldCtx.mul, FieldCtx.square
        monkeypatch.setattr(FieldCtx, "mul", lambda ctx, a, b: calls.append(1) or mul(ctx, a, b))
        monkeypatch.setattr(FieldCtx, "square", lambda ctx, a: calls.append(1) or square(ctx, a))
        ctx.inv(ctx.q - 1)
        assert len(calls) <= 2 * ctx.q.bit_length()
        assert rs._inv_weight(ctx) == 2 * ctx.q.bit_length() * rs._mul_weight(ctx)

    # q, _weight, _mul_weight, _inv_weight, criterion_steps at n = 4, 5, 6,
    # construct_rs2_steps at n = 4, 5, 6, witness_steps at (n, k) = (6, 3),
    # (12, 4), (40, 6): the values every cap was set against.
    @pytest.mark.parametrize(
        "q, weight, mul_weight, inv_weight, criterion, construct, witness",
        [
            (4, 12, 9, 54, [72, 720, 3480], [492, 2772, 10368], [1554, 4629, 20560]),
            (16, 40, 20, 200, [240, 2400, 11600], [1640, 9240, 34560], [3926, 11152, 47560]),
            (1024, 220, 65, 1430, [1320, 13200, 63800], [9020, 50820, 190080], [17426, 44797, 173200]),
            (2**20, 840, 180, 7560, [5040, 50400, 243600], [34440, 194040, 725760], [69846, 163632, 565960]),
            (243, 80, 39, 624, [480, 4800, 23200], [3280, 18480, 69120], [9054, 24309, 98320]),
            (3**12, 480, 104, 4160, [2880, 28800, 139200], [19680, 110880, 414720], [39110, 92260, 322024]),
            (1021**2, 80, 19, 760, [480, 4800, 23200], [3280, 18480, 69120], [7150, 16865, 58864]),
            (1048573, 1, 1, 1, [6, 60, 290], [41, 231, 864], [148, 470, 2200]),
        ],
    )
    def test_step_weights_unchanged(self, q, weight, mul_weight, inv_weight, criterion, construct, witness):
        ctx = field_from_size(q)
        assert (rs._weight(ctx), rs._mul_weight(ctx), rs._inv_weight(ctx)) == (weight, mul_weight, inv_weight)
        assert [criterion_steps(n, ctx) for n in (4, 5, 6)] == criterion
        assert [construct_rs2_steps(n, ctx) for n in (4, 5, 6)] == construct
        assert [witness_steps(n, k, ctx) for n, k in ((6, 3), (12, 4), (40, 6))] == witness

    def test_domain_errors_come_first(self):
        with pytest.raises(DomainError, match="criterion applies to k=2"):
            check_rs2_criterion(RsCode(field_make(1048573), tuple(range(40)), 3))
        with pytest.raises(DomainError, match="criterion needs n >= 3"):
            check_rs2_criterion(RsCode(field_from_size(2**20), (0, 1), 2))


def _map_by_map_forbidden(ctx, alphas):
    """The points the earlier greedy forbade after alphas: the images of
    alphas and the fixed points under one affine map for each ordered pair
    of point pairs."""
    forbidden = set(alphas)
    for i, j in itertools.combinations(range(len(alphas)), 2):
        for k, l in itertools.combinations(range(len(alphas)), 2):
            sigma = affine_through(ctx, (alphas[i], alphas[j]), (alphas[k], alphas[l]))
            forbidden.update(affine_apply(sigma, a) for a in alphas)
            fixed = affine_fixed_points(sigma)
            if fixed is not ALL_FIXED:
                forbidden.update(fixed)
    return forbidden


def _map_by_map_rs2(n, ctx=None):
    """``construct_rs2`` with its earlier greedy, which scanned from 0 for
    each pick."""
    threshold = rs2_field_threshold(n)
    if ctx is None:
        ctx = field_make(next_prime(threshold))
    if ctx.q <= threshold:
        raise DomainError(f"field size {ctx.q} does not exceed the threshold {threshold} for n={n}")
    if construct_rs2_steps(n, ctx) > CONSTRUCT_STEP_CAP:
        raise ScaleCapExceeded(f"n={n} over {ctx} is past the cap")
    alphas = [0, 1, 2]
    for _ in range(3, n):
        forbidden = _map_by_map_forbidden(ctx, alphas)
        alphas.append(next(c for c in range(ctx.q) if c not in forbidden))
    code = RsCode(ctx, tuple(alphas), 2)
    if not check_rs2_criterion(code)[0]:
        raise RuntimeError("greedy vector failed the criterion")
    return code


@pytest.mark.parametrize("q,length,runs", [(31, 7, 20), (101, 7, 20), (64, 6, 2), (243, 5, 4)])
def test_ratio_tables_forbid_the_map_images_and_fixed_points(q, length, runs):
    ctx = field_from_size(q)
    rng = random.Random(q)
    for _ in range(runs):
        points = rng.sample(range(q), length)
        tables = rs._RatioTables(ctx)
        for m, x in enumerate(points, 1):
            tables.admit(x)
            assert tables.forbidden == _map_by_map_forbidden(ctx, points[:m])


def _outcome(build, n, q):
    try:
        return build(n, None if q is None else field_from_size(q)).alphas
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


PARITY_CASES = [(n, None) for n in range(4, 13)] + [
    (n, q) for q in (243, 256, 343, 512, 625, 729, 1024) for n in range(4, 9)
]


@pytest.mark.parametrize("n,q", PARITY_CASES, ids=[f"n{n}-{q or 'default'}" for n, q in PARITY_CASES])
def test_ratio_set_greedy_matches_the_map_by_map_greedy(n, q):
    assert _outcome(construct_rs2, n, q) == _outcome(_map_by_map_rs2, n, q)


def _cofactor_indices(code, k):
    """The index routine before the nullspace solve: each step expands the
    bordered determinant along its new last column into signed minors,
    one ``det`` each, and evaluates the expansion at every candidate."""
    ctx, alphas = code.ctx, code.alphas
    ii, jj = [2, 3], [0, 2]
    for dim in range(3, k):
        base = [
            [ctx.sub(ctx.pow(alphas[a], s), ctx.pow(alphas[b], s)) for a, b in zip(ii, jj)]
            for s in range(1, dim + 1)
        ]
        cof = []
        for s in range(dim):
            minor = det(Matrix.from_rows(ctx, base[:s] + base[s + 1 :]))
            cof.append(ctx.neg(minor) if (s + 1 + dim) % 2 else minor)
        aj = alphas[jj[-1] + 1]

        def bordered(x):
            acc = 0
            for s in range(1, dim + 1):
                acc = ctx.add(acc, ctx.mul(cof[s - 1], ctx.sub(ctx.pow(x, s), ctx.pow(aj, s))))
            return acc

        limit = (dim + 1) * (dim + 2) // 2 - 2
        ii.append(next(c for c in range(ii[-1] + 1, limit) if bordered(alphas[c]) != 0))
        jj.append(jj[-1] + 1)
    return tuple(ii), tuple(jj)


# (field size, codes per k and length); extension fields cost the
# reference most, so they get fewer codes.
INDEX_FIELDS = [(5, 40), (7, 40), (11, 60), (13, 40), (17, 40), (31, 12), (37, 10), (41, 10), (101, 3)]
INDEX_FIELDS += [(65537, 2), (1048573, 2), (4, 40), (8, 40), (9, 40), (16, 20), (27, 3), (32, 2), (49, 2), (64, 1)]


def test_indices_match_the_cofactor_expansion():
    rng = random.Random(2111)
    compared = 0
    for q, reps in INDEX_FIELDS:
        ctx = field_from_size(q)
        for k in range(3, 9):
            need = k * (k + 1) // 2 - 2
            for n in (need, need + 1, need + 3):
                if n > q:
                    continue
                for _ in range(reps):
                    code = RsCode(ctx, tuple(rng.sample(range(q), n)), k)
                    expected = _cofactor_indices(code, k)
                    assert invertible_difference_indices(code, k) == expected, (q, code.alphas)
                    compared += 1
    assert compared >= 2000


class TestLowDistanceWitness:
    def test_base_indices(self):
        ctx = field_make(11)
        code = RsCode(ctx, tuple(range(6)), 3)
        ii, jj = invertible_difference_indices(code, 3)
        assert ii == (2, 3)
        assert jj == (0, 2)

    def test_indices_have_the_closed_form(self):
        ctx = field_make(101)
        for k in range(3, 12):
            code = RsCode(ctx, tuple(range(k * (k + 1) // 2 - 2)), k)
            assert invertible_difference_indices(code, k) == (tuple(range(2, k + 1)), (0, *range(2, k)))

    def test_difference_matrix_invertible(self):
        ctx = field_make(11)
        code = RsCode(ctx, tuple(range(8)), 4)
        ii, jj = invertible_difference_indices(code, 4)
        rows = [
            [
                ctx.sub(ctx.pow(code.alphas[a], s), ctx.pow(code.alphas[b], s))
                for a, b in zip(ii, jj)
            ]
            for s in range(1, len(ii) + 1)
        ]
        assert det(Matrix.from_rows(ctx, rows)) != 0

    @pytest.mark.parametrize("q", [7, 11, 101])
    def test_k3_certificate(self, q):
        code = RsCode(field_make(q), tuple(range(6)), 3)
        w = low_distance_witness(code)
        assert w["f"] != w["g"]
        assert w["lcs_lower_bound"] >= 4
        assert w["distance_upper_bound"] == 4
        d = insdel_distance(Word(q, w["codeword_f"]), Word(q, w["codeword_g"]))
        assert d <= w["distance_upper_bound"]

    def test_k4_certificate(self):
        code = RsCode(field_make(23), tuple(range(11)), 4)
        w = low_distance_witness(code)
        assert w["lcs_lower_bound"] >= 6
        d = insdel_distance(Word(code.ctx.q, w["codeword_f"]), Word(code.ctx.q, w["codeword_g"]))
        assert d <= 2 * code.n - 4 * 4 + 4

    def test_k5_certificate(self):
        code = RsCode(field_make(53), tuple(range(17)), 5)
        w = low_distance_witness(code)
        assert w["lcs_lower_bound"] >= 8
        d = insdel_distance(Word(code.ctx.q, w["codeword_f"]), Word(code.ctx.q, w["codeword_g"]))
        assert d <= 2 * code.n - 4 * 5 + 4

    def test_short_code_rejected(self):
        code = RsCode(field_make(11), tuple(range(5)), 3)
        with pytest.raises(DomainError):
            low_distance_witness(code)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_shortest_code_has_2k_points(self, k):
        # The certificate reads only the first 2k points, so on them it is
        # the one built on a code of k(k+1)/2 + k - 3 points, the length
        # the witness once required.
        ctx = field_make(101)
        alphas = tuple(random.Random(k).sample(range(101), k * (k + 1) // 2 + k - 3))
        full = low_distance_witness(RsCode(ctx, alphas, k))
        short = low_distance_witness(RsCode(ctx, alphas[: 2 * k], k))
        for key in ("f", "g", "i", "j"):
            assert short[key] == full[key]
        for key in ("codeword_f", "codeword_g"):
            assert short[key] == full[key][: 2 * k]
        assert short["distance_upper_bound"] == 4
        assert insdel_distance(Word(101, short["codeword_f"]), Word(101, short["codeword_g"])) <= 4
        with pytest.raises(DomainError, match=f"need n >= {2 * k} for k={k}, got n={2 * k - 1}"):
            low_distance_witness(RsCode(ctx, alphas[: 2 * k - 1], k))

    @pytest.mark.parametrize("k", range(3, 9))
    def test_indices_need_k_plus_one_points(self, k):
        ctx = field_make(101)
        closed_form = (tuple(range(2, k + 1)), (0, *range(2, k)))
        assert invertible_difference_indices(RsCode(ctx, tuple(range(k + 1)), k), k) == closed_form
        with pytest.raises(DomainError, match=f"need n >= {k + 1} for k={k}, got n={k}"):
            invertible_difference_indices(RsCode(ctx, tuple(range(k)), k), k)

    @pytest.mark.parametrize(
        "q,k,extra",
        [(7, 3, 0), (11, 4, 0), (53, 5, 3), (101, 6, 0), (1048573, 9, 5), (64, 4, 2), (243, 3, 0), (1024, 5, 0)]
        # The least length, n = 2k.
        + [(11, 4, -3), (53, 5, -7), (1048573, 9, -33), (64, 4, -3), (1024, 6, -12)],
    )
    def test_steps_bound_the_field_work(self, monkeypatch, q, k, extra):
        ctx = field_from_size(q)
        n = k * (k + 1) // 2 + k - 3 + extra
        code = RsCode(ctx, tuple(random.Random(q).sample(range(q), n)), k)
        counts = {"mul": 0, "inv": 0, "mul in inv": 0}
        inside = []
        mul, inv = FieldCtx.mul, FieldCtx.inv

        def counting_mul(self, a, b):
            counts["mul in inv" if inside else "mul"] += 1
            return mul(self, a, b)

        def counting_inv(self, a):
            counts["inv"] += 1
            inside.append(a)
            try:
                return inv(self, a)
            finally:
                inside.pop()

        monkeypatch.setattr(FieldCtx, "mul", counting_mul)
        monkeypatch.setattr(FieldCtx, "inv", counting_inv)
        low_distance_witness(code)
        muls, invs = rs._witness_ops(n, k)
        assert counts["mul"] <= muls and counts["inv"] <= invs
        # An inversion over GF(p^e), e > 1, is a power: at most
        # 2 bitlength(q) multiplies, which its weight covers.
        assert counts["mul in inv"] <= counts["inv"] * 2 * q.bit_length() * (ctx.m > 1)
        assert rs._inv_weight(ctx) >= 2 * q.bit_length() * rs._mul_weight(ctx) * (ctx.m > 1)
        lcs = n * (n // 2048 + 1)
        assert witness_steps(n, k, ctx) == muls * rs._mul_weight(ctx) + invs * rs._inv_weight(ctx) + lcs
        if ctx.m == 1:
            assert muls + invs < 3 * (counts["mul"] + counts["inv"])

    def test_cap_boundary(self, monkeypatch):
        prime, gf1024 = field_make(1048573), field_from_size(1024)
        assert witness_steps(942, 42, prime) <= WITNESS_STEP_CAP < witness_steps(986, 43, prime)
        assert witness_steps(87, 12, gf1024) <= WITNESS_STEP_CAP < witness_steps(101, 13, gf1024)
        # Long codes: the codewords and their LCS.
        assert witness_steps(50000, 3, prime) <= WITNESS_STEP_CAP < witness_steps(60000, 3, prime)
        code = RsCode(field_from_size(64), tuple(range(11)), 4)
        steps = witness_steps(11, 4, code.ctx)
        monkeypatch.setattr(rs, "WITNESS_STEP_CAP", steps)
        assert low_distance_witness(code)["lcs_lower_bound"] >= 6
        monkeypatch.setattr(rs, "WITNESS_STEP_CAP", steps - 1)
        with pytest.raises(ScaleCapExceeded, match=f"k=4, n=11 over GF\\(64\\) takes {steps} weighted field steps"):
            low_distance_witness(code)

    def test_k8_over_gf1024_is_admitted(self):
        code = RsCode(field_from_size(1024), tuple(range(41)), 8)
        assert low_distance_witness(code)["lcs_lower_bound"] >= 14

    def test_cap_admits_every_input_it_admitted_before(self):
        """Two earlier counts: before multiplies and inversions were
        weighed apart, both at ``rs._weight``, and the cofactor expansion's
        (``_cofactor_indices``) with them weighed apart. Every (n, k, field)
        either admitted is still admitted."""

        def det_ops(r):
            return 2 * r + r * (r - 1) * (2 * r + 5) // 6

        def cofactor_ops(n, k):
            power = 2 * k.bit_length()
            muls = invs = 0
            for d in range(3, k):
                candidates = (d + 1) * (d + 2) // 2 - 1
                det_muls = det_ops(d - 1) - (d - 1)
                muls += 2 * d * (d - 1) * power + d * det_muls + candidates * d * (power + 1)
                invs += d * (d - 1)
            det_muls = det_ops(k - 1) - (k - 1)
            muls += 4 * (k - 1) ** 2 * power + det_muls + (2 * k - 2) ** 2 * (2 * k - 1) + 2 * (2 * k - 2) * k + 2 * n * k
            return muls, invs + (k - 1) + 2 * k - 2

        # Both counts take 2nk multiplies for the codewords and nothing
        # else that grows with n, and the weights are unchanged, so fewer
        # multiplies and inversions at one n means fewer steps at every n.
        for k in range(3, 100):
            muls, invs = rs._witness_ops(k * k, k)
            muls_before, invs_before = cofactor_ops(k * k, k)
            assert muls <= muls_before and invs <= invs_before, k

        def before(n, k, ctx):
            power = 2 * k.bit_length()
            ops = 0
            for d in range(3, k):
                candidates = (d + 1) * (d + 2) // 2 - 1
                ops += 2 * d * (d - 1) * power + d * det_ops(d - 1) + candidates * d * (power + 1)
            ops += 4 * (k - 1) ** 2 * power + det_ops(k - 1)
            ops += (2 * k - 2) * (1 + (2 * k - 2) * (2 * k - 1)) + 2 * (2 * k - 2) * k + 2 * n * k
            return ops * rs._weight(ctx) + n * (n // 2048 + 1)

        prime = field_make(1048573)
        for n, k in ((62, 10), (402, 27), (60000, 3)):
            assert witness_steps(n, k, prime) <= before(n, k, prime)
        fields = [prime]
        sizes = [p**e for p in range(2, 1025) if is_prime(p) for e in range(2, 21) if p**e <= SIZE_CAP]
        fields += [field_from_size(q) for q in sizes]
        admitted = 0
        for ctx in fields:
            for k in range(3, 40):
                least = k * (k + 1) // 2 + k - 3
                if least > ctx.q or before(least, k, ctx) > WITNESS_STEP_CAP:
                    break
                # Both counts grow with n, so checking the longest code
                # admitted before covers every shorter one.
                lo, hi = least, ctx.q
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    lo, hi = (mid, hi) if before(mid, k, ctx) <= WITNESS_STEP_CAP else (lo, mid - 1)
                assert witness_steps(lo, k, ctx) <= WITNESS_STEP_CAP, (lo, k, ctx)
                admitted += 1
        assert admitted > 300

    def test_refuses_before_any_work(self, monkeypatch):
        def no_arithmetic(*args):
            raise AssertionError("field arithmetic before the refusal")

        prime = field_make(1048573)
        codes = [RsCode(prime, tuple(range(986)), 43), RsCode(prime, tuple(range(60000)), 3)]
        codes.append(RsCode(field_from_size(1024), tuple(range(101)), 13))
        for name in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
            monkeypatch.setattr(FieldCtx, name, no_arithmetic)
        monkeypatch.setattr(rs, "lcs_length_raw", no_arithmetic)
        for code in codes:
            with pytest.raises(ScaleCapExceeded, match="past the cap 2000000"):
                low_distance_witness(code)
