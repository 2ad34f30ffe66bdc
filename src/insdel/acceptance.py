"""The acceptance criteria: desk-scale reproduction of every construction
guarantee, cross-checked against independent brute-force oracles.

``CRITERIA`` is the one definition. ``insdel selftest`` runs it in order,
and the test suite runs one parametrised case per entry. Each entry is
``(name, label, check)``; ``check()`` raises ``AssertionError`` on failure,
through ``require``, so the checks also run under ``python -O``.
"""

import itertools
import random

from .bounds import (
    counterexample_code,
    exact_iq,
    levenshtein_lower_bound,
    singleton_bound,
    size_upper_bound,
    verify_support_structure,
)
from .cw_l1 import L1ConstructionSpec, construct_l1
from .gf import Matrix, Polynomial, det, field_make
from .lift import guarantee_report, lift
from .oracles import edit_graph_distance
from .rs import (
    AffineMap,
    RsCode,
    affine_apply,
    affine_fixed_points,
    affine_through,
    check_rs2_criterion,
    construct_rs2,
    invertible_difference_indices,
    low_distance_witness,
    rs2_field_threshold,
    rs_exhaustive_insdel,
)
from .words import (
    Code,
    Word,
    code_min_distance,
    compositions_colex,
    insdel_distance,
    l1_distance,
    phi,
    psi,
)

SEED = 20240824


def require(condition, detail="") -> None:
    """Raise ``AssertionError(detail)`` unless condition holds. Unlike
    ``assert``, it also checks under ``python -O``."""
    if not condition:
        raise AssertionError(detail)


def metric_matches_edit_graph_oracle():
    words = [
        Word(2, s)
        for n in range(6)
        for s in itertools.product(range(2), repeat=n)
    ]
    for u, v in itertools.combinations_with_replacement(words, 2):
        require(insdel_distance(u, v) == edit_graph_distance(u, v))
    rng = random.Random(SEED)
    for _ in range(200):
        q = rng.randint(2, 4)
        u = Word(q, tuple([rng.randrange(q) for _ in range(rng.randint(0, 10))]))
        v = Word(q, tuple([rng.randrange(q) for _ in range(rng.randint(0, 10))]))
        require(insdel_distance(u, v) == edit_graph_distance(u, v))


def count_space_distance_transfers():
    comps = list(compositions_colex(4, 3))
    require(len(comps) == 15)
    for a in comps:
        require(phi(psi(a)) == a)
    pairs = list(itertools.combinations(comps, 2))
    require(len(pairs) == 105)
    for a, b in pairs:
        require(l1_distance(a, b) == insdel_distance(psi(a), psi(b)))


def bucket_lift_construction():
    spec = L1ConstructionSpec(q=4, n=8, delta=2, r=5)
    require(spec.guaranteed_lower_bound() == 42)
    require(guarantee_report(4, 8, 2)["guaranteed_size"] == 19)
    source, src_report = construct_l1(spec)
    require(src_report["size"] >= 42)
    lifted, report = lift(source)
    require(report["verified"] is True)
    require(len(lifted) >= 42)
    require(report["min_insdel"] >= 4)
    _, small = construct_l1(L1ConstructionSpec(q=2, n=3, delta=2))
    require(small["r"] == 3 and small["size"] == 2)
    require(small["verified_min_l1"] >= 4)


def greedy_rs2_reaches_target_distance():
    require(rs2_field_threshold(4) == 36)
    code4 = construct_rs2(4)
    require(code4.ctx.q == 37)
    require(check_rs2_criterion(code4)[0])
    d, _ = rs_exhaustive_insdel(code4, cap=37**2)
    require(d == 2 * 4 - 4)
    require(rs2_field_threshold(5) == 180)
    code5 = construct_rs2(5)
    require(code5.ctx.q == 181)
    require(check_rs2_criterion(code5)[0])


def criterion_equals_exhaustive_sweep():
    def agree(code):
        ok, _ = check_rs2_criterion(code)
        d, _ = rs_exhaustive_insdel(code)
        require(ok == (d == 2 * code.n - 4), (code.ctx.q, code.alphas))

    agree(RsCode(field_make(7), (0, 1, 2, 3), 2))
    rng = random.Random(SEED)
    for q, n in [(7, 3), (7, 4), (11, 4), (13, 5)]:
        ctx = field_make(q)
        for _ in range(50):
            agree(RsCode(ctx, tuple(rng.sample(range(q), n)), 2))


def low_distance_witness_for_k3():
    for q in (7, 11, 101):
        code = RsCode(field_make(q), tuple(range(6)), 3)
        ii, jj = invertible_difference_indices(code, 3)
        require((ii, jj) == ((2, 3), (0, 2)))  # 1-based (3,4) and (1,3)
        ctx = code.ctx
        rows = [
            [
                ctx.sub(ctx.pow(code.alphas[a], s), ctx.pow(code.alphas[b], s))
                for a, b in zip(ii, jj)
            ]
            for s in (1, 2)
        ]
        require(det(Matrix.from_rows(ctx, rows)) != 0)
        w = low_distance_witness(code)
        require(w["f"] != w["g"])
        require(w["lcs_lower_bound"] >= 4)
        require(w["distance_upper_bound"] == 2 * 6 - 4 * 3 + 4 == 4)


def exact_solver_hits_endpoint_equalities():
    for (q, n, d), size in {(2, 3, 2): 8, (2, 3, 6): 2, (3, 3, 6): 3}.items():
        require(exact_iq(q, n, d)[0] == size)
        require(size_upper_bound(q, n, d) == (size, "i"))
    require(levenshtein_lower_bound(2, 3, 2) == 1)


def strictly_below_singleton_midrange():
    require(singleton_bound(2, 3, 4) == 4)
    for q in (2, 3):
        for n in (3, 4):
            for d in range(4, 2 * n - 1, 2):
                size, _ = exact_iq(q, n, d)
                require(size < singleton_bound(q, n, d))
                require(size <= size_upper_bound(q, n, d)[0])


def counterexample_beats_power_bound():
    for q, n in ((5, 4), (3, 3)):
        code, report = counterexample_code(q, n)
        require(report["size"] == q + 1)
        d, _ = code_min_distance(code, "INSDEL")
        require(d == report["min_insdel"] == 2 * n - 2)
        require(report["size"] > q ** (n - d // 2))


def support_structure_of_optimal_codes():
    ctx = field_make(5)
    rs = RsCode(ctx, tuple(range(4)), 2)
    members = set()
    for coeffs in itertools.product(range(5), repeat=2):
        f = Polynomial(ctx, coeffs)
        members.add(Word(5, tuple([f(a) for a in rs.alphas])))
    code = Code(5, 4, tuple(members))
    ok, counts = verify_support_structure(code, 2)
    require(ok)
    require(len(counts) == 4)
    require(set(counts.values()) == {4})


def affine_group_action_suite():
    rng = random.Random(SEED)
    for q in (5, 7, 13):
        ctx = field_make(q)
        for src in itertools.permutations(range(q), 2):
            for dst in itertools.permutations(range(q), 2):
                s = affine_through(ctx, src, dst)
                require(affine_apply(s, src[0]) == dst[0])
                require(affine_apply(s, src[1]) == dst[1])
        for a in range(1, q):
            for b in range(q):
                s = AffineMap(ctx, a, b)
                if s.is_identity():
                    continue
                fixed = affine_fixed_points(s)
                require(len(fixed) <= 1)
                require(fixed == frozenset(x for x in range(q) if affine_apply(s, x) == x))
    ctx = field_make(13)
    for _ in range(500):
        s = AffineMap(ctx, rng.randrange(1, 13), rng.randrange(13))
        f = Polynomial(ctx, tuple([rng.randrange(13) for _ in range(4)]))
        alpha = rng.randrange(13)
        require(f(alpha) == s.apply_polynomial(f)(affine_apply(s, alpha)))


CRITERIA = tuple([
    (check.__name__.replace("_", "-"), label, check)
    for check, label in (
        (metric_matches_edit_graph_oracle, "insdel distance equals the edit-graph BFS oracle"),
        (count_space_distance_transfers, "L1 distance equals insdel distance of sorted words"),
        (bucket_lift_construction, "bucketed q=4 n=8 code lifts to >= 42 words at d_I >= 4"),
        (greedy_rs2_reaches_target_distance, "greedy dimension-2 construction hits d_I = 2n-4"),
        (criterion_equals_exhaustive_sweep, "affine criterion verdict matches the exhaustive sweep"),
        (low_distance_witness_for_k3, "k=3 witness certifies d_I <= 2n-4k+4 with LCS >= 4"),
        (exact_solver_hits_endpoint_equalities, "exact optimum matches the closed forms at d=2 and d=2n"),
        (strictly_below_singleton_midrange, "no code meets the insdel Singleton bound for 4 <= d <= 2n-2"),
        (counterexample_beats_power_bound, "q=5 n=4 family exceeds the q^(n-d/2) power bound"),
        (support_structure_of_optimal_codes, "every size-3 support holds exactly q-1 = 4 codewords"),
        (affine_group_action_suite, "affine maps: 2-transitive, compatible, <= 1 fixed point"),
    )
])
