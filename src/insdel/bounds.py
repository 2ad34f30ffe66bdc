"""Size and field-size bound calculators plus brute-force oracles.

Every formula is evaluated with exact big integers or rationals; the exact
optimum I_q(n, d) comes from a deterministic branch-and-bound maximum
clique search over the pairwise compatibility graph.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import time

# The three rational bounds import ``fractions`` themselves, so that
# exact-iq and counterexample, whose reports hold no Fraction, do not load it.

from .errors import DomainError, ScaleCapExceeded
from .lift import PAIR_CAP_ENV, pair_cap, verification_refusal
from .words import (
    INSDEL,
    Code,
    Word,
    all_words,
    code_min_distance,
    insdel_distance_raw,
)

CLIQUE_VERTEX_CAP = 4096


def _check_even_d(q: int, n: int, d: int) -> None:
    if q < 2 or n < 1:
        raise DomainError(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    if d % 2 != 0:
        raise DomainError(f"insdel distance between equal-length words is even, got d={d}")
    if not 2 <= d <= 2 * n:
        raise DomainError(f"need 2 <= d <= 2n, got d={d}, n={n}")


def _check_formula(q: int, n: int, d: int) -> None:
    """Parameters of the bound formulas. They form integers up to about
    q^n (and loop over up to n terms), so q^n must not pass the
    interpreter's int-to-str digit limit, which no report could print."""
    _check_even_d(q, n, d)
    limit = sys.get_int_max_str_digits()
    if limit and n * math.log10(q) > limit:
        raise ScaleCapExceeded(f"q^n = {q}^{n} has more than {limit} decimal digits")


def singleton_bound(q: int, n: int, d: int) -> int:
    """Insdel Singleton ceiling q^(n - d/2 + 1)."""
    _check_formula(q, n, d)
    return q ** (n - d // 2 + 1)


def size_upper_bound(q: int, n: int, d: int) -> tuple[int, str]:
    """Tightest applicable upper bound on I_q(n, d) with the clause that
    produced it.

    Clause "i" covers the exact endpoints d = 2 and d = 2n; clause "ii"
    averages two Singleton powers for 4 <= d <= 2n-2; clause "iii" drops
    to q^(n-d/2) once 2q <= d.
    """
    _check_formula(q, n, d)
    if d == 2:
        return q**n, "i"
    if d == 2 * n:
        return q, "i"
    candidates = []
    if 4 <= d <= 2 * n - 2:
        candidates.append(((q ** (n - d // 2 + 1) + q ** (n - d // 2)) // 2, "ii"))
    if 2 * q <= d <= 2 * n - 2:
        candidates.append((q ** (n - d // 2), "iii"))
    if not candidates:
        return singleton_bound(q, n, d), "singleton"
    return min(candidates)


def levenshtein_lower_bound(q: int, n: int, d: int) -> Fraction:
    """Classic sphere-counting existence bound, exact rational value."""
    _check_formula(q, n, d)
    half = d // 2
    if half > n:
        raise DomainError(f"need d/2 <= n, got d={d}, n={n}")
    from fractions import Fraction

    # Ball volume sum_{i <= d/2} C(n, i) (q-1)^i, each term from the last.
    term = ball = 1
    for i in range(half):
        term = term * (n - i) * (q - 1) // (i + 1)
        ball += term
    return Fraction(q ** (n + half), ball * ball)


def distance_drop_threshold(q: int, n: int, k: int, delta: int) -> dict:
    """Case-split inequality certifying insdel distance <= 2n-2k+2-2*delta
    for every Hamming-metric Singleton-optimal code.

    At the case boundary k = (n+1)/3 both right-hand sides apply and the
    larger one is used, which is sound for an upper-bound certificate. The
    helper length h is checked against n-k+1 at runtime instead of being
    assumed.
    """
    if delta < 2:
        raise DomainError(f"delta must be >= 2, got {delta}")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise DomainError(f"need q >= 2, got {q}")
    from fractions import Fraction

    branches = []
    if 3 * k >= n + 1:
        h = (n - k) // 2 + 2
        branches.append((math.comb((n + k + 4) // 2, k - 1), h, "high-rate"))
    if 3 * k <= n + 1:
        h = k + 1
        branches.append((math.comb(n - k - 1, k - 1), h, "low-rate"))
    rhs, h, branch = max(branches)
    if h > n - k + 1:
        raise DomainError(
            f"projection window h={h} exceeds n-k+1={n - k + 1}; parameters out of scope"
        )
    lhs = Fraction(q**delta, q - 1)
    applies = lhs <= rhs
    return {
        "bound_applies": applies,
        "d_max": 2 * n - 2 * k + 2 - 2 * delta if applies else None,
        "lhs": lhs,
        "rhs": rhs,
        "h": h,
        "branch": branch,
    }


def field_size_threshold(n: int, k: int, delta: int) -> Fraction:
    """Field sizes at or below the threshold certify the distance drop of
    ``distance_drop_threshold`` for any Singleton-optimal code.

    The low-rate branch takes an exact (delta-1)-th root when the base is
    a perfect rational power; otherwise it returns the integer floor of
    the real root, which keeps the certificate sound for the integer
    field sizes the threshold is compared against.
    """
    if delta < 2:
        raise DomainError(f"delta must be >= 2, got {delta}")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    from fractions import Fraction

    if 3 * k > n + 1:
        return Fraction(2 ** ((n + k + 4) // (2 * (delta - 1))))
    base = Fraction((n - 2 * k + 1) ** (k - 1), 2 * math.factorial(k - 1))
    if delta == 2:
        return base
    if base <= 0:
        return Fraction(0)
    e = delta - 1
    rn, exact_n = _iroot(base.numerator, e)
    rd, exact_d = _iroot(base.denominator, e)
    if exact_n and exact_d:
        return Fraction(rn, rd)
    # Largest integer t with t^e <= base, i.e. t^e <= floor(base); 0 for
    # base < 1 (k = 1).
    t, _ = _iroot(base.numerator // base.denominator, e)
    return Fraction(t)


def _iroot(x: int, e: int) -> tuple[int, bool]:
    """Floor of the integer e-th root, with an exactness flag.

    Integer Newton iteration from a power of two above the root, so no
    float conversion can overflow; the iterates decrease to the floor.
    """
    if x < 2:
        return x, True
    r = 1 << -(-x.bit_length() // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            return r, r**e == x
        r = s


# ---------------------------------------------------------------------------
# Exact I_q(n, d) by maximum clique search.


def exact_iq(q: int, n: int, d: int, max_seconds: float | None = None):
    """Exact largest code size with min insdel distance >= d, plus one
    optimal code as witness.

    Vertices are the words of [q]^n in lexicographic order; edges join
    pairs at distance >= d. Branch-and-bound with a greedy-coloring upper
    bound, deterministic throughout. ``max_seconds`` bounds the whole run,
    the adjacency build and both phases of the clique search together
    (``ScaleCapExceeded`` past it).
    """
    _check_even_d(q, n, d)
    # q >= 2, so q^n passes the cap once n passes its bit length; q^n is
    # formed only below that.
    if n > CLIQUE_VERTEX_CAP.bit_length() or q**n > CLIQUE_VERTEX_CAP:
        raise ScaleCapExceeded(f"q^n = {q}^{n} vertices exceed the cap {CLIQUE_VERTEX_CAP}")
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    nverts = q**n
    words = [tuple(w.symbols) for w in all_words(q, n)]
    adj = [0] * nverts
    for i in range(nverts):
        if deadline is not None and time.monotonic() > deadline:
            raise ScaleCapExceeded("adjacency build exceeded the time budget")
        wi = words[i]
        for j in range(i + 1, nverts):
            if insdel_distance_raw(wi, words[j]) >= d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    size, clique = _first_max_clique(adj, deadline)
    code = Code(q, n, tuple(Word(q, words[v]) for v in sorted(clique)))
    return size, code


def _first_max_clique(adj: list[int], deadline: float | None):
    """The first maximum clique that ``_max_clique`` meets on ``adj``.

    The size omega is proven on a copy relabelled in non-increasing degree
    order (ties by index), where the colouring bound is much tighter
    (Tomita & Seki, MCQ). The search on the original labels is then
    replayed with the incumbent seeded to omega - 1 and stops at the first
    omega-clique. Before that clique the unseeded search's incumbent is
    below omega, so the replay prunes at least as much and visits a subset
    of its nodes in the same order; every node on the path to the clique
    has a colouring bound >= omega and survives. So the replay returns the
    clique the unseeded search would.
    """
    if not adj:
        return 0, []
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    omega, _ = _max_clique(_relabel(adj, order), deadline)
    return _max_clique(adj, deadline, omega - 1, omega)


def _relabel(adj: list[int], order: list[int]) -> list[int]:
    """Adjacency bitsets of the graph with vertex ``order[i]`` renamed ``i``.

    Each row is permuted as a string of binary digits (most significant
    first), so the work per row runs in C rather than once per edge.
    """
    width = len(adj)
    pick = operator.itemgetter(*(width - 1 - v for v in reversed(order)))
    return [int("".join(pick(format(adj[v], f"0{width}b"))), 2) for v in order]


def _max_clique(
    adj: list[int],
    deadline: float | None,
    best_size: int = 0,
    stop_size: int | None = None,
):
    """Branch-and-bound maximum clique larger than ``best_size``.

    Returns ``(size, clique)``, with ``(best_size, [])`` when no larger
    clique exists; stops at the first clique of ``stop_size``. An explicit
    stack of frames ``[order, colors, next index, candidates]`` replaces
    one recursion level per clique vertex, visiting nodes in the same
    order, so cliques of any size up to the vertex cap fit.
    """
    best_clique: list[int] = []

    def greedy_color(candidates: int):
        """Color candidate vertices greedily; returns vertices ordered by
        color with their color numbers (1-based)."""
        order = []
        colors = []
        color = 0
        remaining = candidates
        while remaining:
            color += 1
            available = remaining
            while available:
                v = (available & -available).bit_length() - 1
                order.append(v)
                colors.append(color)
                remaining &= ~(1 << v)
                available &= ~(1 << v)
                available &= ~adj[v]
        return order, colors

    def frame(candidates: int) -> list:
        if deadline is not None and time.monotonic() > deadline:
            raise ScaleCapExceeded("clique search exceeded the time budget")
        order, colors = greedy_color(candidates)
        return [order, colors, len(order), candidates]

    clique: list[int] = []
    stack = [frame((1 << len(adj)) - 1)]
    while stack:
        top = stack[-1]
        order, colors, idx, candidates = top
        idx -= 1
        if idx < 0 or len(clique) + colors[idx] <= best_size:
            # Frame exhausted or bounded: back in the parent, drop the
            # vertex this frame extended.
            stack.pop()
            if stack:
                stack[-1][3] &= ~(1 << clique.pop())
            continue
        top[2] = idx
        v = order[idx]
        clique.append(v)
        nxt = candidates & adj[v]
        if nxt:
            stack.append(frame(nxt))
            continue
        if len(clique) > best_size:
            best_size = len(clique)
            best_clique = clique.copy()
            if best_size == stop_size:
                break
        clique.pop()
        top[3] = candidates & ~(1 << v)
    return best_size, best_clique


# ---------------------------------------------------------------------------
# Structural verifiers and the small counter-example family.


def project_code(code: Code, positions) -> Code:
    """Memberwise restriction to the given positions; duplicates merge."""
    if code.kind != INSDEL:
        raise DomainError("projection applies to INSDEL codes")
    positions = sorted(set(positions))
    for p in positions:
        if not 0 <= p < code.n:
            raise DomainError(f"position {p} out of range [0, {code.n - 1}]")
    members = sorted(
        {Word(code.q, tuple(w.symbols[p] for p in positions)) for w in code.members}
    )
    return Code(code.q, len(positions), tuple(members))


def verify_support_structure(code: Code, k: int):
    """Count codewords per exact support of size n-k+1 in a
    Singleton-optimal code containing the zero word; true iff every such
    support holds exactly q-1 codewords."""
    if code.kind != INSDEL:
        raise DomainError("support structure applies to INSDEL codes")
    q, n = code.q, code.n
    if len(code) != q**k:
        raise DomainError(f"expected size q^k = {q**k}, got {len(code)}")
    zero = Word(q, (0,) * n)
    if zero not in code.members:
        raise DomainError("code must contain the zero word (recenter the input first)")
    d_h, _ = code_min_distance(code, "HAMMING")
    if d_h != n - k + 1:
        raise DomainError(f"expected Hamming distance n-k+1 = {n - k + 1}, got {d_h}")
    target = n - k + 1
    counts: dict[tuple[int, ...], int] = {}
    for w in code.members:
        support = tuple(i for i, s in enumerate(w.symbols) if s != 0)
        if len(support) == target:
            counts[support] = counts.get(support, 0) + 1
    ok = True
    full_counts = {}
    for supp in itertools.combinations(range(n), target):
        c = counts.get(supp, 0)
        full_counts[supp] = c
        if c != q - 1:
            ok = False
    return ok, full_counts


def counterexample_code(q: int, n: int) -> tuple[Code, dict]:
    """The q constant words plus one all-distinct word: size q+1 at insdel
    distance 2n-2, beating the q^(n-d/2) power bound.

    The distance is verified over all pairs, so q(q+1)/2 must not pass
    ``pair_cap()``, and their LCS cells, n^2 a pair, must fit the budget of
    ``verification_refusal``. At n <= 3 the pair cap alone decides; q = 4471,
    n = 3, the largest q it admits, verifies in under a second."""
    if n > q:
        raise DomainError(f"need n <= q, got n={n}, q={q}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    cap = pair_cap()
    pairs = q * (q + 1) // 2
    if pairs > cap:
        raise ScaleCapExceeded(
            f"the q+1 words for q={q} give q(q+1)/2 verification pairs, past the cap {cap} ({PAIR_CAP_ENV})"
        )
    refusal = verification_refusal(pairs, n, cap)
    if refusal:
        raise ScaleCapExceeded(refusal)
    members = [Word(q, (a,) * n) for a in range(q)]
    members.append(Word(q, tuple(range(n))))
    code = Code(q, n, tuple(members))
    d, witness = code_min_distance(code, INSDEL)
    report = {
        "q": q,
        "n": n,
        "size": len(code),
        "min_insdel": d,
        "power_bound": q ** (n - d // 2),
    }
    if d != 2 * n - 2:
        raise RuntimeError(f"expected distance {2 * n - 2}, measured {d}")
    return code, report
