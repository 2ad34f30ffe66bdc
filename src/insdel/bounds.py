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
from .lift import pair_cap, verification_refusal
from .words import (
    INSDEL,
    Code,
    PackedWords,
    Word,
    code_min_distance,
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
    _check_drop(n, k, delta)
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


def _check_drop(n: int, k: int, delta: int) -> None:
    """The parameter range of the distance-drop certificate. Past
    delta = n - k its distance 2n-2k+2-2*delta falls below 2, which no
    code of two or more words has (the binary [5, 4] parity-check code is
    MDS at insdel distance 2)."""
    if delta < 2:
        raise DomainError(f"delta must be >= 2, got {delta}")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if delta > n - k:
        raise DomainError(f"need delta <= n-k = {n - k}, got delta={delta}")


def field_size_threshold(n: int, k: int, delta: int) -> Fraction:
    """Field sizes at or below the threshold certify the distance drop of
    ``distance_drop_threshold`` for any Singleton-optimal code.

    The low-rate branch takes an exact (delta-1)-th root when the base is
    a perfect rational power; otherwise it returns the integer floor of
    the real root, which keeps the certificate sound for the integer
    field sizes the threshold is compared against.
    """
    _check_drop(n, k, delta)
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
    pairs at distance >= d. Two distinct words of one length are at
    distance >= 2, and two that differ in one position at distance 2, so
    the graph is complete exactly when d = 2: I_q(n, 2) = q^n, answered
    with every word and no search. Otherwise the adjacency is built from
    one LCS row per orbit of symbol renaming and reversal, each one
    ``PackedWords.row`` of the packed kernel against all of [q]^n
    (``_insdel_graph``), and the size is proven by branching on one
    vertex per orbit of the same group (``_insdel_symmetry``).
    Branch-and-bound with a greedy-coloring upper bound, deterministic
    throughout. ``max_seconds`` bounds the whole run, the adjacency build
    and both phases of the clique search together (``ScaleCapExceeded``
    past it).
    """
    _check_even_d(q, n, d)
    # q >= 2, so q^n passes the cap once n passes its bit length; q^n is
    # formed only below that.
    if n > CLIQUE_VERTEX_CAP.bit_length() or q**n > CLIQUE_VERTEX_CAP:
        raise ScaleCapExceeded(f"q^n = {q}^{n} vertices exceed the cap {CLIQUE_VERTEX_CAP}")
    words = list(itertools.product(range(q), repeat=n))
    if d == 2:
        return len(words), Code(q, n, tuple([Word(q, w) for w in words]))
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    adj = _insdel_graph(words, q, n, d, deadline)
    size, clique = _first_max_clique(adj, deadline, _insdel_symmetry(words, q))
    code = Code(q, n, tuple([Word(q, words[v]) for v in sorted(clique)]))
    return size, code


def _insdel_graph(words: list, q: int, n: int, d: int, deadline: float | None) -> list[int]:
    """Adjacency bitsets joining the pairs of ``words``, all of [q]^n in
    lexicographic order, at insdel distance >= d (even), that is with
    LCS <= n - d // 2.

    The LCS length, and so the graph, is unchanged when both words are
    renamed by one permutation of the symbols or both are reversed: S_q x
    reversal acts on the graph by automorphisms. LCS runs only for one
    representative r per orbit, the orbit's least word (``_orbit_rep``):
    its row against every word is one ``PackedWords.row`` over all of
    [q]^n, packed once per call. The vertex cap keeps n <= 12 < 256, so
    the row is bytes of n - LCS counts, which one ``bytes.translate``
    table thresholds in C into b"1" where the count is >= d // 2 and b"0"
    elsewhere; reversed, that is the row's bitset in binary. Every other
    word w is g(r) for some g of the group, and g preserves adjacency, so
    bit v of row(w) is bit g^-1(v) of row(r). That row is moved, not
    recomputed, and equals the row LCS would give. The words that one g
    reaches share its index list. The budget is checked once per row.
    """
    edge = bytes(b"01"[c >= d // 2] for c in range(256))
    pack = PackedWords(words, n)
    index = {w: i for i, w in enumerate(words)}
    adj = [0] * len(words)
    moved: dict = {}
    for i, w in enumerate(words):
        rep, rev, firsts = _orbit_rep(w)
        r = index[rep]
        if r == i:
            if deadline is not None and time.monotonic() > deadline:
                raise ScaleCapExceeded("adjacency build exceeded the time budget")
            adj[i] = int(pack.row(w).translate(edge)[::-1], 2)
        else:
            moved.setdefault((firsts, rev), []).append((i, r))
    # Index lists are sliced and gathered from ints in C rather than
    # summed one entry at a time; flip gathers one at the reversed words.
    ints = list(range(len(words)))
    flip = operator.itemgetter(*[index[w[::-1]] for w in words])
    for (firsts, rev), pairs in moved.items():
        # g^-1 takes w to r: it reverses if rev, then renames by firsts.
        order = _renaming_order(firsts, q, n, ints)
        permute = _bit_permutation(flip(order) if rev else order, len(words))
        for i, r in pairs:
            if deadline is not None and time.monotonic() > deadline:
                raise ScaleCapExceeded("adjacency build exceeded the time budget")
            adj[i] = permute(adj[r])
    return adj


def _orbit_rep(w) -> tuple:
    """``(r, rev, firsts)``: the representative r = min(rgs(w),
    rgs(reverse(w))) of the orbit of ``w`` under symbol renaming and
    reversal, whether it renames the reversed word, and the symbols of
    that word in order of first occurrence, renamed 0, 1, ... in r.

    rgs renames symbols in order of first occurrence (the restricted
    growth string), the least word a renaming reaches, so r is the
    orbit's least word. A tie keeps the unreversed word.
    """
    return min(_rgs(w, False), _rgs(w[::-1], True))


def _rgs(w, rev: bool) -> tuple:
    firsts = tuple(dict.fromkeys(w))
    rank = {s: j for j, s in enumerate(firsts)}
    return tuple([rank[s] for s in w]), rev, firsts


def _renaming_order(firsts: tuple, q: int, n: int, ints: list[int]) -> list[int]:
    """Indices, in lexicographic order of [q]^n, of the words renamed
    symbol by symbol by rho, the permutation of [q] that sends firsts[j]
    to j and the other symbols, in ascending order, to len(firsts),
    len(firsts) + 1, ...

    ``ints`` is list(range(q**n)). Between two of the firsts rho is a
    shifted range, and the indices of the words of length m + 1 starting
    with a are rho(a) * q^m plus those of length m, so every entry is
    sliced or gathered from ``ints`` rather than computed.
    """
    k = len(firsts)
    rho: list[int] = []
    for j, b in enumerate(sorted(firsts)):
        rho += ints[len(rho) + k - j : b + k - j]
        rho.append(firsts.index(b))
    rho += ints[len(rho) : q]
    order, block = rho, 1
    for _ in range(n - 1):
        block *= q
        pick = operator.itemgetter(*order)
        order = []
        for s in rho:
            order += pick(ints[s * block : s * block + block])
    return order


def _insdel_symmetry(words: list, q: int):
    """``orbit(fixed, v)``: the indices of the words in the orbit of
    words[v] under the pointwise stabilizer of the words ``fixed`` (a
    list of indices) in S_q x reversal, for ``_first_max_clique``.

    The orbit is generated from the words: the renamings of w = words[v]
    that the stabilizer holds (``_stabilizer``), and with tau those of tau
    applied to reversed w. With nothing fixed that is every renaming of w
    and of reversed w, the whole group's orbit. The group itself is never
    listed. A search asks for orbits under one fixed list many times in a
    row, so the stabilizer is kept per length of that list.
    """
    stabilizers: dict = {}

    def orbit(fixed: list[int], v: int) -> list[int]:
        kept = stabilizers.get(len(fixed))
        if kept is None or kept[0] != fixed:
            kept = stabilizers[len(fixed)] = fixed, _stabilizer([words[c] for c in fixed], q)
        used, free, tau = kept[1]
        w = words[v]
        mates = _renamings(w, q, used, free)
        if tau is not None:
            turned = _renamings([tau.get(s, s) for s in reversed(w)], q, used, free)
            # Orbits of the renamings of free are equal or disjoint.
            if turned[0] not in mates:
                mates += turned
        return mates

    return orbit


def _stabilizer(fixed: list, q: int) -> tuple:
    """``(used, free, tau)`` for the pointwise stabilizer of the words
    ``fixed`` in S_q x reversal.

    A renaming fixes every word of ``fixed`` exactly when it fixes every
    symbol they use, so the renamings in the stabilizer are those of
    ``free``, the unused symbols, among themselves. A renaming composed
    with reversal fixes them when it maps each reversed word back to
    itself, which determines it on ``used``: ``tau``, or None when the
    symbol pairs (w[n-1-i], w[i]) ask one symbol to go to two. The pairs
    come both ways round, so a consistent tau is its own inverse, a
    bijection of ``used``. With tau, the stabilizer is every renaming of
    ``free`` and each of them composed with tau and reversal.
    """
    used = set().union(*fixed)
    free = [s for s in range(q) if s not in used]
    tau: dict = {}
    for w in fixed:
        for a, b in zip(reversed(w), w):
            if tau.setdefault(a, b) != b:
                return used, free, None
    return used, free, tau


def _renamings(w, q: int, used: set, free: list[int]) -> list[int]:
    """Indices, w read in base q, of the words that rename the symbols
    of ``w`` outside ``used`` one-to-one into ``free``.

    A symbol s at the positions P adds s * sum(q^(n-1-i) for i in P) to
    the index, so each renaming costs one dot product with those sums.
    """
    base, weights = 0, {}
    place = q ** len(w)
    for s in w:
        place //= q
        if s in used:
            base += s * place
        else:
            weights[s] = weights.get(s, 0) + place
    weights = list(weights.values())
    renamings = itertools.permutations(free, len(weights))
    return [base + sum(map(operator.mul, p, weights)) for p in renamings]


def _trivial_group(fixed: list[int], v: int) -> list[int]:
    """The orbits of the trivial group: v alone."""
    return [v]


def _first_max_clique(adj: list[int], deadline: float | None, orbit=_trivial_group):
    """The first maximum clique that ``_max_clique`` meets on ``adj``.

    The size omega is proven by ``_omega`` and the search on the original
    labels is replayed, without the group, with the incumbent seeded to
    omega - 1, and stops at the first omega-clique. Before that clique the
    unseeded search's incumbent is below omega, so the replay prunes at
    least as much and visits a subset of its nodes in the same order;
    every node on the path to the clique has a colouring bound >= omega
    and survives. So the replay returns the clique the unseeded search
    would, whatever group proved omega.
    """
    if not adj:
        return 0, []
    omega = _omega(adj, deadline, orbit)
    return _max_clique(adj, deadline, omega - 1, omega)


def _omega(adj: list[int], deadline: float | None, orbit=_trivial_group) -> int:
    """The clique number of ``adj``, proven on a copy relabelled in
    non-increasing degree order (ties by index), where the colouring bound
    is much tighter (Tomita & Seki, MCQ), by orbital branching (Ostrowski
    et al., 2011) under a group of automorphisms of ``adj``.
    ``orbit(fixed, v)`` lists the orbit of v under the pointwise
    stabilizer of the vertices ``fixed``; the trivial group by default,
    which branches on every vertex. Once the branch on v at a node with
    clique K is explored, the proof drops v's whole orbit under K's
    stabilizer from that node's candidates (see ``_max_clique`` for why
    that is exact)."""
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    label = [0] * len(order)
    for i, v in enumerate(order):
        label[v] = i

    def relabelled(clique: list[int], v: int) -> list[int]:
        return [label[u] for u in orbit([order[c] for c in clique], order[v])]

    return _max_clique(_relabel(adj, order), deadline, 0, None, relabelled)[0]


def _relabel(adj: list[int], order: list[int]) -> list[int]:
    """Adjacency bitsets of the graph with vertex ``order[i]`` renamed ``i``."""
    permute = _bit_permutation(order, len(adj))
    return [permute(adj[v]) for v in order]


def _bit_permutation(order: list[int], width: int):
    """The map from a ``width``-bit set b to the bit set whose bit i is
    bit ``order[i]`` of b.

    b is permuted as a string of binary digits, least significant first,
    so the work per bit set runs in C rather than once per bit.
    """
    pick = operator.itemgetter(*order)
    digits = f"0{width}b"
    return lambda b: int("".join(pick(format(b, digits)[::-1]))[::-1], 2)


def _max_clique(
    adj: list[int],
    deadline: float | None,
    best_size: int = 0,
    stop_size: int | None = None,
    orbit=_trivial_group,
):
    """Branch-and-bound maximum clique larger than ``best_size``.

    Returns ``(size, clique)``, with ``(best_size, [])`` when no larger
    clique exists; stops at the first clique of ``stop_size``. An explicit
    stack of frames ``[order, colors, next index, candidates]`` replaces
    one recursion level per clique vertex, visiting nodes in the same
    order, so cliques of any size up to the vertex cap fit.

    A node with clique K drops each vertex v it has explored from its
    candidates together with ``orbit(K, v)``, v's orbit under the
    pointwise stabilizer of K in a group of automorphisms. The drop waits
    until the node branches again, so a node the bound closes asks for
    no orbit. This is exact: the root's candidates are all vertices, and
    a child's are its parent's, which the child's stabilizer (a subgroup
    of the parent's) keeps, met with the neighbours of a vertex it fixes,
    so every node's candidates stay a union of its stabilizer's orbits.
    An element of that stabilizer then maps the cliques through v among
    them onto those through each orbit-mate of v, so no orbit-mate leads
    to a clique the branch on v could not reach. With the trivial group
    the search is plain branch and bound. Colour bounds stay valid: the
    vertices left at or before an index are a subset of those coloured.
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
            # Frame exhausted or bounded: back in the parent.
            stack.pop()
            if stack:
                clique.pop()
            continue
        top[2] = idx
        if idx + 1 < len(order) and candidates >> order[idx + 1] & 1:
            # The vertex explored last leaves with its orbit.
            for u in orbit(clique, order[idx + 1]):
                candidates &= ~(1 << u)
            top[3] = candidates
        v = order[idx]
        if not candidates >> v & 1:
            continue
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
        {Word(code.q, tuple([w.symbols[p] for p in positions])) for w in code.members}
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
        support = tuple([i for i, s in enumerate(w.symbols) if s != 0])
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

    The distance is verified over all q(q+1)/2 pairs, so they must fit
    ``verification_refusal``: the pair cap, and n^2 LCS cells a pair. At
    n <= 3 the pair cap alone decides; q = 4471, n = 3, the largest q it
    admits, verifies in under a second."""
    if n > q:
        raise DomainError(f"need n <= q, got n={n}, q={q}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    refusal = verification_refusal(q * (q + 1) // 2, n, pair_cap())
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
