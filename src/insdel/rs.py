"""Reed-Solomon codes under the insdel metric.

Covers encoding, the affine-map criterion deciding whether a dimension-2
code reaches insdel distance 2n-4, a greedy evaluation-vector construction
that always satisfies the criterion once the field is large enough, and a
certificate algorithm exhibiting two codewords at insdel distance at most
2n-4k+4 for every dimension k >= 3 of sufficient length.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem

from .errors import DomainError, ScaleCapExceeded
from .gf import FieldCtx, Matrix, Polynomial, det, field_make, next_prime, nullspace
from .value import Value, _set
from .words import closest_pair, lcs_length_raw

EXHAUSTIVE_CAP = 10**4  # max q^k codewords for the exhaustive sweep
CONSTRUCT_STEP_CAP = 15 * 10**4  # construct_rs2_steps; n = 13 over a prime field fits, n = 14 does not
CRITERION_STEP_CAP = CONSTRUCT_STEP_CAP  # criterion_steps; n = 14 over a prime field fits, n = 15 does not
WITNESS_STEP_CAP = 2 * 10**6  # witness_steps; k = 42 over a prime field at the least n fits, k = 43 does not

ALL_FIXED = "all"


class RsCode(Value):
    """Evaluations of all polynomials of degree < k at n distinct points."""

    __slots__ = ("ctx", "alphas", "k")

    def __init__(self, ctx: FieldCtx, alphas: tuple[int, ...], k: int):
        alphas = tuple([ctx.check(a) for a in alphas])
        if len(set(alphas)) != len(alphas):
            raise DomainError("evaluation points must be pairwise distinct")
        if not 1 <= k <= len(alphas):
            raise DomainError(f"need 1 <= k <= n, got k={k}, n={len(alphas)}")
        _set(self, "ctx", ctx)
        _set(self, "alphas", alphas)
        _set(self, "k", k)

    @property
    def n(self) -> int:
        return len(self.alphas)


def rs_encode(code: RsCode, f: Polynomial) -> tuple[int, ...]:
    """Codeword of a message polynomial: evaluations at the alpha vector."""
    if f.ctx != code.ctx:
        raise DomainError("message polynomial from a different field")
    if f.degree >= code.k:
        raise DomainError(f"message degree {f.degree} not below k={code.k}")
    return tuple([f(a) for a in code.alphas])


class AffineMap(Value):
    """The map x -> ax + b with a != 0; acts on the point at alpha by
    alpha -> a^(-1)(alpha - b)."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldCtx, a: int, b: int):
        ctx.check(a)
        ctx.check(b)
        if a == 0:
            raise DomainError("affine map needs a != 0")
        _set(self, "ctx", ctx)
        _set(self, "a", a)
        _set(self, "b", b)

    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0

    def apply_polynomial(self, f: Polynomial) -> Polynomial:
        """Substitute ax + b for x in f."""
        ctx = self.ctx
        lin = Polynomial(ctx, (self.b, self.a))
        acc = Polynomial(ctx, ())
        for c in reversed(f.coeffs):
            acc = acc * lin + Polynomial(ctx, (c,))
        return acc


def affine_apply(s: AffineMap, alpha: int) -> int:
    """Action on evaluation points: the inverse image of the substitution."""
    ctx = s.ctx
    return ctx.mul(ctx.inv(s.a), ctx.sub(alpha, s.b))


def affine_through(ctx: FieldCtx, src: tuple[int, int], dst: tuple[int, int]) -> AffineMap:
    """The unique map sending the two source points to the two destination
    points, from the 2x2 linear system b1*a + b = a1, b2*a + b = a2."""
    a1, a2 = src
    b1, b2 = dst
    if a1 == a2:
        raise DomainError("source points must be distinct")
    if b1 == b2:
        raise DomainError("destination points must be distinct")
    a = ctx.div(ctx.sub(a1, a2), ctx.sub(b1, b2))
    b = ctx.sub(a1, ctx.mul(b1, a))
    return AffineMap(ctx, a, b)


def affine_fixed_points(s: AffineMap):
    """Fixed evaluation points: "all" for the identity, else at most one."""
    if s.is_identity():
        return ALL_FIXED
    ctx = s.ctx
    if s.a == 1:
        return frozenset()
    return frozenset({ctx.div(s.b, ctx.sub(1, s.a))})


def _weight(ctx: FieldCtx) -> int:
    """Prime-field steps that one step of the criterion or of the greedy
    over ``ctx`` weighs. Over GF(p^e), e > 1, a multiply is a product of
    degree-e polynomials and an inversion a power of one, so a step
    weighs 2e*bitlength(q). That is an upper bound: measured from GF(243)
    to GF(2^20) and GF(1021^2) in two runs, a criterion step costs 3.7
    to 7.8 times less than its weight. ``witness_steps``, mostly
    multiplies, weighs multiplies and inversions apart."""
    return 1 if ctx.m == 1 else 2 * ctx.m * ctx.q.bit_length()


def _mul_weight(ctx: FieldCtx) -> int:
    """Prime-field steps that one multiply over ``ctx`` weighs in
    ``witness_steps``. Over GF(p^e), e > 1, a multiply decodes, multiplies
    and reduces degree-e polynomials, e(e+16)/4 steps; for odd p the add
    or subtract that comes with each multiply of the witness decodes and
    encodes too, e + 8 steps more. Measured from GF(4) to GF(2^20) and
    GF(1021^2) in two runs, a multiply and its add took 5 to 47 times
    0.6 us, the time a step may take if WITNESS_STEP_CAP's steps take
    1.2 s, and the weight is 1.5 to 4.9 times that."""
    e = ctx.m
    if e == 1:
        return 1
    return e * (e + 16) // 4 + (e + 8 if ctx.p > 2 else 0)


def _inv_weight(ctx: FieldCtx) -> int:
    """Prime-field steps that one inversion over ``ctx`` weighs in
    ``witness_steps``: over GF(p^e), e > 1, the power a^(q-2), at most
    2 bitlength(q) multiplies."""
    return 1 if ctx.m == 1 else 2 * ctx.q.bit_length() * _mul_weight(ctx)


def criterion_steps(n: int, ctx: FieldCtx) -> int:
    """Upper bound on the work of ``check_rs2_criterion`` on n points, in
    weighted steps: for each ordered pair of index triples that differ in
    at least two slots, one affine map built (one inversion) and one
    image tested (one multiply and one add). Of the C(n,3)^2 ordered
    pairs, C(n,3) differ in no slot and 6 C(n,4) in one (a 4-set gives
    two such ordered pairs for each slot), so a vector that meets the
    criterion takes exactly this many steps."""
    triples = math.comb(n, 3)
    return (triples * triples - triples - 6 * math.comb(n, 4)) * _weight(ctx)


def _triples_with_gap(n: int):
    """Ordered pairs of increasing index triples differing in >= 2 slots."""
    triples = list(itertools.combinations(range(n), 3))
    for i in triples:
        for j in triples:
            if sum(1 for x, y in zip(i, j) if x != y) >= 2:
                yield i, j


def check_rs2_criterion(code: RsCode):
    """Decide whether a dimension-2 code reaches insdel distance 2n-4.

    Only the affine map matching the first two coordinates of a triple pair
    can carry one triple onto the other (the map is determined by two point
    images), so scanning ordered triple pairs suffices. On failure the
    witness (i, j, map) converts to two codewords sharing a length-3
    subsequence. Past CRITERION_STEP_CAP steps of ``criterion_steps`` it
    refuses before the scan.
    """
    if code.k != 2:
        raise DomainError(f"criterion applies to k=2, got k={code.k}")
    if code.n < 3:
        raise DomainError(f"criterion needs n >= 3, got n={code.n}")
    ctx = code.ctx
    steps = criterion_steps(code.n, ctx)
    if steps > CRITERION_STEP_CAP:
        raise ScaleCapExceeded(
            f"n={code.n} over {ctx} takes {steps} weighted affine-map steps, past the cap {CRITERION_STEP_CAP}"
        )
    add, mul = ctx.add, ctx.mul
    alphas = code.alphas
    for i, j in _triples_with_gap(code.n):
        src = (alphas[i[0]], alphas[i[1]])
        dst = (alphas[j[0]], alphas[j[1]])
        sigma = affine_through(ctx, src, dst)
        # sigma is the substitution x -> ax + b with a*dst + b = src, so it
        # moves alpha_i2 to alpha_j2 exactly when a*alpha_j2 + b = alpha_i2,
        # a test that needs no inversion of a.
        if add(mul(sigma.a, alphas[j[2]]), sigma.b) == alphas[i[2]]:
            return False, (i, j, sigma)
    return True, None


def rs2_field_threshold(n: int) -> int:
    """Field sizes above n(n-1)^2(n-2)^2/4 guarantee the greedy
    construction succeeds."""
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    return n * (n - 1) ** 2 * (n - 2) ** 2 // 4


def construct_rs2_steps(n: int, ctx: FieldCtx) -> int:
    """Upper bound on the work of ``construct_rs2(n, ctx)``: the greedy's
    field multiplies and inversions plus the criterion re-check's
    ``criterion_steps``, weighted alike.

    Admitting a point to m points with P = C(m,2) pairs
    (``_RatioTables.admit``) takes at most 3mP multiplies for the fixed
    points, 3(m + mP) and one inversion for the batch, f <= P + m(m-1)
    for the fresh ratios, Pf for their images on the old pairs and mR for
    all R ratios so far on the m new pairs. The first point costs
    nothing. A multiply costs much less than a criterion step, and the
    re-check is most of a run.
    """
    greedy = ratios = 0
    for m in range(1, n - 1):
        pairs = math.comb(m, 2)
        fresh = pairs + m * (m - 1)
        ratios += fresh
        greedy += 3 * m * pairs + 3 * (m + m * pairs) + 1 + fresh + pairs * fresh + m * ratios
    return greedy * _weight(ctx) + criterion_steps(n, ctx)


def _inverses(ctx: FieldCtx, values: list[int]) -> list[int]:
    """Inverses of nonzero elements from one field inversion and
    3(len - 1) multiplies (Montgomery's batch trick)."""
    if not values:
        return []
    mul = ctx.mul
    prefix = [values[0]]
    for v in values[1:]:
        prefix.append(mul(prefix[-1], v))
    inv = ctx.inv(prefix[-1])
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = mul(inv, prefix[i - 1])
        inv = mul(inv, values[i])
    out[0] = inv
    return out


class _RatioTables:
    """The set the greedy of ``construct_rs2`` forbids after the points
    admitted so far: every image and fixed point of the affine maps
    between pairs of admitted points, grown one point at a time.

    The map sending points (a_i, a_j) to (a_k, a_l), i < j, k < l, moves
    a_t to a_k + r (a_l - a_k) with r = (a_t - a_i) / (a_j - a_i). So the
    images are {a + r d : r in R, (a, d) in P} for the ratio set R and the
    pair list P = {(a_k, a_l - a_k)}. With d = a_j - a_i and
    e = a_l - a_k, the map has scale e/d and, when d != e, the fixed point
    (a_k d - a_i e) / (d - e), shared with its inverse map. The tables
    only grow, so a new point adds just the ratios, pairs, images and
    fixed points involving it. Each pair difference is inverted once, in
    one batch per point with that point's fixed-point denominators.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.alphas: list[int] = []
        self.pairs: list[tuple[int, int, int]] = []  # (a_k, a_l - a_k, its inverse)
        self.ratios: list[int] = []  # R without 0 and 1, which map onto admitted points
        self.forbidden: set[int] = set()

    def admit(self, x: int) -> None:
        ctx = self.ctx
        add, sub, mul = ctx.add, ctx.sub, ctx.mul
        alphas, pairs, ratios, forbidden = self.alphas, self.pairs, self.ratios, self.forbidden
        diffs = [sub(x, a) for a in alphas]
        # A map between two new pairs fixes their shared point x, and a
        # map from an old pair to a new one has the fixed point of its
        # inverse, so only new-to-old maps add fixed points.
        fixed: dict[int, list[int]] = {}  # denominator -> numerators
        for a, d in zip(alphas, diffs):
            for b, e, _ in pairs:
                if d != e:
                    fixed.setdefault(sub(d, e), []).append(sub(mul(b, d), mul(a, e)))
        invs = _inverses(ctx, diffs + list(fixed))
        for inv, nums in zip(invs[len(diffs) :], fixed.values()):
            forbidden.update(mul(num, inv) for num in nums)
        new = list(zip(alphas, diffs, invs))
        fresh = [mul(sub(x, a), dinv) for a, _, dinv in pairs]
        fresh += [mul(sub(t, a), dinv) for a, _, dinv in new for t in alphas if t != a]
        known = {0, 1, *ratios}
        fresh = [r for r in dict.fromkeys(fresh) if r not in known]
        for a, d, _ in pairs:
            forbidden.update(add(a, mul(r, d)) for r in fresh)
        ratios += fresh
        for a, d, _ in new:
            forbidden.update(add(a, mul(r, d)) for r in ratios)
        pairs += new
        alphas.append(x)
        forbidden.add(x)


def construct_rs2(n: int, ctx: FieldCtx | None = None) -> RsCode:
    """Greedy evaluation vector for a distance-(2n-4) dimension-2 code.

    Starts from the three smallest field elements and, at each step, takes
    the smallest element avoiding every image and fixed point of the maps
    determined by pairs of already-chosen points (see ``_RatioTables``).
    The full criterion is re-checked afterwards and a failure is an
    internal error, not a data condition. Past CONSTRUCT_STEP_CAP steps of
    ``construct_rs2_steps`` it refuses before the greedy starts. Those
    steps include the re-check's ``criterion_steps``, and the two caps are
    equal, so the re-check is never refused.
    """
    threshold = rs2_field_threshold(n)
    if ctx is None:
        ctx = field_make(next_prime(threshold))
    if ctx.q <= threshold:
        raise DomainError(
            f"field size {ctx.q} does not exceed the threshold {threshold} for n={n}"
        )
    steps = construct_rs2_steps(n, ctx)
    if steps > CONSTRUCT_STEP_CAP:
        raise ScaleCapExceeded(f"n={n} over {ctx} takes {steps} weighted steps, past the cap {CONSTRUCT_STEP_CAP}")
    tables = _RatioTables(ctx)
    x = 0
    for m in range(1, n):
        tables.admit(x)
        # The forbidden set only grows, so each scan starts above the last pick.
        x = m if m < 3 else next(c for c in range(x + 1, ctx.q) if c not in tables.forbidden)
    code = RsCode(ctx, (*tables.alphas, x), 2)
    ok, witness = check_rs2_criterion(code)
    if not ok:
        raise RuntimeError(f"greedy vector failed the criterion: {witness}")
    return code


def check_sweep_cap(code: RsCode, cap: int = EXHAUSTIVE_CAP) -> None:
    """Refuse an exhaustive sweep of more than ``cap`` codewords, q^k."""
    count = code.ctx.q**code.k
    if count > cap:
        raise ScaleCapExceeded(f"{count} codewords exceed the sweep cap {cap}")


def _codebook(code: RsCode) -> list[tuple[int, ...]]:
    """Every codeword, messages in ``itertools.product`` order of their
    low-first coefficient tuples, built by linearity.

    The codeword of (c_0, ..., c_{k-1}) is the sum of the rows
    c_j * (alpha_i^j)_i. Starting from the constant words (c_0, ..., c_0),
    each degree j appends every one of its q scaled rows to every word so
    far, one ``map`` over a q x q addition table per codeword. Scaling
    the previous degree's rows by the alphas gives the next degree's. A
    k = 1 code needs no table, and for k >= 2 it holds q^2 <= q^k
    entries, within the sweep cap.
    """
    ctx, alphas = code.ctx, code.alphas
    q, n = ctx.q, code.n
    scaled = [(c,) * n for c in range(q)]  # c * alpha_i^0
    words = scaled
    if code.k > 1:
        add, mul = ctx.add, ctx.mul
        sums = [[add(a, b) for b in range(q)] for a in range(q)]  # sums[a][b] = a + b
        for _ in range(1, code.k):
            scaled = [list(map(mul, row, alphas)) for row in scaled]
            # A row's lookup holds the table row of each of its symbols, so
            # word + row is one C-level map of getitem over it and the word.
            lookups = [[sums[x] for x in row] for row in scaled]
            # Through a list, so each word is allocated at its exact size
            # (see the README's conventions).
            words = [tuple(list(map(getitem, t, w))) for w in words for t in lookups]
    return words


def _is_orbit_representative(coeffs) -> bool:
    """True for zero and for the messages with zero constant term whose
    lowest-degree nonzero non-constant coefficient is 1: the message of
    least index in each orbit of f -> a*f + c (a != 0)."""
    if coeffs[0]:
        return False
    lead = next((c for c in coeffs[1:] if c), 1)
    return lead == 1


def rs_exhaustive_insdel(code: RsCode, cap: int = EXHAUSTIVE_CAP):
    """Exact minimum insdel distance over all distinct codeword pairs.

    Messages are indexed in ``itertools.product`` order of their low-first
    coefficient tuples, and the witness is the minimising pair (i, j),
    i < j, that comes first lexicographically. Past ``cap`` codewords
    (``check_sweep_cap``) it refuses before any work.

    The codebook is built by linearity (``_codebook``): q^2 field
    additions for one addition table and (k-1)*q*n multiplications for
    the scaled basis rows, none at all for k = 1, then one table lookup
    per symbol of each of the q^k codewords and no field call.

    Relabelling symbols by y -> a*y + c (a != 0) sends the codewords of f
    and g to those of a*f + c and a*g + c at the same insdel distance, so
    the minimising pairs form a union of orbits of that group. Every
    message shares an orbit with exactly one representative (see
    ``_is_orbit_representative``). The messages occurring in minimising
    pairs form a union of orbits, and the least message of an orbit is its
    representative: the constant term weighs most in the index order,
    then the coefficients by increasing degree. So the least message i in
    any minimising pair is a representative, no earlier representative
    has a minimising partner, and every partner of i lies above i.

    The representatives are therefore the ``closest_pair`` rows, each
    against the messages above it, and its first least pair is the full
    sweep's witness. That is the sum over representatives r of
    (q^k - 1 - r) pairs instead of q^k(q^k - 1)/2, 2q^2 - 3 for k = 2.
    """
    check_sweep_cap(code, cap)
    words = _codebook(code)
    messages = itertools.product(range(code.ctx.q), repeat=code.k)
    reps = [r for r, coeffs in enumerate(messages) if _is_orbit_representative(coeffs)]
    low, r, g = closest_pair(words, code.n, reps)
    return 2 * low, (words[r], words[g])


def _power_table(ctx: FieldCtx, alphas, top: int) -> list[list[int]]:
    """Rows (1, a, a^2, ..., a^top), one per point a: top - 1 multiplies
    a row."""
    mul = ctx.mul
    table = []
    for a in alphas:
        row = [1, a]
        for _ in range(1, top):
            row.append(mul(row[-1], a))
        table.append(row)
    return table


def invertible_difference_indices(code: RsCode, k: int):
    """Two strictly increasing index vectors of length k-1 whose power
    difference matrix (alpha_i^s - alpha_j^s), s = 1..k-1, is invertible:
    i = (2, 3, ..., k) and j = (0, 2, 3, ..., k-1), 0-based.

    The inductive construction starts from i=(2,3), j=(0,2) for k=3. Each
    step appends j_new = j_last + 1 and the smallest i_new at which the
    bordered determinant does not vanish. As a function of the new
    point x, that determinant is a degree-d polynomial whose leading
    coefficient is the previous difference matrix's determinant, up to
    sign, so it is nonzero. It vanishes at the d points alpha_t,
    t in {0, 2, ..., d}: the columns of the pairs (2, 0), (3, 2), ...,
    (d, d-1) telescope, so x = alpha_t makes the new column
    (x^s - alpha_d^s)_s a combination of the old ones. These are all its
    roots, and the first candidate, alpha_{d+1}, is none of them. So
    every step takes the first candidate, which gives the closed form.
    The final determinant is still checked.
    """
    if k < 3:
        raise DomainError(f"need k >= 3, got {k}")
    if code.n < k + 1:
        raise DomainError(f"need n >= {k + 1} for k={k}, got n={code.n}")
    ii, jj = _difference_indices(code.ctx, _power_table(code.ctx, code.alphas[: k + 1], k - 1), k)
    return tuple(ii), tuple(jj)


def _difference_indices(ctx: FieldCtx, powers: list[list[int]], k: int):
    """``invertible_difference_indices`` on a power table of at least the
    first k+1 points, with its determinant checked."""
    sub = ctx.sub
    ii = list(range(2, k + 1))
    jj = [0] + list(range(2, k))
    rows = [[sub(powers[ic][s], powers[jc][s]) for ic, jc in zip(ii, jj)] for s in range(1, k)]
    if det(Matrix.from_rows(ctx, rows)) == 0:
        raise RuntimeError("difference matrix unexpectedly singular")
    return ii, jj


def _witness_ops(n: int, k: int) -> tuple[int, int]:
    """Field multiplies and inversions of ``low_distance_witness`` for an
    [n, k] code, at most.

    The power table is counted at k-2 multiplies for each of the first
    k(k+1)/2 + k - 3 >= 2k points, the length once required. It is built
    over the first 2k only, so that term is an over-count, kept so that
    the cap admits exactly the inputs it admitted before. ``_rref`` takes
    one inversion and at most rc + 1 multiplies for each pivot of an
    r x c matrix, r <= c here: for the determinant of order k-1 and for
    the (2k-2) x (2k-1) transpose of the evaluation matrix. The
    certificate evaluates f and g, of at most k terms, at the n points.
    The count also keeps the index search that the closed form of
    ``invertible_difference_indices`` replaced: for step d = 3..k-1, a
    (d-1) x d ``_rref`` and a d-term sum at each of (d+1)(d+2)/2 - 1
    points. So it stays an upper bound, and the cap admits exactly the
    inputs it admitted with that search.
    """
    muls = (k * (k + 1) // 2 + k - 3) * (k - 2) + 2 * n * k
    invs = 0
    for d in range(3, k):
        muls += ((d + 1) * (d + 2) // 2 - 1) * d
    for r, c in [(d - 1, d) for d in range(3, k)] + [(k - 1, k - 1), (2 * k - 2, 2 * k - 1)]:
        muls += r * (r * c + 1)
        invs += r
    return muls, invs


def witness_steps(n: int, k: int, ctx: FieldCtx) -> int:
    """Upper bound on the work of ``low_distance_witness`` for an [n, k]
    code: its field multiplies and inversions (``_witness_ops``), weighted
    by ``_mul_weight`` and ``_inv_weight``, plus the LCS of its two
    codewords. The bit-parallel LCS of two length-n words steps n times
    over n-bit ints, which costs about a multiply per 2048 bits."""
    muls, invs = _witness_ops(n, k)
    return muls * _mul_weight(ctx) + invs * _inv_weight(ctx) + n * (n // 2048 + 1)


def low_distance_witness(code: RsCode, k: int | None = None) -> dict:
    """Two distinct degree-(<k) messages whose codewords share a length
    2k-2 common subsequence, certifying insdel distance <= 2n-4k+4.

    The index vectors from the inductive construction are extended by the
    smallest fresh increasing indices, and a left-nullspace vector of the
    tall evaluation matrix, read off the construction's power table,
    supplies the coefficients. The certificate is re-verified on the two
    codewords: each equality f(alpha_i) = g(alpha_j) and an LCS. Past
    WITNESS_STEP_CAP steps of ``witness_steps`` it refuses before any of
    that work.
    """
    if k is None:
        k = code.k
    if k < 3:
        raise DomainError(f"need k >= 3, got {k}")
    if code.n < 2 * k:
        raise DomainError(f"need n >= {2 * k} for k={k}, got n={code.n}")
    ctx = code.ctx
    steps = witness_steps(code.n, k, ctx)
    if steps > WITNESS_STEP_CAP:
        raise ScaleCapExceeded(
            f"k={k}, n={code.n} over {ctx} takes {steps} weighted field steps, past the cap {WITNESS_STEP_CAP}"
        )
    alphas = code.alphas
    # The extended indices end at ii[-1] = 2k-1 and jj[-1] = 2k-2, so the
    # table needs the first 2k points only.
    powers = _power_table(ctx, alphas[: 2 * k], k - 1)
    ii, jj = _difference_indices(ctx, powers, k)
    ii += range(ii[-1] + 1, ii[-1] + k)
    jj += range(jj[-1] + 1, jj[-1] + k)
    if ii[-1] >= len(powers) or jj[-1] >= len(powers):
        raise RuntimeError("index extension ran past the power table")
    # (2k-1) x (2k-2) evaluation matrix: all-ones row, then powers at the
    # i-indices, then powers at the j-indices.
    rows = [[1] * (2 * k - 2)]
    rows += [[powers[c][s] for c in ii] for s in range(1, k)]
    rows += [[powers[c][s] for c in jj] for s in range(1, k)]
    basis = nullspace(Matrix.from_rows(ctx, rows))
    if not basis:
        raise RuntimeError("left nullspace unexpectedly trivial")
    vec = next((v for v in basis if v[0] != 0), None)
    if vec is None:
        vec = basis[0]  # leading coordinate zero: the difference-matrix
        # invertibility argument still guarantees f != g below.
    f = Polynomial(ctx, vec[:k])
    g = Polynomial(ctx, tuple([0] + [ctx.neg(b) for b in vec[k : 2 * k - 1]]))
    if f.coeffs == g.coeffs:
        raise RuntimeError("certificate polynomials collapsed")
    cf = tuple([f(a) for a in alphas])
    cg = tuple([g(a) for a in alphas])
    if any(cf[ic] != cg[jc] for ic, jc in zip(ii, jj)):
        raise RuntimeError("certificate equalities failed")
    lcs = lcs_length_raw(cf, cg)
    if lcs < 2 * k - 2:
        raise RuntimeError("certificate LCS shorter than promised")
    return {
        "f": f.coeffs,
        "g": g.coeffs,
        "i": tuple(ii),
        "j": tuple(jj),
        "lcs_lower_bound": lcs,
        "distance_upper_bound": 2 * code.n - 4 * k + 4,
        "codeword_f": cf,
        "codeword_g": cg,
    }
