"""Constant-weight L1 codes by residue bucketing.

Compositions of weight n over q bins are mapped to units of
F_r[x]/((x-alpha)^(delta-1)) via the product of (x-alpha_i)^(a_i); any two
compositions in the same fiber are at L1 distance >= 2*delta, so the
largest bucket is a constant-weight L1 code with a pigeonhole size
guarantee.
"""

from __future__ import annotations

import math

from .errors import DomainError, ScaleCapExceeded
from .gf import (
    SIZE_CAP,
    FieldCtx,
    Polynomial,
    ResidueCtx,
    UnitResidue,
    _fold_pairs,
    _is_irreducible_modp,
    _mul_fold,
    _square_fold,
    field_make,
    is_prime,
    next_prime,
    unit_group_size,
)
from .lift import pair_cap, verification_refusal
from .value import Value, _set
from .words import CWL1, L1, Code, Composition, code_min_distance, compositions_colex

ENUMERATION_CAP = 10**7


def smallest_construction_prime(q: int) -> int:
    """Smallest prime in [q+1, 2(q+1)]; one always exists by Bertrand."""
    return next_prime(q)


class L1ConstructionSpec(Value):
    """Parameters of one bucketing run.

    With the defaults, alpha = 0 and the bucketing points alpha_i are the q
    smallest nonzero elements of F_r; any valid assignment yields the same
    guarantees, fixing one makes output reproducible. ``r = 0`` picks the
    smallest prime in [q+1, 2(q+1)]. ``irreducible_modulus`` is an expert
    option: a monic irreducible modulus of degree delta-1 over F_r
    (low-first coefficient codes). It permits r = q and needs delta >= 3.
    """

    __slots__ = ("q", "n", "delta", "r", "alpha", "alphas", "irreducible_modulus")

    def __init__(
        self,
        q: int,
        n: int,
        delta: int,
        r: int = 0,
        alpha: int = 0,
        alphas: tuple[int, ...] = (),
        irreducible_modulus: tuple[int, ...] | None = None,
    ):
        if q < 2:
            raise DomainError(f"q must be >= 2, got {q}")
        if delta < 2:
            raise DomainError(f"delta must be >= 2, got {delta}")
        if n < delta:
            raise DomainError(f"need n >= delta, got n={n}, delta={delta}")
        if q > SIZE_CAP:
            raise ScaleCapExceeded(f"q = {q} needs a field of size r >= q, past the cap {SIZE_CAP}")
        if r > SIZE_CAP:  # before is_prime, whose time grows with the digits of r
            raise ScaleCapExceeded(f"r exceeds the field size cap {SIZE_CAP}")
        if irreducible_modulus is not None:
            if delta < 3:
                raise DomainError("an irreducible modulus needs delta >= 3")
            r = r or smallest_construction_prime(q - 1)
            if r < q:
                raise DomainError(f"need r >= q = {q}, got {r}")
        else:
            r = r or smallest_construction_prime(q)
            if r < q + 1:
                raise DomainError(f"need r >= q+1 = {q + 1}, got {r}")
        if not is_prime(r):
            raise DomainError(f"r must be prime, got {r}")
        if not 0 <= alpha < r:
            raise DomainError(f"alpha {alpha} not in F_{r}")
        if irreducible_modulus is not None:
            alphas = alphas or tuple(range(q))
        else:
            # The first q points of F_r other than alpha; r > q.
            alphas = alphas or tuple([a for a in range(q + 1) if a != alpha][:q])
        alphas = tuple(alphas)
        if len(alphas) != q:
            raise DomainError(f"need {q} bucketing points, got {len(alphas)}")
        seen = set(alphas)
        if len(seen) != q:
            raise DomainError("the alpha_i must be pairwise distinct")
        if irreducible_modulus is None and alpha in seen:
            raise DomainError("alpha must differ from every alpha_i")
        for a in alphas:
            if not 0 <= a < r:
                raise DomainError(f"alpha_i {a} not in F_{r}")
        for name, value in zip(self.__slots__, (q, n, delta, r, alpha, alphas, irreducible_modulus)):
            _set(self, name, value)
        # Validate the expert modulus eagerly so bad input fails here.
        if irreducible_modulus is not None:
            self.residue_ctx()

    def field_ctx(self) -> FieldCtx:
        return field_make(self.r)

    def residue_ctx(self) -> ResidueCtx:
        fctx = self.field_ctx()
        if self.irreducible_modulus is None:
            return ResidueCtx.linear_power(fctx, self.alpha, self.delta)
        mod = Polynomial(fctx, self.irreducible_modulus)
        if mod.degree != self.delta - 1 or mod.coeffs[-1] != 1:
            raise DomainError(f"modulus must be monic of degree {self.delta - 1}")
        if not _is_irreducible_modp(mod.coeffs, self.r):
            raise DomainError("modulus is reducible over F_r")
        return ResidueCtx(fctx, mod)

    def unit_count(self) -> int:
        if self.irreducible_modulus is None:
            return unit_group_size(self.r, self.delta)
        # Irreducible modulus of degree delta-1: the ring is a field.
        return self.r ** (self.delta - 1) - 1

    def guaranteed_lower_bound(self) -> int:
        """Pigeonhole floor on the largest bucket size, rounded up."""
        total = math.comb(self.n + self.q - 1, self.n)
        return -(-total // self.unit_count())


def _unit_map(spec: L1ConstructionSpec, rctx: ResidueCtx, top: int):
    """counts -> coefficients of prod_i (x - alpha_i)^(counts_i) in rctx,
    the ring of spec, low-first. Each factor is a unit, so by Lagrange its
    power depends only on the count modulo the order of the unit group.
    The q linear factors are reduced once, here, and squared once into
    their powers f^(2^k) up to ``top``, which must cover every reduced
    count: q * (bit_length(top) - 1) squares. A call then multiplies the
    powers at the set bits of its reduced counts, popcount - 1 products
    in all, and squares nothing."""
    fctx = spec.field_ctx()
    order = spec.unit_count()
    d, p = rctx.degree, spec.r
    fold = _fold_pairs(rctx.modulus.coeffs, p)
    one = rctx.one().coeffs
    squares = []
    for ai in spec.alphas:
        row = [rctx.reduce(Polynomial(fctx, (fctx.neg(ai), 1))).coeffs]
        for _ in range(top.bit_length() - 1):
            row.append(_square_fold(row[-1], fold, d, p))
        squares.append(row)

    def product(counts):
        result = None
        for row, count in zip(squares, counts):
            e = count % order
            for power in row:
                if e & 1:
                    result = power if result is None else _mul_fold(result, power, fold, d, p)
                e >>= 1
        return one if result is None else result

    return product


def pi_map(a: Composition, spec: L1ConstructionSpec) -> UnitResidue:
    """Residue of prod_i (x - alpha_i)^(a_i); a unit since no alpha_i
    equals alpha."""
    if a.q != spec.q or a.weight != spec.n:
        raise DomainError(f"composition {a.counts} does not match the construction parameters")
    rctx = spec.residue_ctx()
    order = spec.unit_count()
    top = max([c % order for c in a.counts])
    return UnitResidue(rctx, tuple(_unit_map(spec, rctx, top)(a.counts)))


def _composition_count(n: int, q: int, cap: int) -> int | None:
    """C(n+q-1, n), the number of compositions of n into q bins, or None
    once it passes ``cap``. The partial products C(n+q-1-k+i, i), with
    k = min(n, q-1), only grow with i, so a huge binomial is never
    formed."""
    k = min(n, q - 1)
    count = 1
    for i in range(1, k + 1):
        count = count * (n + q - 1 - k + i) // i
        if count > cap:
            return None
    return count if count <= cap else None


def construct_l1(spec: L1ConstructionSpec) -> tuple[Code, dict]:
    """Bucket the whole composition space and keep the largest fiber.

    Ties go to the bucket whose unit has the smallest canonical encoding.
    The report carries the exhaustively verified minimum L1 distance next
    to the pigeonhole guarantee while the fibre's pair count fits
    ``pair_cap()``; past it ``verified_min_l1`` is None and a note says the
    distance 2*delta is guaranteed but unverified.

    The work is checked before it starts. Each of the q factors is squared
    bit_length(t) - 1 times, t = min(n, order - 1) the largest reduced
    count; then a composition costs one ring product per set bit of its
    reduced counts, less one, and no squares. Each product takes about
    (delta-1)^2 steps, and the compositions times (delta-1)^2 must fit
    ENUMERATION_CAP, which bounds the squares table's work as well. Each
    composition is also built as a q-tuple, so the compositions times q
    must fit it too.
    """
    cap = pair_cap()
    count = _composition_count(spec.n, spec.q, ENUMERATION_CAP)
    if count is None:
        raise ScaleCapExceeded(
            f"C(n+q-1, n) compositions for q={spec.q}, n={spec.n} exceed"
            f" the enumeration cap {ENUMERATION_CAP}"
        )
    steps = (spec.delta - 1) ** 2
    if count * steps > ENUMERATION_CAP:
        raise ScaleCapExceeded(
            f"{count} compositions times (delta-1)^2 = {steps} ring steps for"
            f" delta={spec.delta} exceed the enumeration cap {ENUMERATION_CAP}"
        )
    if count * spec.q > ENUMERATION_CAP:
        raise ScaleCapExceeded(
            f"{count} compositions times q={spec.q} counts for n={spec.n}"
            f" exceed the enumeration cap {ENUMERATION_CAP}"
        )
    rctx = spec.residue_ctx()
    unit_of = _unit_map(spec, rctx, min(spec.n, spec.unit_count() - 1))
    encode = rctx.encode
    buckets: dict[int, list[Composition]] = {}
    for comp in compositions_colex(spec.n, spec.q):
        buckets.setdefault(encode(unit_of(comp.counts)), []).append(comp)
    best_code = min(buckets, key=lambda c: (-len(buckets[c]), c))
    members = tuple(buckets[best_code])
    code = Code(spec.q, spec.n, members, kind=CWL1)
    npairs = len(members) * (len(members) - 1) // 2
    refusal = verification_refusal(npairs, 0, cap)
    verified_min = None
    if npairs and refusal is None:
        verified_min, _ = code_min_distance(code, L1)
    report = {
        "q": spec.q,
        "n": spec.n,
        "delta": spec.delta,
        "r": spec.r,
        "bucket_unit": best_code,
        "size": len(members),
        "guaranteed_lower_bound": spec.guaranteed_lower_bound(),
        "verified_min_l1": verified_min,
    }
    if refusal:
        report["note"] = f"min L1 >= {2 * spec.delta} guaranteed, unverified"
    return code, report


def verify_l1_code(code: Code, delta: int):
    """True iff all members share one weight and every pair is at L1
    distance >= 2*delta; returns a violating pair otherwise."""
    if code.kind != CWL1:
        raise DomainError("expected a CWL1 code")
    if len(code) < 2:
        return True, None
    best, witness = code_min_distance(code, L1)
    if best < 2 * delta:
        return False, witness
    return True, None
