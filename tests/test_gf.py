import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insdel.errors import ContextMismatch, DomainError, NonUnitError, ScaleCapExceeded
from insdel.gf import (
    SIZE_CAP,
    FieldCtx,
    Matrix,
    Polynomial,
    ResidueCtx,
    UnitResidue,
    _fold_pairs,
    _mul_fold,
    _square_fold,
    det,
    field_from_size,
    field_make,
    is_prime,
    next_prime,
    nullspace,
    poly_gcd,
    unit_group_size,
)

SMALL_FIELDS = [field_make(2), field_make(5), field_make(2, 3), field_make(3, 2)]


def _digitwise(ctx, a, b, sign):
    """a + sign * b from base-p digit vectors, the definition of field addition."""
    return ctx.encode([(x + sign * y) % ctx.p for x, y in zip(ctx.decode(a), ctx.decode(b))])


class TestPrimes:
    def test_small_values(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_large_deterministic(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)

    def test_next_prime_is_strict(self):
        assert next_prime(36) == 37
        assert next_prime(37) == 41
        assert next_prime(180) == 181


class TestFieldArithmetic:
    @pytest.mark.parametrize("ctx", SMALL_FIELDS, ids=repr)
    def test_field_axioms_exhaustive(self, ctx):
        elems = list(ctx.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.sub(ctx.add(a, b), b) == a
        for a in elems:
            assert ctx.add(a, 0) == a
            assert ctx.mul(a, 1) == a
            if a != 0:
                assert ctx.mul(a, ctx.inv(a)) == 1

    @pytest.mark.parametrize("ctx", SMALL_FIELDS, ids=repr)
    def test_distributivity_exhaustive(self, ctx):
        elems = list(ctx.elements())
        for a, b, c in itertools.product(elems, repeat=3):
            lhs = ctx.mul(a, ctx.add(b, c))
            rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert lhs == rhs

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_binary_add_sub_all_pairs(self, m):
        ctx = field_make(2, m)
        for a, b in itertools.product(ctx.elements(), repeat=2):
            assert ctx.add(a, b) == _digitwise(ctx, a, b, 1)
            assert ctx.sub(a, b) == _digitwise(ctx, a, b, -1)

    def test_binary_add_sub_random_pairs(self):
        ctx = field_make(2, 20)
        rng = random.Random(20)
        for _ in range(2000):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.add(a, b) == _digitwise(ctx, a, b, 1)
            assert ctx.sub(a, b) == _digitwise(ctx, a, b, -1)
            assert ctx.neg(a) == _digitwise(ctx, 0, a, -1)

    def test_modulus_is_smallest_irreducible(self):
        # x^2 + x + 1 is the only irreducible quadratic over GF(2).
        assert field_make(2, 2).modulus == (1, 1, 1)
        # x^2 + 1 (code 0,1 -> (1,0,1)) is reducible mod 5; x^2 + 2 is not.
        assert field_make(5, 2).modulus == (2, 0, 1)

    def test_size_cap(self):
        with pytest.raises(ScaleCapExceeded):
            field_make(2, 21)

    def test_size_cap_before_factoring(self):
        # Trial division of this square of a prime near 10^11 would run
        # to its root; the cap refuses it first.
        with pytest.raises(ScaleCapExceeded):
            field_from_size(99999999977**2)

    def test_field_from_size(self):
        assert field_from_size(9).p == 3 and field_from_size(9).m == 2
        assert field_from_size(7).q == 7
        with pytest.raises(DomainError):
            field_from_size(6)


def _reference_mul(ctx, a, b):
    """Field product from first principles: the schoolbook product of the
    digit vectors, then long division by the full modulus."""
    prod = [0] * (2 * ctx.m - 1)
    for i, x in enumerate(ctx.decode(a)):
        for j, y in enumerate(ctx.decode(b)):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, ctx.m - 1, -1):
        lead = prod[top]
        for i, c in enumerate(ctx.modulus):
            prod[top - ctx.m + i] -= lead * c
    return ctx.encode(prod[: ctx.m])


class TestExtensionKernel:
    @pytest.mark.parametrize("q", [16, 25, 27])
    def test_mul_all_pairs(self, q):
        ctx = field_from_size(q)
        for a, b in itertools.product(ctx.elements(), repeat=2):
            assert ctx.mul(a, b) == _reference_mul(ctx, a, b), (a, b)

    @pytest.mark.parametrize("p, m", [(2, 10), (2, 20), (3, 6), (5, 4), (7, 3), (1021, 2)])
    def test_mul_random_pairs(self, p, m):
        ctx = field_make(p, m)
        rng = random.Random(p * 100 + m)
        for _ in range(2000):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.mul(a, b) == _reference_mul(ctx, a, b), (a, b)

    @pytest.mark.parametrize("q", [7, 16, 25, 27])
    def test_pow_matches_repeated_multiplication(self, q):
        ctx = field_from_size(q)
        for a in (0, 1, 2, q - 1):
            expected = 1
            for e in range(3 * q + 1):
                assert ctx.pow(a, e) == expected, (a, e)
                expected = _reference_mul(ctx, expected, a)
            if a:
                assert ctx.mul(a, ctx.pow(a, q - 2)) == 1
                assert ctx.pow(a, -5) == ctx.pow(ctx.inv(a), 5)

    # Ids keep e and the total product count, multiplies plus squares.
    @pytest.mark.parametrize(
        "e, multiplies, squares",
        [
            pytest.param(e, multiplies, squares, id=f"{e}-{multiplies + squares}")
            for e, multiplies, squares in [(0, 0, 0), (1, 0, 0), (2, 0, 1), (8, 0, 3), (13, 2, 3), (255, 7, 7), (510, 7, 8)]
        ],
    )
    def test_pow_multiply_count(self, monkeypatch, e, multiplies, squares):
        # Square-and-multiply from the lowest set bit to the top bit:
        # popcount(e) - 1 multiplies and bit_length(e) - 1 squares.
        # e = 510 = q - 2 is the inverse's exponent in GF(512), which
        # ``inv`` reaches by the shorter Itoh-Tsujii chain instead.
        ctx = field_make(2, 9)
        expected = ctx.pow(3, e)
        calls = []
        mul, square = FieldCtx.mul, FieldCtx.square
        monkeypatch.setattr(FieldCtx, "mul", lambda ctx, a, b: calls.append("mul") or mul(ctx, a, b))
        monkeypatch.setattr(FieldCtx, "square", lambda ctx, a: calls.append("square") or square(ctx, a))
        assert ctx.pow(3, e) == expected
        assert (calls.count("mul"), calls.count("square")) == (multiplies, squares)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_inverse_chain_count(self, monkeypatch, m):
        # Itoh-Tsujii over GF(2^m): floor(log2(m-1)) + popcount(m-1) - 1
        # multiplies and m - 1 squares, where the power a^(q-2) takes
        # m - 2 multiplies and the same squares.
        ctx = field_make(2, m)
        a = ctx.q - 1
        expected = ctx.pow(a, ctx.q - 2)
        calls = []
        mul, square = FieldCtx.mul, FieldCtx.square
        monkeypatch.setattr(FieldCtx, "mul", lambda ctx, a, b: calls.append("mul") or mul(ctx, a, b))
        monkeypatch.setattr(FieldCtx, "square", lambda ctx, a: calls.append("square") or square(ctx, a))
        assert ctx.inv(a) == expected
        top = m - 1
        multiplies = top.bit_length() - 1 + bin(top).count("1") - 1
        assert (calls.count("mul"), calls.count("square")) == (multiplies, m - 1)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_inverse_chain_is_the_power_every_element(self, m):
        ctx = field_make(2, m)
        for a in range(1, ctx.q):
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2), a
        with pytest.raises(DomainError):
            ctx.inv(0)

    @pytest.mark.parametrize("m", [16, 20])
    def test_inverse_chain_is_the_power_random_elements(self, m):
        ctx = field_make(2, m)
        rng = random.Random(m)
        for _ in range(300):
            a = rng.randrange(1, ctx.q)
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2), a
        with pytest.raises(DomainError):
            ctx.inv(0)

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64, 128, 256, 512, 1024, 9, 27, 81, 243, 729, 25, 125, 49, 343])
    def test_square_and_inverse_every_element(self, q):
        ctx = field_from_size(q)
        assert ctx.square(0) == 0
        for a in range(1, q):
            assert ctx.square(a) == ctx.mul(a, a), a
            assert ctx.mul(a, ctx.inv(a)) == 1, a

    @pytest.mark.parametrize("p, m", [(2, 20), (3, 12)])
    def test_square_and_inverse_random_elements(self, p, m):
        ctx = field_make(p, m)
        rng = random.Random(p * 100 + m)
        for _ in range(300):
            a = rng.randrange(1, ctx.q)
            assert ctx.square(a) == ctx.mul(a, a), a
            assert ctx.mul(a, ctx.inv(a)) == 1, a


class TestPolynomials:
    def test_trim_and_degree(self):
        ctx = field_make(5)
        assert Polynomial(ctx, (1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial(ctx, ()).degree == float("-inf")

    def test_divmod_round_trip(self):
        ctx = field_make(7)
        f = Polynomial(ctx, (3, 1, 4, 1))
        g = Polynomial(ctx, (2, 5, 1))
        quo, rem = divmod(f, g)
        assert (quo * g + rem).coeffs == f.coeffs
        assert rem.degree < g.degree

    def test_gcd_is_monic(self):
        ctx = field_make(5)
        f = Polynomial(ctx, (4, 0, 1))  # (x-1)(x+1)
        g = Polynomial(ctx, (4, 1))  # x - 1... times 1
        h = poly_gcd(f, g)
        assert h.coeffs[-1] == 1
        assert f % h == Polynomial(ctx, ())

    @given(st.lists(st.integers(0, 6), max_size=5), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_horner_matches_power_sum(self, coeffs, x):
        ctx = field_make(7)
        f = Polynomial(ctx, tuple(coeffs))
        expected = 0
        for e, c in enumerate(f.coeffs):
            expected = ctx.add(expected, ctx.mul(c, ctx.pow(x, e)))
        assert f(x) == expected


def _leibniz_det(ctx, rows):
    """Sum over permutations of the signed products, sign by inversion count."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = 1
        for r, c in enumerate(perm):
            term = ctx.mul(term, rows[r][c])
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = ctx.sub(total, term) if odd else ctx.add(total, term)
    return total


class TestLinearAlgebra:
    @pytest.mark.parametrize("q", [2, 7, 16, 27, 1024])
    def test_det_matches_leibniz(self, q):
        ctx = field_from_size(q)
        rng = random.Random(q)
        singular = swapped = 0
        for size in range(1, 6):
            for trial in range(12):
                rows = [[rng.randrange(q) for _ in range(size)] for _ in range(size)]
                if size > 1 and trial % 3 == 1:  # last row a combination of the first two
                    scale = rng.randrange(q)
                    rows[-1] = [ctx.add(a, ctx.mul(scale, b)) for a, b in zip(rows[0], rows[min(1, size - 2)])]
                elif size > 1 and trial % 3 == 2:  # the first pivot comes from a lower row
                    rows[0][0], rows[-1][0] = 0, rng.randrange(1, q)
                expected = _leibniz_det(ctx, rows)
                assert det(Matrix.from_rows(ctx, rows)) == expected, rows
                singular += expected == 0
                swapped += rows[0][0] == 0 and any(r[0] for r in rows)
        assert singular >= 5 and swapped >= 5

    def test_det_examples(self):
        ctx = field_make(7)
        m = Matrix.from_rows(ctx, [[1, 2], [3, 4]])
        assert det(m) == (1 * 4 - 2 * 3) % 7
        singular = Matrix.from_rows(ctx, [[1, 2], [2, 4]])
        assert det(singular) == 0

    def test_det_multiplicative(self):
        ctx = field_make(5)
        a = Matrix.from_rows(ctx, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
        b = Matrix.from_rows(ctx, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
        assert det(a * b) == ctx.mul(det(a), det(b))

    def test_left_nullspace_annihilates(self):
        ctx = field_make(5)
        m = Matrix.from_rows(ctx, [[1, 2], [2, 4], [3, 1]])
        basis = nullspace(m)
        assert basis
        for vec in basis:
            row = Matrix.from_rows(ctx, [list(vec)])
            assert all(e == 0 for e in (row * m).entries)

    def test_nullspace_of_identity_is_trivial(self):
        ctx = field_make(3)
        m = Matrix.from_rows(ctx, [[1, 0], [0, 1]])
        assert nullspace(m) == []


class TestResidueRing:
    def test_unit_group_size_formula(self):
        assert unit_group_size(3, 2) == 2
        assert unit_group_size(5, 3) == 20
        with pytest.raises(DomainError):
            unit_group_size(3, 1)

    @pytest.mark.parametrize("r,alpha,delta", [(3, 0, 2), (5, 0, 3), (5, 2, 3)])
    def test_unit_count_matches_enumeration(self, r, alpha, delta):
        ctx = ResidueCtx.linear_power(field_make(r), alpha, delta)
        units = list(ctx.units())
        assert len(units) == unit_group_size(r, delta)
        codes = [u.code for u in units]
        assert codes == sorted(codes)

    def test_reduce_rejects_non_units(self):
        ctx = ResidueCtx.linear_power(field_make(3), 0, 2)
        with pytest.raises(NonUnitError):
            ctx.reduce(Polynomial(field_make(3), (0, 1)))  # x shares the factor x

    def test_unit_power_closes(self):
        ctx = ResidueCtx.linear_power(field_make(5), 0, 3)
        u = ctx.reduce(Polynomial(field_make(5), (4, 1)))  # x - 1
        order = unit_group_size(5, 3)
        assert (u**order).code == ctx.one().code

    def test_rejects_extension_fields(self):
        gf4 = field_make(2, 2)
        with pytest.raises(DomainError):
            ResidueCtx.linear_power(gf4, 1, 3)
        with pytest.raises(DomainError):
            ResidueCtx(gf4, Polynomial(gf4, (1, 1)))

    def test_rejects_non_monic_modulus(self):
        f5 = field_make(5)
        with pytest.raises(DomainError):
            ResidueCtx(f5, Polynomial(f5, (1, 0, 2)))


def _reference_product(rctx, a, b):
    """(A * B) % modulus by Polynomial arithmetic, padded to the degree."""
    rep = (Polynomial(rctx.field, a) * Polynomial(rctx.field, b)) % rctx.modulus
    return rep.coeffs + (0,) * (rctx.degree - len(rep.coeffs))


@st.composite
def ring_elements(draw):
    """A ring over a prime r <= 13 and two reduced representatives in it."""
    r = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    field = field_make(r)
    if draw(st.booleans()):
        rctx = ResidueCtx.linear_power(
            field, draw(st.integers(0, r - 1)), draw(st.integers(2, 5))
        )
    else:
        # The modulus of GF(r^m) is a monic irreducible of degree m.
        modulus = field_make(r, draw(st.integers(2, 4))).modulus
        rctx = ResidueCtx(field, Polynomial(field, modulus))
    element = st.tuples(*[st.integers(0, r - 1)] * rctx.degree)
    return rctx, draw(element), draw(element)


class TestUnitArithmetic:
    @given(ring_elements())
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_polynomial_reference(self, case):
        rctx, a, b = case
        product = UnitResidue(rctx, a) * UnitResidue(rctx, b)
        assert product.coeffs == _reference_product(rctx, a, b)

    @given(ring_elements(), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_pow_matches_repeated_reference(self, case, e):
        rctx, a, _ = case
        one = _reference_product(rctx, (1,), (1,))
        assert rctx.one().coeffs == one
        expected = one
        for _ in range(e):
            expected = _reference_product(rctx, expected, a)
        assert (UnitResidue(rctx, a) ** e).coeffs == expected

    @pytest.mark.parametrize("e, multiplies", [(0, 0), (1, 0), (2, 1), (8, 3), (13, 5), (255, 14)])
    def test_pow_multiply_count(self, monkeypatch, e, multiplies):
        # Square-and-multiply from the lowest set bit to the top bit:
        # popcount(e) - 1 products plus bit_length(e) - 1 squarings.
        rctx = ResidueCtx.linear_power(field_make(7), 2, 4)
        x = UnitResidue(rctx, (3, 1, 0))
        expected = (x ** e).coeffs
        calls = []
        mul = UnitResidue.__mul__
        monkeypatch.setattr(UnitResidue, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert (x ** e).coeffs == expected
        assert len(calls) == multiplies

    def test_mul_accepts_equal_rings(self):
        f5 = field_make(5)
        first = ResidueCtx.linear_power(f5, 0, 3)
        second = ResidueCtx.linear_power(f5, 0, 3)
        assert first is not second
        product = UnitResidue(first, (2, 1)) * UnitResidue(second, (3, 4))
        assert product.coeffs == _reference_product(first, (2, 1), (3, 4))

    def test_mul_rejects_other_rings(self):
        f5 = field_make(5)
        u = ResidueCtx.linear_power(f5, 0, 3).one()
        v = ResidueCtx.linear_power(f5, 1, 3).one()
        with pytest.raises(ContextMismatch):
            u * v


# GF(p^m) for p in {2, 3, 5, 7} and m <= 10, as far as the field size cap
# lets ``field_make`` build them; monic moduli of any degree up to 10 fill
# in the rest.
FIELD_DEGREES = [(p, m) for p in (2, 3, 5, 7) for m in range(2, 11) if p**m <= SIZE_CAP]


@st.composite
def fold_cases(draw):
    """A prime p, a monic modulus over GF(p) (low-first) and two reduced
    vectors of its degree. The moduli: those of ``field_make``'s GF(p^m),
    which also serve as construct-l1's irreducible moduli; linear powers
    (x - alpha)^(delta-1), delta = 2..7; and arbitrary monic ones."""
    kind = draw(st.sampled_from(["field", "linear", "monic"]))
    if kind == "field":
        p, m = draw(st.sampled_from(FIELD_DEGREES))
        modulus = field_make(p, m).modulus
    elif kind == "linear":
        p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        alpha, delta = draw(st.integers(0, p - 1)), draw(st.integers(2, 7))
        modulus = ResidueCtx.linear_power(field_make(p), alpha, delta).modulus.coeffs
    else:
        p = draw(st.sampled_from([2, 3, 5, 7]))
        modulus = tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10))) + (1,)
    vector = st.lists(st.integers(0, p - 1), min_size=len(modulus) - 1, max_size=len(modulus) - 1)
    return p, modulus, draw(vector), draw(vector)


class TestMulFold:
    @given(fold_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_polynomial_product_and_remainder(self, case):
        p, modulus, a, b = case
        field, m = field_make(p), len(modulus) - 1
        rep = (Polynomial(field, a) * Polynomial(field, b)) % Polynomial(field, modulus)
        expected = list(rep.coeffs) + [0] * (m - len(rep.coeffs))
        assert _mul_fold(a, b, _fold_pairs(modulus, p), m, p) == expected

    @pytest.mark.parametrize("r, alpha", [(3, 0), (5, 0), (7, 2), (11, 0), (13, 5)])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_square_matches_product_on_residue_rings(self, r, alpha, delta):
        # The rings of construct-l1: F_r[x] modulo (x - alpha)^(delta-1).
        modulus = ResidueCtx.linear_power(field_make(r), alpha, delta).modulus.coeffs
        fold, d = _fold_pairs(modulus, r), delta - 1
        rng = random.Random(r * 100 + delta)
        for _ in range(200):
            v = [rng.randrange(r) for _ in range(d)]
            assert _square_fold(v, fold, d, r) == _mul_fold(v, v, fold, d, r), v

    def test_fold_pairs_skip_zero_terms(self):
        # x^4 + 2x + 3 over GF(5): x^4 = 3x + 2.
        assert _fold_pairs((3, 2, 0, 0, 1), 5) == ((0, 2), (1, 3))
        assert _fold_pairs((0, 0, 1), 7) == ()
