"""Finite fields GF(p^m), polynomials, dense linear algebra, and unit
groups of residue rings.

Field elements are canonical integer codes in [0, q-1]: the code read in
base p gives the coefficient vector of the element, lowest degree first.
The total order on codes drives every deterministic greedy choice in the
construction modules.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import ContextMismatch, DomainError, NonUnitError, ScaleCapExceeded
from .value import Value, _set

SIZE_CAP = 2**20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


class FieldCtx:
    """Arithmetic context for GF(p^m).

    Elements are plain ints in [0, q-1]. For m > 1 the modulus is the
    lexicographically smallest monic irreducible of degree m over GF(p)
    (coefficient tuples low-to-high, compared as base-p integers), so the
    encoding is reproducible across runs.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # monic, length m+1, low-first; () when m == 1
        self._fold = _fold_pairs(modulus, p)
        self._squares = _frobenius_table(modulus) if p == 2 and m > 1 else ()

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    # -- encoding ----------------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        """Base-p coefficient vector (length m, low-first) of a code."""
        v = []
        for _ in range(self.m):
            v.append(code % self.p)
            code //= self.p
        return tuple(v)

    def encode(self, coeffs) -> int:
        """Code of a coefficient list or tuple (length <= m, low-first)."""
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return code

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise DomainError(f"element code {a} out of range for {self}")
        return a

    # -- arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:  # digit-wise sum mod 2
            return a ^ b
        return self.encode([(x + y) % self.p for x, y in zip(self.decode(a), self.decode(b))])

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:  # -1 = 1 mod 2
            return a ^ b
        return self.encode([(x - y) % self.p for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        p = self.p
        code = 0
        for c in reversed(_mul_fold(self.decode(a), self.decode(b), self._fold, self.m, p)):
            code = code * p + c
        return code

    def square(self, a: int) -> int:
        if self.m == 1:
            return a * a % self.p
        if self.p == 2:  # squaring is additive: XOR the squares of a's set bits
            squares = self._squares
            code = 0
            while a:
                low = a & -a
                code ^= squares[low.bit_length() - 1]
                a ^= low
            return code
        p = self.p
        code = 0
        for c in reversed(_square_fold(self.decode(a), self._fold, self.m, p)):
            code = code * p + c
        return code

    def inv(self, a: int) -> int:
        """The inverse a^(q-2) of a nonzero a. Over GF(p^m), m > 1 and p
        odd, the power by square-and-multiply. Over GF(2^m), m > 1, the
        Itoh-Tsujii chain on b_k = a^(2^k - 1): from b_1 = a, each bit of
        m - 1 below the top doubles k, b_2k = b_k^(2^k) b_k, and a set bit
        then adds one, b_(k+1) = b_k^2 a; a^(q-2) = b_(m-1)^2. That is
        floor(log2(m-1)) + popcount(m-1) - 1 multiplies and m - 1 squares,
        where the power takes m - 2 multiplies and the same squares."""
        if a == 0:
            raise DomainError("zero has no inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.p > 2:
            return self.pow(a, self.q - 2)
        mul, square = self.mul, self.square
        top = self.m - 1
        beta = a
        for shift in range(top.bit_length() - 2, -1, -1):
            x = beta
            for _ in range(top >> shift + 1):  # k, the chain's index so far
                x = square(x)
            beta = mul(x, beta)
            if top >> shift & 1:
                beta = mul(square(beta), a)
        return square(beta)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return 1
        return _square_multiply(a, e, self.mul, self.square)

    def elements(self):
        return range(self.q)


def _square_multiply(x, e: int, mul, square):
    """x^e for e >= 1 under the product ``mul``, whose square of x is
    ``square(x)``. Squares up to the lowest set bit, starts there, and
    stops squaring at the top bit: popcount(e) - 1 multiplies and
    bit_length(e) - 1 squares."""
    while not e & 1:
        x = square(x)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = square(x)
        if e & 1:
            result = mul(result, x)
        e >>= 1
    return result


def _fold_pairs(modulus, p: int) -> tuple[tuple[int, int], ...]:
    """The (i, -c_i mod p) pairs of a monic degree-m modulus's nonzero lower
    terms c_i (low-first), x^m = sum of -c_i x^i, that ``_mul_fold`` uses."""
    return tuple([(i, -c % p) for i, c in enumerate(modulus[:-1]) if c])


def _mul_fold(a, b, fold, m: int, p: int) -> list[int]:
    """a * b modulo a monic degree-m modulus over GF(p), given by its
    ``_fold_pairs``: the schoolbook product of two low-first length-m
    vectors; each term of degree >= m, highest first, is taken mod p and
    folded down, and each kept coefficient is taken mod p once at the end."""
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    for shift in range(m - 2, -1, -1):
        lead = prod[shift + m] % p
        if lead:
            for i, c in fold:
                prod[shift + i] += lead * c
    return [c % p for c in prod[:m]]


def _square_fold(a, fold, m: int, p: int) -> list[int]:
    """``_mul_fold(a, a, fold, m, p)`` from the upper triangle of the
    product: each cross term a_i a_j, i < j, is formed once and doubled,
    then folded down the same way."""
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            j = i + i
            prod[j] += x * x
            x += x
            for y in a[i + 1 :]:
                j += 1
                prod[j] += x * y
    for shift in range(m - 2, -1, -1):
        lead = prod[shift + m] % p
        if lead:
            for i, c in fold:
                prod[shift + i] += lead * c
    return [c % p for c in prod[:m]]


def _frobenius_table(modulus) -> tuple[int, ...]:
    """Codes of x^(2i) mod f, i < m, for a monic binary modulus f of
    degree m (low-first). Over GF(2) the square of a sum is the sum of
    the squares, so a code's square is the XOR of the entries at its set
    bits. Each entry is the last times x^2: two shifts, each clearing bit
    m against f."""
    m = len(modulus) - 1
    f = 0
    for c in reversed(modulus):
        f = f << 1 | c
    table = []
    t = 1
    for _ in range(m):
        table.append(t)
        for _ in range(2):
            t <<= 1
            if t >> m & 1:
                t ^= f
    return tuple(table)


def _poly_mod_modp(a, mod, p):
    """Remainder of a by a monic modulus, coefficients mod p, low-first."""
    a = list(a)
    dm = len(mod) - 1
    while len(a) >= len(mod):
        lead = a[-1]
        if lead:
            shift = len(a) - len(mod)
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    a += [0] * (dm - len(a))
    return a[:dm]


def _is_irreducible_modp(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    for d in range(2, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            divisor = list(lower) + [1]
            if not any(_poly_mod_modp(coeffs, divisor, p)):
                return False
    return True


@lru_cache(maxsize=None)
def field_make(p: int, m: int = 1) -> FieldCtx:
    """Build GF(p^m) with a deterministically chosen modulus."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m < 1:
        raise DomainError(f"extension degree must be >= 1, got {m}")
    if p**m > SIZE_CAP:
        raise ScaleCapExceeded(f"field size {p}^{m} exceeds cap {SIZE_CAP}")
    if m == 1:
        return FieldCtx(p, 1, ())
    for code in range(p**m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible_modp(candidate, p):
            return FieldCtx(p, m, candidate)
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable


def field_from_size(q: int) -> FieldCtx:
    """GF(q) for a prime power q, factoring q as p^m."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    if q > SIZE_CAP:
        raise ScaleCapExceeded(f"field size {q} exceeds cap {SIZE_CAP}")
    if is_prime(q):
        return field_make(q)
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            t = q
            while t % p == 0:
                t //= p
                m += 1
            if t != 1:
                raise DomainError(f"{q} is not a prime power")
            return field_make(p, m)
        p += 1
    raise DomainError(f"{q} is not a prime power")  # unreachable for q >= 2


NEG_INF = float("-inf")


class Polynomial(Value):
    """Dense polynomial over one field context, low-degree-first coefficients,
    trailing zeros trimmed."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            ctx.check(c)
        _set(self, "ctx", ctx)
        _set(self, "coeffs", coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def _same_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("polynomials from different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_ctx(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Polynomial(self.ctx, tuple([self.ctx.add(x, y) for x, y in zip(a, b)]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._same_ctx(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Polynomial(self.ctx, tuple([self.ctx.sub(x, y) for x, y in zip(a, b)]))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_ctx(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.ctx, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        ctx = self.ctx
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
        return Polynomial(ctx, tuple(out))

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.ctx, tuple([self.ctx.mul(c, x) for x in self.coeffs]))

    def __divmod__(self, other: "Polynomial"):
        self._same_ctx(other)
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        ctx = self.ctx
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        inv_lead = ctx.inv(other.coeffs[-1])
        while len(rem) >= len(other.coeffs) and any(rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - len(other.coeffs)
            factor = ctx.mul(rem[-1], inv_lead)
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(factor, c))
            rem.pop()
        return Polynomial(ctx, tuple(quo)), Polynomial(ctx, tuple(rem))

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        acc = 0
        ctx = self.ctx
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.scale(a.ctx.inv(a.coeffs[-1]))


class Matrix(Value):
    """Dense row-major matrix over one field context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, entries: tuple[int, ...]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DomainError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            ctx.check(e)
        _set(self, "ctx", ctx)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(ctx, len(rows), ncols, tuple([e for r in rows for e in r]))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices from different fields")
        if self.cols != other.rows:
            raise DomainError("dimension mismatch in matrix product")
        ctx = self.ctx
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            out_row = []
            for j in range(other.cols):
                acc = 0
                for t in range(self.cols):
                    acc = ctx.add(acc, ctx.mul(ri[t], other.entries[t * other.cols + j]))
                out_row.append(acc)
            out.append(out_row)
        return Matrix.from_rows(ctx, out)


def det(m: Matrix) -> int:
    """Determinant: the signed pivot product of ``_rref``, or 0 when a
    column has no pivot; exact over the field."""
    if m.rows != m.cols:
        raise DomainError("determinant of a non-square matrix")
    pivots, product = _rref(m.to_rows(), m.ctx)
    return product if len(pivots) == m.rows else 0


def _rref(rows, ctx):
    """In-place reduced row echelon form. Returns the pivot columns and
    the product of the pivots, negated once per row swap. For a square
    matrix with a pivot in every column that is the determinant: scaling
    a pivot row to 1 divides the determinant by that pivot, and clearing
    the rest of its column leaves it unchanged."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    product = 1
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            product = ctx.neg(product)
        product = ctx.mul(product, rows[r][col])
        pinv = ctx.inv(rows[r][col])
        rows[r] = [ctx.mul(pinv, e) for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [
                    ctx.sub(e, ctx.mul(f, pe)) for e, pe in zip(rows[i], rows[r])
                ]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots, product


def nullspace(m: Matrix) -> list[tuple[int, ...]]:
    """Basis of the left nullspace {x : xM = 0}, reduced echelon form.

    Pivots are chosen deterministically (leftmost nonzero column, first
    qualifying row), so the basis is reproducible.
    """
    ctx = m.ctx
    # xM = 0  <=>  M^T x^T = 0: solve the right nullspace of the
    # transpose, whose row c is column c of M.
    t = [list(m.entries[c :: m.cols]) for c in range(m.cols)]
    pivots, _ = _rref(t, ctx)
    basis = []
    for fc in range(m.rows):
        if fc not in pivots:
            vec = [0] * m.rows
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = ctx.neg(t[r][fc])
            basis.append(tuple(vec))
    return basis


def unit_group_size(r: int, delta: int) -> int:
    """Order of the unit group of F_r[x] modulo a degree-(delta-1) power of
    a linear factor."""
    if delta < 2:
        raise DomainError(f"delta must be >= 2, got {delta}")
    return r ** (delta - 2) * (r - 1)


class ResidueCtx(Value):
    """Residue ring F_p[x]/(modulus) over a prime field, monic modulus, with
    a canonical integer encoding of representatives (base-p coefficient
    vector, low degree first)."""

    __slots__ = ("field", "modulus")

    def __init__(self, field: FieldCtx, modulus: Polynomial):
        if modulus.ctx != field:
            raise ContextMismatch("modulus from a different field")
        if field.m != 1 or modulus.coeffs[-1:] != (1,):
            raise DomainError("residue rings need a prime field and a monic modulus")
        if modulus.degree < 1:
            raise DomainError("modulus must have degree >= 1")
        _set(self, "field", field)
        _set(self, "modulus", modulus)

    @classmethod
    def linear_power(cls, field: FieldCtx, alpha: int, delta: int) -> "ResidueCtx":
        """Ring modulo (x - alpha)^(delta-1)."""
        if delta < 2:
            raise DomainError(f"delta must be >= 2, got {delta}")
        field.check(alpha)
        lin = Polynomial(field, (field.neg(alpha), 1))
        mod = Polynomial(field, (1,))
        for _ in range(delta - 1):
            mod = mod * lin
        return cls(field, mod)

    @property
    def degree(self) -> int:
        return int(self.modulus.degree)

    def encode(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.field.q + c
        return code

    def reduce(self, g: Polynomial) -> "UnitResidue":
        """Canonical unit representative of g; rejects non-units."""
        if g.ctx != self.field:
            raise ContextMismatch("polynomial from a different field")
        rep = g % self.modulus
        if not poly_gcd(rep, self.modulus).coeffs == (1,):
            raise NonUnitError(f"{g.coeffs} shares a factor with the modulus")
        coeffs = rep.coeffs + (0,) * (self.degree - len(rep.coeffs))
        return UnitResidue(self, coeffs)

    def one(self) -> "UnitResidue":
        return UnitResidue(self, (1,) + (0,) * (self.degree - 1))

    def units(self):
        """All units, ascending canonical code. Exhaustive; desk scale only."""
        for digits in itertools.product(range(self.field.q), repeat=self.degree):
            coeffs = digits[::-1]
            if poly_gcd(Polynomial(self.field, coeffs), self.modulus).coeffs == (1,):
                yield UnitResidue(self, coeffs)


class UnitResidue(Value):
    """A unit of a residue ring, stored as its reduced representative."""

    __slots__ = ("rctx", "coeffs")

    def __init__(self, rctx: ResidueCtx, coeffs: tuple[int, ...]):
        _set(self, "rctx", rctx)
        _set(self, "coeffs", coeffs)  # fixed length = modulus degree, low-first

    @property
    def code(self) -> int:
        return self.rctx.encode(self.coeffs)

    def __mul__(self, other: "UnitResidue") -> "UnitResidue":
        rctx = self.rctx
        if rctx is not other.rctx and rctx != other.rctx:
            raise ContextMismatch("residues from different rings")
        p, mod = rctx.field.p, rctx.modulus.coeffs
        prod = _mul_fold(self.coeffs, other.coeffs, _fold_pairs(mod, p), len(mod) - 1, p)
        return UnitResidue(rctx, tuple(prod))

    def __pow__(self, e: int) -> "UnitResidue":
        if e < 0:
            raise DomainError("negative powers not needed; invert explicitly")
        if e == 0:
            return self.rctx.one()
        return _square_multiply(self, e, UnitResidue.__mul__, lambda u: u * u)
