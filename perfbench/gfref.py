"""Reference finite-field arithmetic and dimension-2 RS criterion.

Used by the benchmark to draw evaluation vectors and to check the
program's algebra outputs. It shares no code with ``insdel.gf`` or
``insdel.rs``: fields use exp/log tables, and the criterion compares the
affine-invariant ratio (t2 - t0) / (t1 - t0) of index triples instead of
building affine maps. Only the element encoding is shared, because it is
the program's documented output format: a code read in base p gives the
coefficient vector, lowest degree first, modulo the smallest monic
irreducible of degree m (ordered by that same code).
"""

from __future__ import annotations

import itertools


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            m, t = 0, q
            while t % p == 0:
                t //= p
                m += 1
            if t != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _digits(code: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return out


def _undigits(digits, p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _polymod(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a by the monic polynomial mod, coefficients low-first."""
    a = a[:]
    dm = len(mod) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] % p
        if c:
            for k in range(dm + 1):
                a[top - dm + k] = (a[top - dm + k] - c * mod[k]) % p
    return [x % p for x in a[:dm]] + [0] * max(0, dm - len(a))


def _irreducible(poly: list[int], p: int) -> bool:
    m = len(poly) - 1
    for deg in range(1, m // 2 + 1):
        for low in range(p**deg):
            if not any(_polymod(poly, _digits(low, p, deg) + [1], p)):
                return False
    return True


class RefField:
    """GF(q) with element codes in [0, q-1]."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.m = _prime_power(q)
        p, m = self.p, self.m
        if m == 1:
            self.modulus = None
            self.exp = self.log = None
            return
        self.modulus = next(
            poly
            for poly in (_digits(c, p, m) + [1] for c in range(p**m))
            if _irreducible(poly, p)
        )
        for g in range(2, q):
            exp = [1]
            x = 1
            for _ in range(q - 2):
                x = self._slow_mul(x, g)
                if x == 1:
                    break
                exp.append(x)
            if len(exp) == q - 1:
                break
        self.exp = exp + exp
        self.log = {v: i for i, v in enumerate(exp)}

    def _slow_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = _digits(a, p, m), _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        return _undigits(_polymod(prod, self.modulus, p), p)

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, m = self.p, self.m
        return _undigits(
            [(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p
        )

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        p, m = self.p, self.m
        return _undigits([-x % p for x in _digits(a, p, m)], p)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def horner(self, coeffs, x: int) -> int:
        """Value at x of the polynomial with low-first coefficients."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc


def rs2_first_collision(field: RefField, alphas):
    """First ordered pair of index triples, in the program's scan order,
    whose points are affine images of each other; None if there is none.

    Triples i and j (increasing indices, differing in at least two
    slots) are affinely related iff their ratios (t2 - t0) / (t1 - t0)
    agree. Returns (i, j, a, b) with a * alpha_j[k] + b == alpha_i[k].
    """
    triples = list(itertools.combinations(range(len(alphas)), 3))
    ratio = {}
    for t in triples:
        x0, x1, x2 = (alphas[s] for s in t)
        ratio[t] = field.div(field.sub(x2, x0), field.sub(x1, x0))
    for i in triples:
        for j in triples:
            if sum(x != y for x, y in zip(i, j)) >= 2 and ratio[i] == ratio[j]:
                ai0, ai1 = alphas[i[0]], alphas[i[1]]
                aj0, aj1 = alphas[j[0]], alphas[j[1]]
                a = field.div(field.sub(ai0, ai1), field.sub(aj0, aj1))
                b = field.sub(ai0, field.mul(aj0, a))
                return i, j, a, b
    return None
