"""Words over a finite alphabet, compositions, and the three metrics.

Symbols are 0-based: a word over alphabet size q has symbols in [0, q-1].
A composition is a tuple of q nonnegative counts; its weight is the sum.
The sorted-word map ``psi`` and the count map ``phi`` connect the two views,
and the L1 distance on compositions equals the insdel distance of the
corresponding sorted words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    AlphabetMismatch,
    DomainError,
    LengthMismatch,
    UndefinedDistance,
)

INSDEL = "INSDEL"
CWL1 = "CWL1"
HAMMING = "HAMMING"
L1 = "L1"


@dataclass(frozen=True, order=True)
class Word:
    """An immutable word over the alphabet {0, ..., q-1}.

    Length zero is allowed; intermediate computations use short words even
    though codes require uniform length.
    """

    q: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise DomainError(f"alphabet size must be >= 2, got {self.q}")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if not 0 <= s < self.q:
                raise DomainError(f"symbol {s} out of range [0, {self.q - 1}]")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def n(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, order=True)
class Composition:
    """A point of the Johnson space: q nonnegative counts with a fixed sum."""

    q: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError(f"bin count must be >= 1, got {self.q}")
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.q:
            raise DomainError(
                f"expected {self.q} bins, got {len(self.counts)}"
            )
        for c in self.counts:
            if c < 0:
                raise DomainError(f"negative count {c}")

    @property
    def weight(self) -> int:
        return sum(self.counts)


def _check_alphabet(u: Word, v: Word) -> None:
    if u.q != v.q:
        raise AlphabetMismatch(f"alphabet sizes differ: {u.q} vs {v.q}")


def lcs_length(u: Word, v: Word) -> int:
    """Length of a longest common subsequence."""
    _check_alphabet(u, v)
    return lcs_length_raw(u.symbols, v.symbols)


def lcs_length_raw(a, b) -> int:
    """LCS length of two plain sequences (no validation, hot path).

    Bit-parallel form of the two-row dynamic program (Allison & Dix 1986;
    Hyyro 2004, "Bit-parallel LCS-length computation revisited"). Bit j of
    the big int ``v`` is 0 exactly where the DP row steps up between
    columns j and j+1 of the shorter word, so one add/and/or step per
    symbol of the longer word advances the whole row and the LCS length is
    the number of 0 bits among the low len(b) bits. Carries only move
    upwards, so bits above len(b) never disturb the low ones and are
    masked off once at the end.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict = {}
    bit = 1
    for y in b:
        masks[y] = masks.get(y, 0) | bit
        bit <<= 1
    v = bit - 1
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = (v + u) | (v - u)
    return len(b) - (v & (bit - 1)).bit_count()


def insdel_distance(u: Word, v: Word) -> int:
    """Minimum number of single-symbol insertions plus deletions."""
    _check_alphabet(u, v)
    return len(u) + len(v) - 2 * lcs_length_raw(u.symbols, v.symbols)


def insdel_distance_raw(a, b) -> int:
    return len(a) + len(b) - 2 * lcs_length_raw(a, b)


def hamming_distance(u: Word, v: Word) -> int:
    _check_alphabet(u, v)
    if len(u) != len(v):
        raise LengthMismatch(f"lengths differ: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u.symbols, v.symbols) if a != b)


def l1_distance(a: Composition, b: Composition) -> int:
    if a.q != b.q:
        raise AlphabetMismatch(f"bin counts differ: {a.q} vs {b.q}")
    return l1_distance_raw(a.counts, b.counts)


def l1_distance_raw(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def phi(u: Word) -> Composition:
    """Symbol-count profile of a word."""
    counts = [0] * u.q
    for s in u.symbols:
        counts[s] += 1
    return Composition(u.q, tuple(counts))


def psi(a: Composition) -> Word:
    """The sorted word with counts[s] copies of each symbol s."""
    symbols = []
    for s, c in enumerate(a.counts):
        symbols.extend([s] * c)
    return Word(a.q, tuple(symbols))


@dataclass(frozen=True)
class Code:
    """A set of distinct equal-length words (INSDEL) or equal-weight
    compositions (CWL1)."""

    q: int
    n: int
    members: tuple = field(default_factory=tuple)
    kind: str = INSDEL

    def __post_init__(self) -> None:
        if self.kind not in (INSDEL, CWL1):
            raise DomainError(f"unknown code kind {self.kind!r}")
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(set(members)) != len(members):
            raise DomainError("code members must be distinct")
        for m in members:
            if self.kind == INSDEL:
                if not isinstance(m, Word) or m.q != self.q or len(m) != self.n:
                    raise DomainError(f"bad member {m!r} for INSDEL({self.q},{self.n})")
            else:
                if not isinstance(m, Composition) or m.q != self.q or m.weight != self.n:
                    raise DomainError(f"bad member {m!r} for CWL1({self.q},{self.n})")

    def __len__(self) -> int:
        return len(self.members)


_PAIR_METRICS = {
    INSDEL: insdel_distance,
    HAMMING: hamming_distance,
    L1: l1_distance,
}


def code_min_distance(code: Code, metric: str):
    """Exact minimum pairwise distance with one witnessing pair.

    Pairs are swept in lexicographic member order so the reported witness
    is reproducible.
    """
    if metric not in _PAIR_METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    if metric == L1 and code.kind != CWL1:
        raise DomainError("L1 metric requires a CWL1 code")
    if metric in (INSDEL, HAMMING) and code.kind != INSDEL:
        raise DomainError(f"{metric} metric requires an INSDEL code")
    if len(code) < 2:
        raise UndefinedDistance("minimum distance needs at least two members")
    dist = _PAIR_METRICS[metric]
    best = None
    witness = None
    for u, v in itertools.combinations(sorted(code.members), 2):
        d = dist(u, v)
        if best is None or d < best:
            best, witness = d, (u, v)
    return best, witness


def all_words(q: int, n: int):
    """All words of length n over alphabet size q, lexicographic order."""
    for symbols in itertools.product(range(q), repeat=n):
        yield Word(q, symbols)


def compositions_colex(n: int, q: int):
    """All compositions of n into q bins, colexicographic order.

    Colex compares the reversed count tuples; enumeration is iterative and
    allocation-free per step.
    """
    for c in _compositions_colex_raw(n, q):
        yield Composition(q, c)


def _compositions_colex_raw(n: int, q: int):
    if q == 1:
        yield (n,)
        return
    for last in range(n + 1):
        for rest in _compositions_colex_raw(n - last, q - 1):
            yield rest + (last,)
