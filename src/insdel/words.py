"""Words over a finite alphabet, compositions, and the three metrics.

Symbols are 0-based: a word over alphabet size q has symbols in [0, q-1].
A composition is a tuple of q nonnegative counts; its weight is the sum.
The sorted-word map ``psi`` and the count map ``phi`` connect the two views,
and the L1 distance on compositions equals the insdel distance of the
corresponding sorted words.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from operator import ne

from .errors import (
    AlphabetMismatch,
    DomainError,
    LengthMismatch,
    UndefinedDistance,
)
from .value import Value, _set

INSDEL = "INSDEL"
CWL1 = "CWL1"
HAMMING = "HAMMING"
L1 = "L1"


@functools.total_ordering
class Word(Value):
    """An immutable word over the alphabet {0, ..., q-1}.

    Length zero is allowed; intermediate computations use short words even
    though codes require uniform length.
    """

    __slots__ = ("q", "symbols")

    def __init__(self, q: int, symbols: tuple[int, ...]):
        if q < 2:
            raise DomainError(f"alphabet size must be >= 2, got {q}")
        symbols = tuple(symbols)
        for s in symbols:
            if not 0 <= s < q:
                raise DomainError(f"symbol {s} out of range [0, {q - 1}]")
        _set(self, "q", q)
        _set(self, "symbols", symbols)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.q, self.symbols) == (other.q, other.symbols)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.symbols))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.q, self.symbols) < (other.q, other.symbols)
        return NotImplemented

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def n(self) -> int:
        return len(self.symbols)


@functools.total_ordering
class Composition(Value):
    """A point of the Johnson space: q nonnegative counts with a fixed sum."""

    __slots__ = ("q", "counts")

    def __init__(self, q: int, counts: tuple[int, ...]):
        if q < 1:
            raise DomainError(f"bin count must be >= 1, got {q}")
        counts = tuple(counts)
        if len(counts) != q:
            raise DomainError(f"expected {q} bins, got {len(counts)}")
        for c in counts:
            if c < 0:
                raise DomainError(f"negative count {c}")
        _set(self, "q", q)
        _set(self, "counts", counts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.q, self.counts) == (other.q, other.counts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.counts))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.q, self.counts) < (other.q, other.counts)
        return NotImplemented

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

    The shorter one is masked (``match_masks``), so the bit-parallel state
    of ``lcs_length_masked`` has min(len(a), len(b)) bits. The longer one
    may hold symbols the shorter lacks; their masks read 0.
    """
    if len(a) < len(b):
        a, b = b, a
    return lcs_length_masked(a, match_masks(b), len(b))


def match_masks(b) -> defaultdict:
    """Symbol -> bit set of its positions in ``b`` (bit j for b[j]).

    A symbol that ``b`` lacks reads 0 (the mapping is a
    ``defaultdict(int)``), so the masks cover every symbol a word stepped
    against them can hold, as ``lcs_length_masked`` needs.
    """
    masks = defaultdict(int)
    bit = 1
    for y in b:
        masks[y] |= bit
        bit <<= 1
    return masks


def lcs_length_masked(a, masks, nb: int) -> int:
    """LCS length of ``a`` and a word b of length ``nb`` given by its
    match masks, for any lengths of the two.

    ``masks[x]`` is the bit set of the positions of x in b, for every
    symbol x of ``a``: ``match_masks(b)``, or a list over the alphabet
    that holds 0 for the symbols b lacks.

    Bit-parallel form of the two-row dynamic program (Allison & Dix 1986;
    Hyyro 2004, "Bit-parallel LCS-length computation revisited"). Bit j of
    the big int ``v`` is 0 exactly where the DP row steps up between
    columns j and j+1 of b, so one add/and/or step per symbol of ``a``
    advances the whole row and the LCS length is the number of 0 bits
    among the low nb bits. The step has no branch: a symbol b lacks has
    mask 0, so u = 0 and (v + 0) | (v - 0) = v leaves the row as it was,
    which is what the DP does for a symbol that matches nowhere. Carries
    only move upwards, so bits above nb never disturb the low ones and
    are masked off once at the end.
    """
    low = v = (1 << nb) - 1
    for x in a:
        u = v & masks[x]
        v = (v + u) | (v - u)
    return nb - (v & low).bit_count()


def insdel_distance(u: Word, v: Word) -> int:
    """Minimum number of single-symbol insertions plus deletions."""
    _check_alphabet(u, v)
    return len(u) + len(v) - 2 * lcs_length_raw(u.symbols, v.symbols)


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


class Code(Value):
    """A set of distinct equal-length words (INSDEL) or equal-weight
    compositions (CWL1)."""

    __slots__ = ("q", "n", "members", "kind")

    def __init__(self, q: int, n: int, members: tuple = (), kind: str = INSDEL):
        if kind not in (INSDEL, CWL1):
            raise DomainError(f"unknown code kind {kind!r}")
        # Checked apart from the members, which an empty code lacks.
        least_q = 2 if kind == INSDEL else 1
        if q < least_q:
            raise DomainError(f"{kind} code needs q >= {least_q}, got q={q}")
        if n < 0:
            raise DomainError(f"{kind} code needs n >= 0, got n={n}")
        members = tuple(members)
        if len(set(members)) != len(members):
            raise DomainError("code members must be distinct")
        for m in members:
            if kind == INSDEL:
                if not isinstance(m, Word) or m.q != q or len(m) != n:
                    raise DomainError(f"bad member {m!r} for INSDEL({q},{n})")
            else:
                if not isinstance(m, Composition) or m.q != q or m.weight != n:
                    raise DomainError(f"bad member {m!r} for CWL1({q},{n})")
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "members", members)
        _set(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.members)


def code_min_distance(code: Code, metric: str):
    """Exact minimum pairwise distance with one witnessing pair.

    Members are sorted, and the witness is the first pair (i < j in
    member order) reaching the minimum, so it is reproducible. INSDEL
    codes go through ``closest_pair``, the packed LCS kernel, and L1
    through ``_closest_l1``; each metric yields (d, i, j).
    """
    if metric not in (INSDEL, HAMMING, L1):
        raise DomainError(f"unknown metric {metric!r}")
    if metric == L1 and code.kind != CWL1:
        raise DomainError("L1 metric requires a CWL1 code")
    if metric in (INSDEL, HAMMING) and code.kind != INSDEL:
        raise DomainError(f"{metric} metric requires an INSDEL code")
    if len(code) < 2:
        raise UndefinedDistance("minimum distance needs at least two members")
    members = sorted(code.members)
    if metric == INSDEL:
        low, i, j = closest_pair([m.symbols for m in members], code.n, range(len(members) - 1))
        d = 2 * low
    elif metric == L1:
        d, i, j = _closest_l1([m.counts for m in members])
    else:
        pairs = itertools.combinations(enumerate([m.symbols for m in members]), 2)
        d, i, j = min((sum(map(ne, a, b)), i, j) for (i, a), (j, b) in pairs)
    return d, (members[i], members[j])


def _closest_l1(counts):
    """Least L1 distance over pairs of sorted equal-weight count tuples,
    as (d, i, j) for the first pair (i < j) reaching it.

    Sorting puts the first counts in ascending order. Two compositions of
    one weight move as many units out of bins as into them, so their L1
    distance is at least 2 * (b[0] - a[0]). Once that bound reaches the
    best distance so far, no later partner of a can beat it, nor tie it
    first, and the row stops: the result is the full sweep's.
    """
    best = None
    for i, a in enumerate(counts):
        a0 = a[0]
        for j in range(i + 1, len(counts)):
            b = counts[j]
            if best is not None and 2 * (b[0] - a0) >= best[0]:
                break
            d = l1_distance_raw(a, b)
            if best is None or d < best[0]:
                best = (d, i, j)
    return best


# Popcount of every byte value, for bytes.translate.
_POPCOUNT = bytes(bin(b).count("1") for b in range(256))

# Match-mask bytes allowed to one block of packed words (see closest_pair).
_BLOCK_BYTES = 1 << 22


class PackedWords:
    """Words of one length n packed for the bit-parallel LCS kernel.

    Word j of m owns lane m-1-j of a big int: n // 8 + 1 bytes, whose n
    low bits stand for its symbol positions and whose bits above them are
    guards that take the carry out of the lane. The match mask of each
    symbol over all lanes is built here, once.
    """

    def __init__(self, words, n: int):
        self.n = n
        self.count = len(words)
        lane = self._lane = n // 8 + 1
        buffers: dict = {}
        for j, w in enumerate(words):
            base = (self.count - 1 - j) * lane
            for pos, y in enumerate(w):
                buf = buffers.get(y)
                if buf is None:
                    buf = buffers[y] = bytearray(self.count * lane)
                buf[base + (pos >> 3)] |= 1 << (pos & 7)
        self._masks = {y: int.from_bytes(b, "little") for y, b in buffers.items()}
        self._low = int.from_bytes(((1 << n) - 1).to_bytes(lane, "little") * self.count, "little")
        self._ones = int.from_bytes(b"\x01" * lane, "little")

    def row(self, word, start: int = 0):
        """n - LCS(word, w) for the packed words w from index ``start`` on,
        in index order: bytes, or a list of ints when n > 255.

        ``lcs_length_raw``'s recurrence runs on every lane at once, one
        add/and/or step per symbol of ``word``, on the low lanes only
        (words ``start`` to m-1). A step carries at most once out of a
        lane's n low bits, into its guard bits, and the step's final mask
        clears the guards again, so no carry reaches the next lane. The
        count of each lane is the popcount of its bytes, summed by one
        multiply: every window of lane-many bytes sums to at most n, so
        for n < 256 no byte carries into the next.
        """
        lane = self._lane
        lanes = self.count - start
        low = self._low >> (8 * lane * start)
        masks = self._masks
        v = low
        for x in word:
            m = masks.get(x)
            if m:
                u = v & m
                v = ((v + u) | (v - u)) & low
        counts = v.to_bytes(lanes * lane, "little").translate(_POPCOUNT)
        if self.n < 256:
            total = int.from_bytes(counts, "little") * self._ones
            counts = total.to_bytes((lanes + 1) * lane - 1, "little")[lane - 1 :: lane]
        else:
            counts = [sum(counts[i : i + lane]) for i in range(0, len(counts), lane)]
        return counts[::-1]


def _blocks(words, n: int):
    """Consecutive index ranges [b0, b1) of ``words`` whose match masks,
    each at most the block's size, take at most _BLOCK_BYTES together; a
    word too large for the budget forms a block alone."""
    lane = n // 8 + 1
    start, symbols = 0, set()
    for j, w in enumerate(words):
        symbols.update(w)
        if j > start and len(symbols) * (j + 1 - start) * lane > _BLOCK_BYTES:
            yield start, j
            start, symbols = j, set(w)
    if words:
        yield start, len(words)


def closest_pair(words, n: int, rows):
    """Least n - LCS(words[i], words[j]) over i in ``rows`` (ascending)
    and j > i, as (low, i, j) for the first pair reaching it in (i, j)
    order. None without pairs.

    All words have length n, so the insdel distance of a pair is twice
    its n - LCS. Each row is one ``PackedWords.row``, and ``min`` and
    ``index`` find its first minimum. The words are packed in consecutive
    blocks (``_blocks``) and every row sweeps a block before the next is
    packed, so a code with many symbols and long words needs one block's
    masks at a time, not masks over the whole code per symbol. One
    running minimum, compared as a tuple, keeps the first least pair
    across rows and blocks.
    """
    best = None
    for b0, b1 in _blocks(words, n):
        pack = PackedWords(words[b0:b1], n)
        for i in rows:
            first = max(b0, i + 1)
            if first >= b1:
                break
            row = pack.row(words[i], first - b0)
            low = min(row)
            if best is None or low <= best[0]:
                pair = (low, i, first + row.index(low))
                if best is None or pair < best:
                    best = pair
    return best


def all_words(q: int, n: int):
    """All words of length n over alphabet size q, lexicographic order."""
    for symbols in itertools.product(range(q), repeat=n):
        yield Word(q, symbols)


def compositions_colex(n: int, q: int):
    """All compositions of n into q bins, colexicographic order.

    Colex compares the reversed count tuples. The enumeration is a
    recursive generator on the last bin; each of its q - 1 levels builds a
    new tuple for every composition it passes up.
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
