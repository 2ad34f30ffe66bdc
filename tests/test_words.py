import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from insdel.errors import AlphabetMismatch, DomainError, UndefinedDistance
from insdel import words as words_module
from insdel.oracles import edit_graph_distance, lcs_by_enumeration, word_graph_distance
from insdel.words import (
    _BLOCK_BYTES,
    CWL1,
    HAMMING,
    INSDEL,
    L1,
    Code,
    Composition,
    PackedWords,
    Word,
    _blocks,
    all_words,
    closest_pair,
    code_min_distance,
    compositions_colex,
    hamming_distance,
    insdel_distance,
    l1_distance,
    lcs_length,
    lcs_length_masked,
    lcs_length_raw,
    match_masks,
    phi,
    psi,
)


def word_pairs(max_q=4, max_n=8):
    return st.integers(2, max_q).flatmap(
        lambda q: st.tuples(
            st.lists(st.integers(0, q - 1), max_size=max_n).map(
                lambda s: Word(q, tuple(s))
            ),
            st.lists(st.integers(0, q - 1), max_size=max_n).map(
                lambda s: Word(q, tuple(s))
            ),
        )
    )


@st.composite
def stepped_and_masked(draw):
    """(q, a, b) with q <= 8 and lengths 0-24: a over all of [q], b over a
    proper subset of it, so a holds symbols that b lacks."""
    q = draw(st.integers(2, 8))
    held = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q - 1, unique=True))
    a = draw(st.lists(st.integers(0, q - 1), max_size=24))
    b = draw(st.lists(st.sampled_from(held), max_size=24))
    return q, tuple(a), tuple(b)


class TestWordBasics:
    def test_symbols_validated(self):
        with pytest.raises(DomainError):
            Word(2, (0, 2))
        with pytest.raises(DomainError):
            Word(1, (0,))

    def test_empty_word_allowed(self):
        assert len(Word(2, ())) == 0

    def test_composition_bins_validated(self):
        with pytest.raises(DomainError):
            Composition(3, (1, 2))
        with pytest.raises(DomainError):
            Composition(2, (1, -1))


class TestLcsAndDistance:
    def test_known_pair(self):
        u = Word(3, (0, 0, 1, 2, 0))
        v = Word(3, (0, 2, 0, 0, 1))
        assert lcs_length(u, v) == 3
        assert insdel_distance(u, v) == 4

    def test_disjoint_alphabets_subsets(self):
        assert insdel_distance(Word(2, (0, 0, 0)), Word(2, (1, 1, 1))) == 6

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            insdel_distance(Word(2, (0,)), Word(3, (0,)))

    def test_lcs_against_enumeration_exhaustive(self):
        for a in itertools.product(range(2), repeat=4):
            for b in itertools.product(range(2), repeat=4):
                u, v = Word(2, a), Word(2, b)
                assert lcs_length(u, v) == lcs_by_enumeration(u, v)

    @given(
        st.integers(2, 300).flatmap(
            lambda q: st.tuples(
                *(
                    st.integers(0, 100)
                    .flatmap(lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
                    .map(lambda s: Word(q, tuple(s)))
                    for _ in range(2)
                )
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_lcs_raw_matches_edit_graph_oracle(self, pair):
        # Empty words, unequal lengths, large alphabets and words longer
        # than 64 symbols (bit-parallel state past one machine word).
        u, v = pair
        d = edit_graph_distance(u, v)
        assert lcs_length_raw(u.symbols, v.symbols) == (len(u) + len(v) - d) // 2

    @given(
        st.integers(2, 300).flatmap(
            lambda q: st.tuples(
                *(
                    st.lists(st.integers(0, q - 1), max_size=40).map(lambda s: Word(q, tuple(s)))
                    for _ in range(2)
                )
            )
        )
    )
    @example((Word(3, ()), Word(3, (2, 0, 2))))
    @example((Word(300, (299, 5)), Word(300, ())))
    @example((Word(300, (299, 0, 7, 299)), Word(300, (7, 299, 1, 0, 299, 299, 2))))
    @settings(max_examples=200, deadline=None)
    def test_lcs_masked_matches_edit_graph_oracle(self, pair):
        # Both ways round, so unequal lengths put the longer word on the
        # masked side as often as on the stepped one, which lcs_length_raw
        # never does; an empty word takes either side.
        u, v = pair
        lcs = (len(u) + len(v) - edit_graph_distance(u, v)) // 2
        a, b = u.symbols, v.symbols
        assert lcs_length_masked(a, match_masks(b), len(b)) == lcs
        assert lcs_length_masked(b, match_masks(a), len(a)) == lcs

    @given(stepped_and_masked())
    @example((6, (5, 5, 4, 0), (0, 1)))
    @example((3, (2, 1), ()))
    @settings(max_examples=300, deadline=None)
    def test_lcs_masked_steps_over_symbols_the_masked_word_lacks(self, case):
        # Masks as a list over the whole alphabet, built here from b, and
        # as match_masks(b): a symbol b lacks has mask 0, and its step
        # must leave the row unchanged.
        q, a, b = case
        lcs = (len(a) + len(b) - edit_graph_distance(Word(q, a), Word(q, b))) // 2
        alphabet = [sum(1 << j for j, y in enumerate(b) if y == s) for s in range(q)]
        assert lcs_length_masked(a, alphabet, len(b)) == lcs
        assert lcs_length_masked(a, match_masks(b), len(b)) == lcs

    def test_lcs_raw_with_no_common_symbol(self):
        assert lcs_length_raw((5, 5, 5), (0, 1)) == 0
        assert lcs_length_raw((3,), ()) == 0

    def test_match_masks(self):
        assert match_masks((2, 0, 2, 299)) == {2: 0b101, 0: 0b10, 299: 0b1000}
        assert match_masks(()) == {}
        assert match_masks((1,))[0] == 0

    def test_lcs_raw_long_words(self):
        u = Word(3, tuple(i % 3 for i in range(150)))
        v = Word(3, tuple((i * 7) % 3 for i in range(97)))
        d = edit_graph_distance(u, v)
        assert lcs_length_raw(u.symbols, v.symbols) == (len(u) + len(v) - d) // 2
        assert lcs_length_raw(u.symbols, ()) == 0

    @given(word_pairs())
    @settings(max_examples=200, deadline=None)
    def test_lcs_symmetric(self, pair):
        u, v = pair
        assert lcs_length(u, v) == lcs_length(v, u)

    @given(word_pairs())
    @settings(max_examples=200, deadline=None)
    def test_metric_identity_and_symmetry(self, pair):
        u, v = pair
        assert insdel_distance(u, u) == 0
        assert insdel_distance(u, v) == insdel_distance(v, u)
        if u != v:
            assert insdel_distance(u, v) > 0

    @given(
        st.integers(2, 3).flatmap(
            lambda q: st.tuples(
                *(
                    st.lists(st.integers(0, q - 1), max_size=6).map(
                        lambda s: Word(q, tuple(s))
                    )
                    for _ in range(3)
                )
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, triple):
        u, v, w = triple
        assert insdel_distance(u, w) <= insdel_distance(u, v) + insdel_distance(v, w)

    def test_insdel_at_most_twice_hamming(self):
        for a in itertools.product(range(2), repeat=4):
            for b in itertools.product(range(2), repeat=4):
                u, v = Word(2, a), Word(2, b)
                assert insdel_distance(u, v) <= 2 * hamming_distance(u, v)

    def test_agrees_with_word_graph_oracle(self):
        for a in itertools.product(range(2), repeat=3):
            for b in itertools.product(range(2), repeat=3):
                u, v = Word(2, a), Word(2, b)
                assert insdel_distance(u, v) == word_graph_distance(u, v)

    def test_agrees_with_edit_graph_oracle(self):
        for a in itertools.product(range(3), repeat=3):
            for b in itertools.product(range(3), repeat=3):
                u, v = Word(3, a), Word(3, b)
                assert insdel_distance(u, v) == edit_graph_distance(u, v)


class TestCountMaps:
    def test_psi_examples(self):
        assert psi(Composition(2, (0, 0))).symbols == ()
        assert psi(Composition(3, (2, 0, 1))).symbols == (0, 0, 2)

    def test_phi_then_psi_identity(self):
        for q, n in [(2, 5), (3, 4), (4, 3)]:
            for a in compositions_colex(n, q):
                assert phi(psi(a)) == a

    def test_l1_equals_insdel_of_sorted_words(self):
        comps = list(compositions_colex(4, 3))
        assert len(comps) == 15
        for a, b in itertools.combinations(comps, 2):
            assert l1_distance(a, b) == insdel_distance(psi(a), psi(b))

    def test_colex_enumeration_is_sorted_and_complete(self):
        comps = list(compositions_colex(3, 3))
        keys = [tuple(reversed(c.counts)) for c in comps]
        assert keys == sorted(keys)
        assert len(comps) == 10
        assert len(set(comps)) == 10


class TestCode:
    def test_rejects_duplicates(self):
        w = Word(2, (0, 1))
        with pytest.raises(DomainError):
            Code(2, 2, (w, w))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            Code(2, 2, (Word(2, (0,)),))
        with pytest.raises(DomainError):
            Code(2, 3, (Composition(2, (1, 1)),), kind=CWL1)

    def test_min_distance_examples(self):
        c = Code(2, 3, (Word(2, (0, 0, 0)), Word(2, (1, 1, 1))))
        assert code_min_distance(c, INSDEL) == (6, (Word(2, (0, 0, 0)), Word(2, (1, 1, 1))))
        full = Code(2, 2, tuple(all_words(2, 2)))
        assert code_min_distance(full, INSDEL)[0] == 2

    def test_min_distance_needs_two_members(self):
        with pytest.raises(UndefinedDistance):
            code_min_distance(Code(2, 2, (Word(2, (0, 0)),)), INSDEL)

    def test_witness_is_first_lexicographic_minimizer(self):
        members = (Word(2, (0, 0)), Word(2, (0, 1)), Word(2, (1, 1)))
        d, witness = code_min_distance(Code(2, 2, members), INSDEL)
        assert d == 2
        assert witness == (Word(2, (0, 0)), Word(2, (0, 1)))


def _pairwise_min_distance(members):
    """The pairwise INSDEL sweep that code_min_distance ran before the
    packed kernel: sorted members, pairs in lexicographic order, the first
    strict minimum wins."""
    best = witness = None
    for u, v in itertools.combinations(sorted(members), 2):
        d = len(u) + len(v) - 2 * lcs_length_raw(u.symbols, v.symbols)
        if best is None or d < best:
            best, witness = d, (u, v)
    return best, witness


def _pairwise_min_l1(members):
    """The full pairwise L1 sweep that code_min_distance ran before the
    sorted sweep with the first-bin bound."""
    best = witness = None
    for a, b in itertools.combinations(sorted(members), 2):
        d = l1_distance(a, b)
        if best is None or d < best:
            best, witness = d, (a, b)
    return best, witness


CWL1_CODES = st.integers(1, 4).flatmap(
    lambda q: st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n), min_size=q, max_size=q),
            min_size=2,
            max_size=25,
            unique_by=tuple,
        ).map(lambda rows: [r[:-1] + [n - sum(r[:-1])] for r in rows if sum(r[:-1]) <= n])
        .filter(lambda rows: len({tuple(r) for r in rows}) == len(rows) >= 2)
        .map(lambda rows: Code(q, n, tuple(Composition(q, tuple(r)) for r in rows), kind=CWL1))
    )
)


class TestL1Sweep:
    @given(CWL1_CODES)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_pairwise_sweep(self, code):
        # Small weights tie often, so the first witness is checked too.
        assert code_min_distance(code, L1) == _pairwise_min_l1(code.members)

    def test_tied_minimum_keeps_first_pair(self):
        # Three pairs tie at 4; the sweep must not stop on the later ones.
        members = tuple(Composition(3, c) for c in [(2, 2, 0), (0, 2, 2), (0, 4, 0), (2, 0, 2), (4, 0, 0)])
        d, witness = code_min_distance(Code(3, 4, members, kind=CWL1), L1)
        assert (d, witness) == _pairwise_min_l1(members)
        assert (d, witness) == (4, (Composition(3, (0, 2, 2)), Composition(3, (0, 4, 0))))


def _pairwise_closest(words, rows):
    best = None
    for i in rows:
        for j in range(i + 1, len(words)):
            low = len(words[i]) - lcs_length_raw(words[i], words[j])
            if best is None or low < best[0]:
                best = (low, i, j)
    return best


def _pairwise_min_hamming(members):
    """Sorted members, pairs in lexicographic order, the first strict
    minimum wins."""
    best = witness = None
    for u, v in itertools.combinations(sorted(members), 2):
        d = sum(1 for a, b in zip(u.symbols, v.symbols) if a != b)
        if best is None or d < best:
            best, witness = d, (u, v)
    return best, witness


# Small alphabets and short words, so that minima tie often.
INSDEL_CODES = st.integers(2, 4).flatmap(
    lambda q: st.integers(0, 10).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(lambda s: Word(q, tuple(s))),
            min_size=2,
            max_size=20,
            unique=True,
        ).map(lambda members: Code(q, n, tuple(members)))
    )
)


class TestHammingSweep:
    @given(INSDEL_CODES)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_pairwise_sweep(self, code):
        assert code_min_distance(code, HAMMING) == _pairwise_min_hamming(code.members)

    def test_tied_minimum_keeps_first_pair(self):
        members = tuple(Word(2, s) for s in [(1, 1, 0), (0, 1, 1), (1, 0, 0), (0, 0, 1)])
        d, witness = code_min_distance(Code(2, 3, members), HAMMING)
        assert (d, witness) == _pairwise_min_hamming(members)
        assert (d, witness) == (1, (Word(2, (0, 0, 1)), Word(2, (0, 1, 1))))


LANE_LENGTHS = (0, 1, 7, 8, 15, 16, 255, 256, 300)


class TestPackedKernel:
    @given(
        st.tuples(st.sampled_from(LANE_LENGTHS), st.integers(2, 300)).flatmap(
            lambda nq: st.tuples(
                st.just(nq[0]),
                st.lists(
                    st.lists(st.integers(0, nq[1] - 1), min_size=nq[0], max_size=nq[0]),
                    min_size=1,
                    max_size=4,
                ),
                st.integers(0, nq[0] + 3).flatmap(
                    lambda m: st.lists(st.integers(0, nq[1] - 1), min_size=m, max_size=m)
                ),
                st.data(),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_row_matches_pairwise_lcs_and_oracle(self, case):
        # Lane-boundary lengths, alphabets up to 300, row words of any
        # length; from n = 256 on, counts pass 255.
        n, words, word, data = case
        start = data.draw(st.integers(0, len(words) - 1))
        row = PackedWords(words, n).row(word, start)
        assert list(row) == [n - lcs_length_raw(word, w) for w in words[start:]]
        d = edit_graph_distance(Word(300, tuple(word)), Word(300, tuple(words[-1])))
        assert row[-1] == n - (len(word) + n - d) // 2

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_counts_past_255_stay_in_their_lane(self, n):
        # Full counts on both sides of a zero count: a carry out of a
        # count byte would show in the neighbouring lane.
        word = tuple(range(n))
        other = tuple(range(n, 2 * n))
        row = PackedWords([other, word, other, word], n).row(word)
        assert list(row) == [n, 0, n, 0]
        assert isinstance(row, bytes) == (n < 256)

    @given(INSDEL_CODES, st.sampled_from([0, 24, 1 << 22]))
    @settings(max_examples=150, deadline=None)
    def test_code_min_distance_matches_pairwise_sweep(self, code, budget):
        # Small alphabets tie often; budget 0 packs one word per block.
        with mock.patch.object(words_module, "_BLOCK_BYTES", budget):
            assert code_min_distance(code, INSDEL) == _pairwise_min_distance(code.members)

    def test_tied_minimum_keeps_first_pair(self):
        members = tuple(Word(3, s) for s in [(2, 2, 2), (0, 1, 2), (0, 1, 1), (1, 1, 2), (0, 0, 1)])
        d, witness = code_min_distance(Code(3, 3, members), INSDEL)
        assert (d, witness) == _pairwise_min_distance(members)
        assert witness == (Word(3, (0, 0, 1)), Word(3, (0, 1, 1)))

    @given(
        st.lists(st.lists(st.integers(0, 5), min_size=6, max_size=6), min_size=2, max_size=12),
        st.data(),
        st.sampled_from([0, 8, 40, 1 << 22]),
    )
    @settings(max_examples=150, deadline=None)
    def test_closest_pair_rows_match_pairwise(self, words, data, budget):
        # The exhaustive RS sweep's form: any ascending subset of rows,
        # each against the words above it, across block boundaries.
        rows = sorted(data.draw(st.lists(st.integers(0, len(words) - 1), min_size=1, unique=True)))
        with mock.patch.object(words_module, "_BLOCK_BYTES", budget):
            assert closest_pair(words, 6, rows) == _pairwise_closest(words, rows)
            assert closest_pair(words, 6, range(len(words))) == _pairwise_closest(words, range(len(words)))

    def test_blocks_bound_the_masks(self):
        # The counterexample family: constant words and one word holding
        # every symbol, the shape that made one mask per symbol span the
        # whole code.
        q = 200
        words = [(a,) * q for a in range(q)] + [tuple(range(q))]
        lane = q // 8 + 1
        blocks = list(_blocks(words, q))
        assert blocks[0][0] == 0 and blocks[-1][1] == len(words)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        for b0, b1 in blocks:
            symbols = set().union(*words[b0:b1])
            assert b1 - b0 == 1 or len(symbols) * (b1 - b0) * lane <= _BLOCK_BYTES
        with mock.patch.object(words_module, "_BLOCK_BYTES", 1 << 14):
            assert len(list(_blocks(words, q))) > 1
            assert closest_pair(words, q, range(len(words) - 1)) == (q - 1, 0, q)
