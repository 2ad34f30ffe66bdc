import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insdel.errors import AlphabetMismatch, DomainError, UndefinedDistance
from insdel.oracles import edit_graph_distance, lcs_by_enumeration, word_graph_distance
from insdel.words import (
    CWL1,
    INSDEL,
    Code,
    Composition,
    Word,
    all_words,
    code_min_distance,
    compositions_colex,
    hamming_distance,
    insdel_distance,
    l1_distance,
    lcs_length,
    lcs_length_raw,
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
