"""Unit and property tests for the edit-distance kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_property_kernels import reference_distance

from repro.similarity.edit_distance import (
    _myers_dp,
    edit_similarity,
    levenshtein,
)
from repro.similarity.matchers import edits_at_least

words = st.text(alphabet="abcdef ", min_size=0, max_size=40)
nonempty_words = st.text(alphabet="abcdef ", min_size=1, max_size=40)
long_words = st.text(alphabet="abcdefghij ", min_size=50, max_size=150)


class TestKnownDistances:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("charles", "gharles", 1),  # the paper's toy typo
            ("abcd", "badc", 3),
        ],
    )
    def test_classic_cases(self, a, b, d):
        assert levenshtein(a, b) == d

    def test_bounded_returns_bound_plus_one_when_exceeded(self):
        assert levenshtein("aaaa", "bbbb", max_distance=2) == 3

    def test_bounded_exact_when_within(self):
        assert levenshtein("kitten", "sitting", max_distance=5) == 3

    def test_length_gap_short_circuits(self):
        assert levenshtein("a", "abcdefgh", max_distance=3) == 4


class TestProperties:
    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(words, words)
    def test_bounded_by_longer_length(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))

    @given(words, words)
    def test_at_least_length_difference(self, a, b):
        assert levenshtein(a, b) >= abs(len(a) - len(b))

    @given(words, words, words)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(words, words)
    def test_myers_matches_reference_dp(self, a, b):
        if a and b:
            assert _myers_dp(a, b) == reference_distance(a, b)

    @given(long_words, long_words)
    @settings(max_examples=30)
    def test_myers_matches_reference_on_long_strings(self, a, b):
        assert _myers_dp(a, b) == reference_distance(a, b)

    @given(words, words, st.integers(0, 10))
    def test_banded_agrees_with_full(self, a, b, bound):
        true_distance = levenshtein(a, b)
        bounded = levenshtein(a, b, max_distance=bound)
        if true_distance <= bound:
            assert bounded == true_distance
        else:
            assert bounded == bound + 1


class TestEditSimilarity:
    def test_identical(self):
        assert edit_similarity("abc", "abc") == 1.0

    def test_both_empty(self):
        assert edit_similarity("", "") == 1.0

    def test_one_empty(self):
        assert edit_similarity("", "abc") == 0.0

    def test_half_similar(self):
        assert edit_similarity("ab", "ax") == pytest.approx(0.5)

    @given(words, words)
    def test_range(self, a, b):
        assert 0.0 <= edit_similarity(a, b) <= 1.0

    @given(nonempty_words, nonempty_words, st.floats(0.01, 1.0))
    @settings(max_examples=80)
    def test_threshold_check_agrees_with_similarity(self, a, b, floor):
        """The bounded check is the exact similarity, or the sentinel only
        for similarities strictly below ``floor``."""
        (result,) = edits_at_least([a], [b], [floor])
        if result == -1.0:
            assert edit_similarity(a, b) < floor
        else:
            assert result == edit_similarity(a, b)
