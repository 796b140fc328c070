"""Property tests for the edit-distance kernels and threshold propagation.

Two kernels answer distance queries, both Myers' bit-parallel column loop
with Ukkonen's cutoff behind the same cheap exits: per pair
(:func:`repro.similarity.edit_distance.levenshtein`, used by the
definition and by groups too small to pack) and packed
(:func:`~repro.similarity.edit_distance.levenshtein_many`, one column loop
for a batch's survivors of one edit rule).  Both must agree with the
textbook DP on arbitrary unicode inputs, bounded or not: empty strings,
bounds that land exactly on the true distance (the cutoff's boundary
case), strings long enough that a column no longer fits one machine word,
and, for the packed kernel, groups whose shared word runs past 1.5 kbit.

The credit ``BatchMatcher`` gives an edit rule it has not evaluated yet —
``_edit_upper_bounds``, from the two lengths and the bucketed character
counts of ``_signature`` — must never fall below the rule's true
similarity, as floats, whatever the text: astral code points, lone
surrogates, combining marks, characters that share a bucket, values too
long for a counter.

Threshold propagation (``BatchMatcher`` deriving a per-rule similarity
floor and bounding the edit kernel with it) is a pure optimization: on
random matcher configurations and entity pairs, the propagated decision
must equal the unbounded weighted-sum decision ``is_match`` defines.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import decide
from repro.data import Entity
from repro.data.perturb import typo_delete, typo_insert, typo_substitute
from repro.similarity import (
    AttributeRule,
    BatchMatcher,
    WeightedMatcher,
    dp_cell_counters,
    levenshtein,
    reset_dp_cell_counters,
)
from repro.similarity import edit_distance
from repro.similarity.batch import _COUNTER_MAX, _edit_upper_bounds, _signature
from repro.similarity.edit_distance import _myers_dp, edit_similarity, levenshtein_many

#: Unicode-heavy but collision-prone alphabet: small enough that random
#: strings share substrings (exercising the prefix/suffix stripping and
#: the kernel's early exit), plus multibyte and astral characters.
ALPHABET = "abcdé日本語🙂 "

short_text = st.text(alphabet=ALPHABET, max_size=24)
nonempty_text = st.text(alphabet=ALPHABET, min_size=1, max_size=24)
#: Past one machine word: the pattern's bit-vectors are multi-limb ints.
long_text = st.text(alphabet=ALPHABET, min_size=65, max_size=400)


def reference_distance(a: str, b: str) -> int:
    """Textbook full-matrix Levenshtein, the oracle for every kernel."""
    rows = [list(range(len(b) + 1))]
    for i, ca in enumerate(a, start=1):
        row = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            row.append(min(rows[i - 1][j] + 1, row[j - 1] + 1, rows[i - 1][j - 1] + cost))
        rows.append(row)
    return rows[len(a)][len(b)]


class TestKernelAgreement:
    @given(a=short_text, b=short_text)
    def test_levenshtein_matches_reference(self, a, b):
        assert levenshtein(a, b) == reference_distance(a, b)

    @given(a=nonempty_text, b=nonempty_text)
    def test_myers_matches_full_dp(self, a, b):
        assert _myers_dp(a, b) == reference_distance(a, b)

    @given(a=short_text, b=short_text, delta=st.integers(min_value=-2, max_value=3))
    def test_bounded_levenshtein_clamps_at_bound(self, a, b, delta):
        # Draw bounds clustered around the true distance so the
        # bound-equal-to-distance boundary is hit constantly.
        true = reference_distance(a, b)
        bound = max(0, true + delta)
        got = levenshtein(a, b, max_distance=bound)
        if true <= bound:
            assert got == true
        else:
            assert got == bound + 1

    @given(a=nonempty_text, b=nonempty_text, bound=st.integers(min_value=0, max_value=30))
    def test_bounded_levenshtein_matches_reference_at_any_bound(self, a, b, bound):
        assert levenshtein(a, b, max_distance=bound) == min(
            reference_distance(a, b), bound + 1
        )

    @given(b=short_text, bound=st.integers(min_value=0, max_value=5))
    def test_empty_string_edges(self, b, bound):
        assert levenshtein("", b) == len(b)
        got = levenshtein("", b, max_distance=bound)
        assert got == (len(b) if len(b) <= bound else bound + 1)


def _mutated(text: str, edits: int, rng) -> str:
    """``text`` after ``edits`` random single-character typos."""
    for _ in range(edits):
        text = rng.choice((typo_substitute, typo_delete, typo_insert))(rng, text)
    return text


@st.composite
def long_pairs(draw):
    """Two 65-400 char strings: unrelated, or one a light edit of the other
    (duplicates are what the bounded kernel must score exactly)."""
    a = draw(long_text)
    if draw(st.booleans()):
        return a, draw(long_text)
    return a, _mutated(a, draw(st.integers(0, 12)), draw(st.randoms(use_true_random=False)))


class TestBoundedKernelOnLongStrings:
    """The bounded path past one machine word, where short strings are blind."""

    @settings(max_examples=60)
    @given(pair=long_pairs(), delta=st.integers(min_value=-2, max_value=3), swap=st.booleans())
    def test_bounds_around_the_true_distance(self, pair, delta, swap):
        a, b = pair[::-1] if swap else pair
        true = reference_distance(a, b)
        bound = max(0, true + delta)
        assert levenshtein(a, b, max_distance=bound) == min(true, bound + 1)

    @settings(max_examples=30)
    @given(pair=long_pairs(), swap=st.booleans())
    def test_zero_and_saturated_bounds(self, pair, swap):
        a, b = pair[::-1] if swap else pair
        true = reference_distance(a, b)
        assert levenshtein(a, b, max_distance=0) == min(true, 1)
        for bound in (max(len(a), len(b)), len(a) + len(b)):
            assert levenshtein(a, b, max_distance=bound) == true
        assert levenshtein(a, b) == true

    def test_unrelated_abstracts_exit_early(self):
        rng = random.Random(15)
        a = "".join(rng.choice("abcdefghij ") for _ in range(350))
        b = "".join(rng.choice("abcdefghij ") for _ in range(350))
        assert a[0] != b[0] and a[-1] != b[-1]  # nothing for the strip to take
        reset_dp_cell_counters()
        assert levenshtein(a, b, max_distance=130) == 131
        assert 0 < dp_cell_counters()["myers"] < len(b)
        reset_dp_cell_counters()
        assert levenshtein(a, b) == reference_distance(a, b) > 130
        assert dp_cell_counters()["myers"] == len(b)

    def test_bounded_call_on_a_duplicate_is_exact(self):
        rng = random.Random(16)
        a = "".join(rng.choice("abcdefghij ") for _ in range(350))
        b = _mutated(a, 9, rng)
        true = reference_distance(a, b)
        assert 0 < true <= 9
        assert levenshtein(a, b, max_distance=130) == true
        assert levenshtein(b, a, max_distance=true) == true
        assert levenshtein(a, b, max_distance=true - 1) == true


# ---------------------------------------------------------------------------
# The packed kernel: one column loop for a whole group
# ---------------------------------------------------------------------------


def packed(triples):
    """``levenshtein_many`` with every group packed, however small."""
    with mock.patch.object(edit_distance, "_PACK_MIN", 1):
        return levenshtein_many(triples)


@st.composite
def packed_groups(draw, core):
    """1-40 ``(a, b, bound, distance)``: unrelated, equal, one side empty,
    or sharing a prefix and a suffix; bounds at the true distance ± 1, or
    anywhere."""
    group = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        shape = draw(st.sampled_from(("unrelated", "equal", "empty", "affixed")))
        a = draw(core)
        if shape == "equal":
            b = a
        elif shape == "empty":
            b = ""
        elif shape == "affixed":
            prefix, suffix = draw(short_text), draw(short_text)
            a, b = prefix + a + suffix, prefix + draw(core) + suffix
        else:
            b = draw(core)
        if draw(st.booleans()):
            a, b = b, a
        distance = reference_distance(a, b)
        if draw(st.integers(min_value=0, max_value=4)):
            bound = max(0, distance + draw(st.integers(min_value=-1, max_value=1)))
        else:
            bound = draw(st.integers(min_value=0, max_value=len(a) + len(b) + 2))
        group.append((a, b, bound, distance))
    return group


#: Values that cross the 64-bit word on their own; a large group of them
#: packs past 1.5 kbit (the fixed sixty-pair test below always does).
word_text = st.text(alphabet=ALPHABET, min_size=55, max_size=75)


class TestPackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(group=packed_groups(short_text))
    def test_equals_the_reference_clamped_at_each_bound(self, group):
        answers = packed([(a, b, bound) for a, b, bound, _ in group])
        assert answers == [min(d, bound + 1) for _, _, bound, d in group]

    @settings(max_examples=15, deadline=None)
    @given(group=packed_groups(word_text))
    def test_values_past_one_machine_word(self, group):
        answers = packed([(a, b, bound) for a, b, bound, _ in group])
        assert answers == [min(d, bound + 1) for _, _, bound, d in group]

    def test_a_pack_past_three_kbit_of_mixed_lengths(self):
        # Sixty pairs of 1-150 characters, half of them near-duplicates, in
        # one 3.7 kbit word: segments retire at many different columns, by
        # the cutoff and by the end of their text, from the middle of the
        # word and from its top.
        rng = random.Random(44)
        triples = []
        for _ in range(60):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 150)))
            b = _mutated(a, rng.randint(0, 8), rng) if rng.random() < 0.5 else (
                "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 150)))
            )
            true = reference_distance(a, b)
            triples.append((a, b, max(0, true + rng.choice((-1, 0, 1, 40)))))
        expected = [min(reference_distance(a, b), k + 1) for a, b, k in triples]
        assert packed(triples) == expected
        assert levenshtein_many(triples) == expected

    def test_small_groups_run_the_per_pair_kernel(self):
        triples = [("kitten", "sitting", 5), ("flaw", "lawn", 0)]
        reset_dp_cell_counters()
        assert levenshtein_many(triples) == [3, 1]
        counters = dp_cell_counters()
        assert counters["steps"] == counters["myers"] > 0
        reset_dp_cell_counters()
        assert packed(triples) == [3, 1]
        # One loop for both pairs: fewer steps than the columns they visit.
        assert 0 < dp_cell_counters()["steps"] < dp_cell_counters()["myers"]


# ---------------------------------------------------------------------------
# The character-count credit is an upper bound on the edit similarity
# ---------------------------------------------------------------------------

#: Everything a count of "characters" can get wrong: ``a A ā š`` share a
#: bucket (equal low five bits of the code point), and so do ``b B``, the
#: emoji and its own low surrogate; ``e`` + U+0301 is two code points; the
#: emoji is one code point but two UTF-16 units; the surrogates stand alone.
HOSTILE_ALPHABET = "aAāšbB e\u0301é🙂\ud83d\ude42"

hostile_text = st.text(alphabet=HOSTILE_ALPHABET, max_size=20)


def _upper(a: str, b: str) -> float:
    return _edit_upper_bounds([(len(a), _signature(a))], [(len(b), _signature(b))], 0)[0]


class TestSignatureBound:
    @settings(max_examples=400)
    @given(a=hostile_text, b=hostile_text)
    @example(a=" 🙂", b=" ")  # UTF-16 low bytes counted the emoji twice
    @example(a="aA", b="āš")  # one bucket: the counts see no difference
    @example(a="", b="")
    @example(a="", b="\ud83d")
    def test_bound_sits_between_the_similarity_and_the_length_bound(self, a, b):
        upper = _upper(a, b)
        assert upper == _upper(b, a)
        longest = max(len(a), len(b))
        if not longest:
            assert upper == 1.0
            return
        # signature bound >= |len1 - len2| and <= levenshtein(a, b), said
        # in the floats the kernel compares.
        assert upper <= 1.0 - abs(len(a) - len(b)) / longest
        assert upper >= 1.0 - reference_distance(a, b) / longest
        assert upper >= edit_similarity(a, b)

    @given(a=hostile_text, extra=hostile_text)
    def test_bag_distance_of_an_anagram_plus_suffix_is_the_suffix(self, a, extra):
        # Same multiset (reversed) plus a suffix: no bucket can hide more
        # than the collisions allow, and the length gap is always seen.
        upper = _upper(a[::-1] + extra, a)
        longest = len(a) + len(extra)
        if longest:
            assert upper == 1.0 - len(extra) / longest

    def test_a_value_longer_than_a_counter_falls_back_to_its_length(self):
        full = "a" * _COUNTER_MAX
        assert _signature(full) is not None
        assert _signature(full + "a") is None
        # A full counter on either side neither overflows nor borrows.
        assert _upper(full, "b" * _COUNTER_MAX) == 0.0
        assert _upper("b" * _COUNTER_MAX, full) == 0.0
        assert _upper(full, full) == 1.0
        assert _upper(full, "") == 0.0
        # Past it only the lengths speak: sound, merely weaker.
        assert _upper(full + "a", "b" * (_COUNTER_MAX + 1)) == 1.0
        assert _upper(full + "a", "b" * _COUNTER_MAX) == 1.0 - 1 / (_COUNTER_MAX + 1)


# ---------------------------------------------------------------------------
# Threshold propagation never flips a decision
# ---------------------------------------------------------------------------

_ATTRS = ("title", "venue", "year")

rule_strategy = st.tuples(
    st.sampled_from(_ATTRS),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.sampled_from(["edit", "exact", "edit"]),  # edit-heavy on purpose
)

entity_values = st.lists(
    st.text(alphabet=ALPHABET, max_size=20), min_size=3, max_size=3
)


@st.composite
def matcher_configs(draw):
    raw = draw(st.lists(rule_strategy, min_size=1, max_size=4))
    # One rule per attribute at most (duplicate attributes are legal but
    # make the test harder to read); keep the first of each.
    rules = []
    seen = set()
    for attribute, weight, comparator in raw:
        if attribute in seen:
            continue
        seen.add(attribute)
        rules.append(AttributeRule(attribute, weight=weight, comparator=comparator))
    threshold = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    return WeightedMatcher(rules, threshold)


def _entity(idx: int, values) -> Entity:
    return Entity(id=f"e{idx}", attrs=dict(zip(_ATTRS, values)))


class TestThresholdPropagation:
    @settings(max_examples=200)
    @given(
        matcher=matcher_configs(),
        v1=entity_values,
        v2=entity_values,
        mutate=st.booleans(),
    )
    def test_is_match_equals_unbounded_decision(self, matcher, v1, v2, mutate):
        if mutate:
            # Near-duplicates stress the boundary region where propagation
            # floors sit closest to the actual similarities.
            v2 = [value[:-1] if value else value for value in v1]
        e1, e2 = _entity(0, v1), _entity(1, v2)
        (bounded,) = decide(BatchMatcher(matcher), [(e1, e2)])
        unbounded = matcher.similarity(e1, e2) >= matcher.threshold
        assert bounded == unbounded == matcher.is_match(e1, e2)

    @settings(max_examples=60, deadline=None)
    @given(
        matcher=matcher_configs(),
        values=st.lists(entity_values, min_size=2, max_size=8),
        mutate=st.booleans(),
    )
    def test_every_group_packed_equals_is_match(self, matcher, values, mutate):
        # Every pair of a handful of entities in one batch, and every group
        # the edit kernel gets packed: the packed kernel decides as
        # ``is_match`` does.
        if mutate:
            # Near-duplicates of the first entity, each a little shorter.
            values = [
                [value[: len(value) - i % 4] for value in values[0]]
                for i in range(len(values))
            ]
        entities = [_entity(i, v) for i, v in enumerate(values)]
        pairs = [(e1, e2) for i, e1 in enumerate(entities) for e2 in entities[i + 1:]]
        with mock.patch.object(edit_distance, "_PACK_MIN", 1):
            decisions = decide(BatchMatcher(matcher), pairs)
        assert decisions == [matcher.is_match(e1, e2) for e1, e2 in pairs]
