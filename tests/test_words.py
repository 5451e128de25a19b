import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SCRATCH,
    assert_exact_word,
    assert_reduced,
    count_oracle,
    cyclic_key_oracle,
    cyclic_variants,
    inverse_oracle,
    random_letters,
    reduce_oracle,
    strip_outer_oracle,
    substitute_oracle,
)
from homophonic.words import (
    EMPTY_WORD,
    Alphabet,
    AlphabetError,
    AlphabetMismatchError,
    Generator,
    SelfReferenceError,
    SignedLetter,
    UnknownGlyphError,
    Word,
    concat,
    cyclic_reduce,
    display,
    free_reduce,
    invert,
    parse_word,
    split_graphemes,
    substitute,
)

DE = Alphabet("de", "abcdefghijklmnopqrstuvwxyzäöüß")
TR = Alphabet("tr", "bcçdfgğhjklmnprsştvyzaeıioöuü")
ABC = Alphabet("xx", "abc")


def w(alphabet, text):
    return parse_word(alphabet, text)


class TestAlphabet:
    def test_ids_follow_position(self):
        assert [g.id for g in DE] == list(range(30))
        assert DE.generator("a").id == 0
        assert DE.generator("ß").id == 29

    def test_duplicate_glyph_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet("xx", "aba")

    def test_unknown_glyph(self):
        with pytest.raises(UnknownGlyphError):
            DE.generator("q̈")

    def test_nfc_normalization_unifies_spellings(self):
        decomposed = "ä"  # a + combining diaeresis
        assert DE.generator(decomposed) == DE.generator("ä")
        assert split_graphemes("wa" + decomposed) == ["w", "a", "ä"]

    def test_parse_word_reads_a_decomposed_letter_as_the_nfc_generator(self):
        decomposed = "a\u0308"
        assert parse_word(DE, f"w {decomposed} {decomposed}^-1 g") == parse_word(DE, "w g")
        assert parse_word(DE, decomposed).letters[0].gen.glyph == "\u00e4"

    def test_word_tokenizes_grapheme_clusters(self):
        word = TR.word("kağan")
        assert [sl.gen.glyph for sl in word] == ["k", "a", "ğ", "a", "n"]

    def test_generators_of_equal_alphabets_are_equal(self):
        first, second = Alphabet("de", "abc"), Alphabet("de", "abc")
        assert first.generators == second.generators
        assert [hash(g) for g in first] == [hash(g) for g in second]

    def test_generators_of_another_language_differ(self):
        assert Alphabet("de", "abc").generator("a") != Alphabet("tr", "abc").generator("a")

    def test_generators_sort_by_id(self):
        assert sorted(reversed(DE.generators)) == list(DE.generators)

    def test_generator_is_a_plain_tuple(self):
        assert Generator(0, "a", "de") == (0, "a", "de")
        assert DE.generator("a") == Generator(0, "a", "de")
        assert repr(DE.generator("b")) == "Generator(id=1, glyph='b', language='de')"


class TestFreeReduce:
    def test_inverse_pair_cancels(self):
        a = DE.generator("a")
        raw = [SignedLetter(a, 1), SignedLetter(a, -1)]
        assert free_reduce(raw) == EMPTY_WORD

    def test_scales_pair_relator(self):
        raw = list(w(DE, "w a a g e").letters) + list(invert(w(DE, "w a g e")).letters)
        expected = Word(tuple(reduce_oracle(raw)))
        reduced = free_reduce(raw)
        assert reduced == expected
        assert display(reduced) == "w·a·w⁻¹"

    def test_already_reduced_is_fixpoint(self):
        word = w(DE, "b a k")
        assert free_reduce(word.letters) == word

    def test_mixed_alphabets_rejected(self):
        raw = [SignedLetter(DE.generator("a"), 1), SignedLetter(TR.generator("a"), 1)]
        with pytest.raises(AlphabetMismatchError):
            free_reduce(raw)

    def test_construction_reduces(self):
        a, b = DE.generator("a"), DE.generator("b")
        raw = (SignedLetter(a, 1), SignedLetter(a, -1), SignedLetter(b, 1))
        assert Word(raw) == Word((SignedLetter(b, 1),))

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_bad_sign_rejected(self, sign):
        with pytest.raises(ValueError, match="bad sign"):
            Word((SignedLetter(DE.generator("a"), sign),))

    def test_construction_rejects_mixed_alphabets(self):
        raw = (SignedLetter(DE.generator("a"), 1), SignedLetter(TR.generator("a"), 1))
        with pytest.raises(AlphabetMismatchError):
            Word(raw)

    def test_parity_and_length_never_grow(self):
        raw = list(w(DE, "a b b^-1 a a^-1 c").letters)
        reduced = free_reduce(raw)
        assert len(reduced) <= len(raw)
        assert (len(raw) - len(reduced)) % 2 == 0


class TestInvertConcat:
    def test_invert_reverses_and_flips(self):
        assert invert(w(DE, "a b")) == w(DE, "b^-1 a^-1")

    def test_invert_empty(self):
        assert invert(EMPTY_WORD) == EMPTY_WORD

    def test_invert_is_involution(self):
        word = w(TR, "k a ğ^-1")
        assert invert(invert(word)) == word

    def test_concat_cancels_at_boundary(self):
        assert concat(w(DE, "a b"), w(DE, "b^-1 c")) == w(DE, "a c")

    def test_concat_identity(self):
        word = w(DE, "x y z")
        assert concat(word, EMPTY_WORD) == word

    def test_concat_without_cancellation(self):
        assert concat(w(DE, "a"), w(DE, "a")) == w(DE, "a a")

    def test_concat_rejects_mixed_alphabets(self):
        with pytest.raises(AlphabetMismatchError):
            concat(w(DE, "a"), w(TR, "a"))


class TestCyclicReduce:
    def test_conjugated_letter(self):
        word = w(DE, "w a w^-1")
        expected_core, expected_conj = strip_outer_oracle(word.letters)
        core, conj = cyclic_reduce(word)
        assert core.letters == tuple(expected_core)
        assert conj.letters == tuple(expected_conj)
        assert core == w(DE, "a")
        assert conj == w(DE, "w")

    def test_deep_conjugation(self):
        word = w(TR, "b a k a ı^-1 k^-1 a^-1 b^-1")
        expected_core, expected_conj = strip_outer_oracle(word.letters)
        core, conj = cyclic_reduce(word)
        assert core.letters == tuple(expected_core)
        assert core == w(TR, "a ı^-1")
        assert conj == w(TR, "b a k")

    def test_empty(self):
        assert cyclic_reduce(EMPTY_WORD) == (EMPTY_WORD, EMPTY_WORD)

    def test_cyclically_reduced_word_is_its_own_core(self):
        word = w(DE, "w a g^-1")
        core, conj = cyclic_reduce(word)
        assert core is word
        assert conj == EMPTY_WORD


class TestSubstitute:
    def test_trivializing_one_generator(self):
        word = w(DE, "j ä c ä^-1 y^-1")
        result = substitute(word, DE.generator("c"), EMPTY_WORD)
        assert result == w(DE, "j y^-1")

    def test_no_occurrence_is_identity(self):
        word = w(DE, "a b")
        assert substitute(word, DE.generator("c"), w(DE, "w")) == word

    def test_no_occurrence_returns_the_word_itself(self):
        word = w(DE, "a b^-1 a")
        assert substitute(word, DE.generator("c"), w(DE, "w")) is word

    def test_self_reference_checked_before_occurrence(self):
        with pytest.raises(SelfReferenceError):
            substitute(w(DE, "a"), DE.generator("g"), w(DE, "a g"))

    def test_replacing_whole_word(self):
        assert substitute(w(DE, "g"), DE.generator("g"), w(DE, "h k")) == w(DE, "h k")

    def test_self_reference_rejected(self):
        with pytest.raises(SelfReferenceError):
            substitute(w(DE, "g"), DE.generator("g"), w(DE, "a g"))

    def test_inverse_occurrences_get_inverted_replacement(self):
        result = substitute(w(DE, "g^-1"), DE.generator("g"), w(DE, "h k"))
        assert result == w(DE, "k^-1 h^-1")


class TestReducedWhereMade:
    """Words built without a reduction walk keep the checks the walk made."""

    def test_substitute_rejects_a_replacement_from_another_alphabet(self):
        with pytest.raises(AlphabetMismatchError, match="mixed alphabets: 'de' and 'tr'"):
            substitute(w(DE, "a g b"), DE.generator("g"), w(TR, "a"))

    @pytest.mark.parametrize(
        "u, v, message",
        [
            (w(DE, "a b"), w(TR, "b^-1 c"), "mixed alphabets: 'de' and 'tr'"),
            (w(TR, "a"), w(DE, "a^-1"), "mixed alphabets: 'tr' and 'de'"),
        ],
        ids=["de-tr", "tr-de"],
    )
    def test_concat_of_two_alphabets_names_both(self, u, v, message):
        with pytest.raises(AlphabetMismatchError, match=message):
            concat(u, v)

    def test_a_replacement_that_cancels_away_lets_its_neighbours_cancel(self):
        # b := a^-1 c a turns a b a^-1 into a a^-1 c a a^-1, which reduces to c.
        result = substitute(w(ABC, "a b a^-1"), ABC.generator("b"), w(ABC, "a^-1 c a"))
        assert result == w(ABC, "c")
        assert_reduced(result)

    def test_positive_word_is_the_walked_word(self):
        glyphs = ["w", "a", "a", "g", "e"]
        word = DE.positive_word(glyphs)
        assert word == Word(tuple(DE.letter(c) for c in glyphs))
        assert word == DE.word("waage")
        assert_reduced(word)
        assert DE.positive_word([]) == EMPTY_WORD

    def test_positive_word_reads_a_decomposed_glyph_as_the_nfc_letter(self):
        assert DE.positive_word(["a\u0308", "b"]) == DE.positive_word(["\u00e4", "b"])

    def test_positive_word_names_the_unknown_glyph_and_its_position(self):
        with pytest.raises(UnknownGlyphError) as err:
            DE.positive_word(["a", "b", "?"])
        assert (err.value.glyph, err.value.position) == ("?", 2)
        assert str(err.value) == "unknown glyph '?' at position 2"


class TestOccurrences:
    def test_counts_ignore_sign(self):
        word = w(DE, "w a w^-1")
        assert word.counts[DE.generator("w")] == 2
        assert word.counts[DE.generator("a")] == 1
        assert EMPTY_WORD.counts[DE.generator("a")] == 0


class TestDisplay:
    def test_unicode_and_ascii_marks(self):
        word = w(DE, "w a^-1")
        assert display(word) == "w·a⁻¹"
        assert display(word, ascii_inverse=True) == "w·a^-1"

    def test_empty_word_prints_one(self):
        assert display(EMPTY_WORD) == "1"

    def test_parse_rejects_unknown_token(self):
        with pytest.raises(UnknownGlyphError) as err:
            parse_word(DE, "a ? b")
        assert err.value.position == 1


raw_letters = st.builds(
    lambda seed, n: random_letters(__import__("random").Random(seed), SCRATCH, n),
    st.integers(0, 2**32 - 1),
    st.integers(0, 64),
)


def key_test_word(rng: random.Random, shape: str) -> Word:
    """A word of ``shape``; the periodic shapes hold the least letter at many starts."""
    a, b = rng.sample(ABC.generators, 2)
    x = SignedLetter(a, rng.choice((1, -1)))
    k = rng.randint(1, 6)
    if shape == "power":
        return Word((x,) * k)
    if shape == "alternating":
        return Word((x, SignedLetter(b, 1)) * k)
    if shape == "alternating with inverse":
        return Word((x, SignedLetter(b, -1)) * k)
    if shape == "periodic with a tail":
        return free_reduce(random_letters(rng, ABC, 4) * k + [x])
    if shape == "one letter":
        return Word((x,))
    if shape == "empty":
        return EMPTY_WORD
    return free_reduce(random_letters(rng, ABC, 16))


def cyclically_reduced(rng, alphabet, max_len):
    core, _ = strip_outer_oracle(tuple(reduce_oracle(random_letters(rng, alphabet, max_len))))
    return Word(tuple(core))


reduced_words = st.builds(
    lambda seed, n: Word(tuple(reduce_oracle(random_letters(random.Random(seed), ABC, n)))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
)


class TestReducedWhereMadeProperties:
    """Each output is reduced and equals the oracle's reduction of the unreduced letters;
    three letters make the pieces cancel against each other often."""

    @given(reduced_words, reduced_words)
    def test_concat_cancels_only_at_the_seam(self, u, v):
        product = concat(u, v)
        assert_reduced(product)
        assert product.letters == tuple(reduce_oracle(list(u.letters) + list(v.letters)))

    @given(reduced_words, reduced_words, st.integers(0, len(ABC) - 1))
    def test_substitute_joins_pieces_at_their_seams(self, word, replacement, gen_index):
        g = ABC[gen_index]
        replacement = Word(tuple(sl for sl in replacement.letters if sl.gen != g))
        result = substitute(word, g, replacement)
        assert_reduced(result)
        unreduced = substitute_oracle(word.letters, g, replacement.letters)
        assert result.letters == tuple(reduce_oracle(unreduced))

    @given(st.lists(st.sampled_from([g.glyph for g in SCRATCH]), max_size=24))
    def test_positive_word_is_reduced(self, glyphs):
        word = SCRATCH.positive_word(glyphs)
        assert_reduced(word)
        assert word.letters == tuple(reduce_oracle([SCRATCH.letter(c) for c in glyphs]))
        assert SCRATCH.word("".join(glyphs)) == word


class TestProperties:
    @given(raw_letters)
    def test_free_reduce_idempotent(self, raw):
        once = free_reduce(raw)
        assert free_reduce(once.letters) == once

    @given(raw_letters)
    def test_free_reduce_matches_oracle(self, raw):
        assert free_reduce(raw).letters == tuple(reduce_oracle(raw))

    @given(raw_letters)
    def test_unreduced_tuple_equals_reduced_word(self, raw):
        expected = tuple(reduce_oracle(raw))
        assert Word(tuple(raw)) == Word(expected)
        assert Word(tuple(raw)).letters == expected

    @given(raw_letters)
    def test_inverse_law(self, raw):
        word = free_reduce(raw)
        assert concat(word, invert(word)) == EMPTY_WORD
        assert concat(invert(word), word) == EMPTY_WORD

    @settings(max_examples=50)
    @given(raw_letters, raw_letters, raw_letters)
    def test_concat_associative(self, r1, r2, r3):
        u, v, x = free_reduce(r1), free_reduce(r2), free_reduce(r3)
        assert concat(concat(u, v), x) == concat(u, concat(v, x))

    @given(raw_letters)
    def test_cyclic_reduce_reconstructs(self, raw):
        word = free_reduce(raw)
        core, conj = cyclic_reduce(word)
        assert concat(concat(conj, core), invert(conj)) == word
        assert (not core) == (not word)
        if len(core) >= 2:
            assert core.letters[0] != core.letters[-1].inverse()

    @given(raw_letters, raw_letters, st.integers(0, len(SCRATCH) - 1))
    def test_substitute_eliminates(self, raw, replacement_raw, gen_index):
        g = SCRATCH[gen_index]
        word = free_reduce(raw)
        replacement = free_reduce(
            [sl for sl in replacement_raw if sl.gen != g]
        )
        assert substitute(word, g, replacement).counts[g] == 0

    @given(raw_letters)
    def test_counts_match_a_plain_scan(self, raw):
        word = free_reduce(raw)
        for g in SCRATCH:
            assert word.counts[g] == count_oracle(word.letters, g)
        assert [g.id for g in word.counts] == sorted({sl.gen.id for sl in word.letters})
        with pytest.raises(TypeError):
            word.counts[SCRATCH[0]] = 1

    @given(raw_letters)
    def test_inverse_is_the_reversed_word_with_signs_flipped(self, raw):
        word = free_reduce(raw)
        inverse = invert(word)
        assert invert(word) is inverse
        assert invert(inverse) == word
        assert inverse.letters == tuple(inverse_oracle(word.letters))
        assert inverse == Word(tuple(inverse_oracle(word.letters)))
        assert all(type(sl) is SignedLetter for sl in inverse.letters)

    @given(raw_letters)
    def test_cyclic_reduce_matches_oracle(self, raw):
        word = free_reduce(raw)
        core, conj = cyclic_reduce(word)
        expected_core, expected_conj = strip_outer_oracle(word.letters)
        assert core.letters == tuple(expected_core)
        assert conj.letters == tuple(expected_conj)

    @pytest.mark.parametrize(
        "shape",
        [
            "random",
            "power",
            "alternating",
            "alternating with inverse",
            "periodic with a tail",
            "one letter",
            "empty",
        ],
    )
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cyclic_key_is_the_least_rotation(self, shape, seed):
        word = key_test_word(random.Random(seed), shape)
        assert word.cyclic_key == cyclic_key_oracle(word.letters)

    def test_cyclic_key_values(self):
        # Letters read as ±(id + 1): a = 1, b = 2, c = 3.
        assert w(ABC, "b a").cyclic_key == (-2, -1)
        assert w(ABC, "a a a").cyclic_key == (-1, -1, -1)
        assert w(ABC, "c a^-1 b a^-1").cyclic_key == (-3, 1, -2, 1)
        assert w(ABC, "a b a b").cyclic_key == (-2, -1, -2, -1)
        assert EMPTY_WORD.cyclic_key == ()

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["rotation", "inverse rotation", "unrelated"]),
    )
    def test_cyclic_key_matches_rotation_oracle(self, seed, relation):
        # Three letters and short words make unrelated pairs collide too.
        rng = random.Random(seed)
        u = cyclically_reduced(rng, ABC, 8)
        if relation == "unrelated":
            v = cyclically_reduced(rng, ABC, 8)
        else:
            seq = u.letters
            if relation == "inverse rotation":
                seq = tuple(SignedLetter(sl.gen, -sl.sign) for sl in reversed(seq))
            k = rng.randrange(len(seq) or 1)
            v = Word(seq[k:] + seq[:k])
        same = v.letters in cyclic_variants(u.letters)
        assert (u.cyclic_key == v.cyclic_key) == same
        assert same or relation == "unrelated"


class TestWordIsItsLetters:
    """A Word is the tuple of its reduced letters; ``+`` is not the group product."""

    @given(raw_letters)
    def test_any_iterable_gives_the_reduced_tuple(self, raw):
        expected = tuple(reduce_oracle(raw))
        for source in (raw, tuple(raw), iter(raw), (sl for sl in raw)):
            word = Word(source)
            assert word == expected
            assert hash(word) == hash(expected)

    @given(raw_letters)
    def test_sequence_operations_agree_with_letters(self, raw):
        word = free_reduce(raw)
        letters = word.letters
        assert len(word) == len(letters)
        assert bool(word) == bool(letters)
        assert list(word) == list(letters)
        assert [word[i] for i in range(-len(word), len(word))] == list(letters) * 2
        assert word[1:-1] == letters[1:-1]
        assert type(word[1:-1]) is tuple

    def test_plus_joins_tuples_unreduced(self):
        a = w(DE, "a")
        joined = a + invert(a)
        assert type(joined) is tuple
        assert joined == (DE.letter("a"), DE.letter("a").inverse())
        assert concat(a, invert(a)) == EMPTY_WORD

    def test_repr_names_the_word(self):
        assert repr(w(DE, "a b^-1")) == "Word(a·b⁻¹)"
        assert repr(EMPTY_WORD) == "Word(1)"

    @pytest.mark.parametrize("name", ["letters", "counts", "cyclic_key", "inverse", "extra"])
    def test_attributes_cannot_be_assigned_or_deleted(self, name):
        word = w(DE, "a b")
        before = getattr(word, name, None)  # a derived fact is cached before the attempts
        with pytest.raises(AttributeError):
            setattr(word, name, 1)
        with pytest.raises(AttributeError):
            delattr(word, name)
        assert getattr(word, name, None) == before
        assert word.counts[DE.generator("a")] == 1


class TestEveryWordIsExactlyAWord:
    """No output of the word functions is a plain tuple slice."""

    @given(reduced_words, reduced_words, st.integers(0, len(ABC) - 1))
    def test_word_functions_return_words(self, u, v, gen_index):
        g = ABC[gen_index]
        replacement = Word(sl for sl in v if sl.gen != g)
        conjugate = concat(concat(v, u), invert(v))
        tokens = " ".join(sl.gen.glyph + ("^-1" if sl.sign < 0 else "") for sl in conjugate)
        glyphs = [sl.gen.glyph for sl in u]
        outputs = [
            concat(u, v),
            substitute(u, g, replacement),
            substitute(conjugate, g, replacement),
            invert(u),
            *cyclic_reduce(u),
            *cyclic_reduce(conjugate),
            ABC.positive_word(glyphs),
            ABC.word("".join(glyphs)),
            parse_word(ABC, tokens),
            free_reduce(list(u) + list(v)),
        ]
        for x in outputs:
            assert_exact_word(x)
