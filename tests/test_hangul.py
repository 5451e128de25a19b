import random

import pytest

from helpers import all_jamo_segmentations
from homophonic.hangul import (
    SYLLABLE_BASE,
    SYLLABLE_COUNT,
    InvalidTailError,
    JamoParseError,
    NotASyllableError,
    SyllableDecomposition,
    compose_syllable,
    decompose_syllable,
    decompose_text,
    parse_jamo,
)


class TestDecomposeSyllable:
    def test_simple_open_syllable(self):
        assert decompose_syllable("수") == SyllableDecomposition("ㅅ", "ㅜ")

    def test_tense_tail_stays_single(self):
        assert decompose_syllable("밖") == SyllableDecomposition("ㅂ", "ㅏ", ("ㄲ",))

    def test_cluster_tail_splits_in_two(self):
        assert decompose_syllable("넓") == SyllableDecomposition("ㄴ", "ㅓ", ("ㄹ", "ㅂ"))

    def test_compound_vowel_stays_atomic(self):
        assert decompose_syllable("돼") == SyllableDecomposition("ㄷ", "ㅙ")

    def test_non_syllable_rejected(self):
        for ch in ("a", "ㅏ", "꯿"):
            with pytest.raises(NotASyllableError):
                decompose_syllable(ch)


class TestComposeSyllable:
    def test_simple(self):
        assert compose_syllable(SyllableDecomposition("ㅅ", "ㅜ")) == "수"

    def test_cluster_tail_joins(self):
        assert compose_syllable(SyllableDecomposition("ㄴ", "ㅓ", ("ㄹ", "ㅂ"))) == "넓"
        assert compose_syllable(SyllableDecomposition("ㄱ", "ㅏ", ("ㄱ", "ㅅ"))) == "갃"

    def test_invalid_tail_pair(self):
        with pytest.raises(InvalidTailError):
            compose_syllable(SyllableDecomposition("ㄱ", "ㅏ", ("ㄱ", "ㄱ")))

    def test_tense_lead_cannot_end_a_syllable(self):
        with pytest.raises(InvalidTailError):
            compose_syllable(SyllableDecomposition("ㄱ", "ㅏ", ("ㄸ",)))

    def test_round_trip_all_precomposed_syllables(self):
        for code in range(SYLLABLE_BASE, SYLLABLE_BASE + SYLLABLE_COUNT):
            s = chr(code)
            assert compose_syllable(decompose_syllable(s)) == s


class TestDecomposeText:
    def test_silent_lead_is_kept(self):
        assert decompose_text("안일") == ["ㅇ", "ㅏ", "ㄴ", "ㅇ", "ㅣ", "ㄹ"]

    def test_single_syllable(self):
        assert decompose_text("수") == ["ㅅ", "ㅜ"]

    def test_empty_text(self):
        assert decompose_text("") == []

    def test_error_carries_position(self):
        with pytest.raises(NotASyllableError) as err:
            decompose_text("수a")
        assert err.value.position == 1

    def test_length_is_sum_of_two_plus_tail(self):
        text = "넓다안일밖"
        expected = sum(2 + len(decompose_syllable(ch).tail) for ch in text)
        assert len(decompose_text(text)) == expected


class TestParseJamo:
    def test_recovers_two_syllables(self):
        parsed = parse_jamo(["ㅇ", "ㅏ", "ㄴ", "ㅇ", "ㅣ", "ㄹ"])
        assert parsed == [
            SyllableDecomposition("ㅇ", "ㅏ", ("ㄴ",)),
            SyllableDecomposition("ㅇ", "ㅣ", ("ㄹ",)),
        ]
        assert [compose_syllable(d) for d in parsed] == ["안", "일"]

    def test_single_block(self):
        assert parse_jamo(["ㅅ", "ㅜ"]) == [SyllableDecomposition("ㅅ", "ㅜ")]

    def test_must_start_with_consonant(self):
        with pytest.raises(JamoParseError) as err:
            parse_jamo(["ㅜ", "ㅅ"])
        assert err.value.position == 0

    def test_vowel_needs_a_lead(self):
        with pytest.raises(JamoParseError):
            parse_jamo(["ㅅ", "ㅜ", "ㅏ"])

    def test_overlong_consonant_run(self):
        with pytest.raises(JamoParseError) as err:
            parse_jamo(["ㅅ", "ㅜ", "ㄱ", "ㄴ", "ㄷ", "ㄹ", "ㅁ", "ㅏ"])
        assert "consonant run" in str(err.value)

    def test_trailing_tail_too_long(self):
        with pytest.raises(JamoParseError) as err:
            parse_jamo(["ㅅ", "ㅜ", "ㄱ", "ㄴ", "ㄷ"])
        assert "trailing" in str(err.value)

    def test_no_vowel_at_all(self):
        with pytest.raises(JamoParseError):
            parse_jamo(["ㅅ", "ㄱ"])

    def test_non_korean_character(self):
        with pytest.raises(JamoParseError):
            parse_jamo(["ㅅ", "x"])

    @pytest.mark.parametrize("seq", ["ㄱㅏㄸ", "ㄱㅏㄱㄱ", "ㄱㅏㅃㄱㅏ"])
    def test_tail_no_syllable_carries_is_rejected_at_the_tail(self, seq):
        with pytest.raises(JamoParseError) as err:
            parse_jamo(seq)
        assert err.value.position == 2


class TestUniqueness:
    def test_flatten_then_parse_is_identity_and_unique(self):
        rng = random.Random(20260809)
        for _ in range(300):
            syllables = [
                decompose_syllable(chr(SYLLABLE_BASE + rng.randrange(SYLLABLE_COUNT)))
                for _ in range(rng.randint(1, 10))
            ]
            flat: list[str] = []
            for d in syllables:
                flat.extend(d.jamo())
            assert parse_jamo(flat) == syllables
            segmentations = all_jamo_segmentations(flat)
            assert segmentations == [[d.jamo() for d in syllables]]
