import pytest

from homophonic.datasets import (
    BUILTIN_LANGUAGES,
    DatasetError,
    LanguageDataset,
    RelationRecord,
    builtin_dataset,
    load_dataset,
    parse_dataset,
    save_dataset,
    serialize_dataset,
    to_presentation,
    to_relations,
)
from homophonic.hangul import compose_syllable, decompose_text, parse_jamo
from homophonic.presentation import relator_from_relation

GERMAN_ROW = "word\twaage\twage\tscales/(I) dare\tvowel-length"

SMALL = """\
@language de
@alphabet a b c w g e
# a comment line
word\twaage\twage\tscales/(I) dare\tvowel-length
raw\ta+b\tc\tmade up\tcustom
"""


class TestParsing:
    def test_small_dataset(self):
        d = parse_dataset(SMALL)
        assert d.language == "de"
        assert d.glyphs == ("a", "b", "c", "w", "g", "e")
        assert d.records == (
            RelationRecord("word", "waage", "wage", "scales/(I) dare", "vowel-length"),
            RelationRecord("raw", "a+b", "c", "made up", "custom"),
        )

    def test_multiple_alphabet_lines_concatenate(self):
        d = parse_dataset("@language xx\n@alphabet a b\n@alphabet c\n")
        assert d.glyphs == ("a", "b", "c")

    def test_missing_language(self):
        with pytest.raises(DatasetError):
            parse_dataset("@alphabet a b\n")

    def test_missing_alphabet(self):
        with pytest.raises(DatasetError):
            parse_dataset("@language xx\n")

    def test_malformed_record_reports_line(self):
        text = "@language xx\n@alphabet a\nword\tonly-three\tfields\n"
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="bad.hq")
        assert "bad.hq:3" in str(err.value)

    def test_unknown_kind_rejected(self):
        text = "@language xx\n@alphabet a\noops\ta\ta\tg\tr\n"
        with pytest.raises(DatasetError):
            parse_dataset(text)

    def test_unknown_glyph_rejected(self):
        text = "@language xx\n@alphabet a\nword\tab\ta\tg\tr\n"
        with pytest.raises(DatasetError) as err:
            parse_dataset(text)
        assert "'b'" in str(err.value)

    def test_unknown_accented_glyph_rejected(self):
        text = "@language de\n@alphabet a q u e\nword\tq̈ue\tque\tg\tr\n"
        with pytest.raises(DatasetError) as err:
            parse_dataset(text)
        assert "q̈" in str(err.value)

    def test_korean_side_must_be_syllables(self):
        text = "@language ko\n@alphabet ㅅ ㅜ\nword\tㅅㅜ\t수\tg\tr\n"
        with pytest.raises(DatasetError):
            parse_dataset(text)

    def test_duplicate_alphabet_glyph_rejected(self):
        with pytest.raises(DatasetError):
            parse_dataset("@language xx\n@alphabet a a\n")

    def test_language_keyword_must_match_exactly(self):
        with pytest.raises(DatasetError) as err:
            parse_dataset("@languagex de\n@alphabet a\n")
        assert err.value.line == 1
        assert "'@languagex'" in str(err.value)

    def test_alphabet_keyword_must_match_exactly(self):
        with pytest.raises(DatasetError) as err:
            parse_dataset("@language de\n@alphabetical a b\n")
        assert err.value.line == 2
        assert "'@alphabetical'" in str(err.value)


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_LANGUAGES)
    def test_serialize_then_parse_is_identity(self, name, tmp_path):
        d = builtin_dataset(name)
        path = tmp_path / f"{name}.hq"
        save_dataset(d, path)
        assert load_dataset(path) == d

    def test_serialization_is_tab_separated(self):
        d = parse_dataset(SMALL)
        text = serialize_dataset(d)
        assert GERMAN_ROW in text.splitlines()


class TestBuiltinCorpora:
    def test_german_shape(self):
        d = builtin_dataset("german")
        assert len(d.glyphs) == 30
        assert len(d.records) == 30
        assert to_presentation(d).relators and len(to_presentation(d).relators) == 30

    def test_korean_shape(self):
        d = builtin_dataset("korean")
        assert len(d.glyphs) == 39
        assert all(len(g) == 1 for g in d.glyphs)
        kinds = {r.kind for r in d.records}
        assert kinds == {"word", "raw"}

    def test_turkish_shape(self):
        d = builtin_dataset("turkish")
        assert len(d.glyphs) == 29
        assert len(d.records) == 6
        p = to_presentation(d)
        assert len(p.alphabet) == 29
        assert len(p.relators) == 6

    def test_korean_sides_decompose_and_reparse(self):
        d = builtin_dataset("korean")
        for record in d.records:
            if record.kind != "word":
                continue
            for side in (record.lhs, record.rhs):
                jamo = decompose_text(side)
                syllables = parse_jamo(jamo)
                assert "".join(compose_syllable(s) for s in syllables) == side

    @pytest.mark.parametrize("name", BUILTIN_LANGUAGES)
    def test_no_record_is_vacuous(self, name):
        d = builtin_dataset(name)
        for relation in to_relations(d):
            assert relator_from_relation(relation), relation.provenance

    def test_empty_dataset_has_no_relators(self):
        d = parse_dataset("@language xx\n@alphabet a\n")
        assert to_presentation(d).relators == ()

    def test_unknown_builtin_name(self):
        with pytest.raises(DatasetError):
            builtin_dataset("french")
