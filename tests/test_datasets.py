import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_reduced, inverse_oracle, reduce_oracle, strip_outer_oracle
from homophonic import datasets
from homophonic.datasets import (
    BUILTIN_LANGUAGES,
    DatasetError,
    LanguageDataset,
    builtin_data_dir,
    builtin_dataset,
    load_dataset,
    parse_dataset,
    save_dataset,
    serialize_dataset,
    to_presentation,
    to_relations,
)
from homophonic.hangul import compose_syllable, decompose_text, parse_jamo
from homophonic.presentation import Provenance, relator_from_relation
from homophonic.words import Alphabet

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
            Provenance("word", "waage", "wage", "scales/(I) dare", "vowel-length"),
            Provenance("raw", "a+b", "c", "made up", "custom"),
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

    def test_bad_record_reports_its_line(self):
        text = (
            "@language xx\n@alphabet a b\n# comment\n"
            "raw\ta\tb\tg\tr\n\nword\tac\ta\tg\tr\n"
        )
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="bad.hq")
        assert err.value.line == 6
        assert str(err.value).startswith("bad.hq:6: ")
        assert "unknown glyph 'c'" in str(err.value)

    @pytest.mark.parametrize(
        "data, line",
        [(b"\xff\xfe@language de\n", 1), (b"@language de\n@alphabet a\n# caf\xe9\n", 3)],
        ids=["first-line", "third-line"],
    )
    def test_non_utf8_file_reports_its_line(self, tmp_path, data, line):
        path = tmp_path / "bad.hq"
        path.write_bytes(data)
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"{path}:{line}: ")
        assert "not UTF-8" in str(err.value)

    def test_only_newline_ends_a_line(self):
        text = "@language de\n@alphabet a b\n# note\x0cpage\nword\tab\tba\tone\u2028two\tr\n"
        d = parse_dataset(text)
        assert d.records == (Provenance("word", "ab", "ba", "one\u2028two", "r"),)

    def test_crlf_file_parses(self):
        assert parse_dataset(SMALL.replace("\n", "\r\n")) == parse_dataset(SMALL)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.hq"
        path.write_bytes(b"\xef\xbb\xbf" + SMALL.encode("utf-8"))
        assert load_dataset(path) == parse_dataset(SMALL)
        assert parse_dataset("\ufeff" + SMALL) == parse_dataset(SMALL)

    def test_non_utf8_byte_after_a_byte_order_mark_reports_its_line(self, tmp_path):
        path = tmp_path / "bom.hq"
        path.write_bytes(b"\xef\xbb\xbf@language de\n@alphabet a\n# caf\xff\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}:3: byte 0xff is not UTF-8")

    def test_bad_record_after_a_form_feed_reports_its_line(self):
        text = "@language de\n@alphabet a b\n# note\x0cpage\nword\tac\ta\tg\tr\n"
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="f.hq")
        assert err.value.line == 4
        assert str(err.value).startswith("f.hq:4: record ('ac' = 'a'): unknown glyph 'c'")

    def test_non_utf8_byte_after_a_form_feed_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.hq"
        path.write_bytes(b"@language de\n# note\x0cpage\n# caf\xe9\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}:3: ")

    def test_decomposed_letter_in_a_word_record_is_the_nfc_generator(self):
        d = parse_dataset("@language de\n@alphabet w a ä g e\nword\twa\u0308ge\twage\tg\tr\n")
        umlaut = to_relations(d)[0].lhs.letters[1].gen
        assert umlaut == d.alphabet().generator("\u00e4")
        assert umlaut.glyph == "\u00e4"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "# x\n@language xx\n@alphabet a b\nraw\ta+b\tb\tg\tr\nraw\tb\ta+c\tg\tr\n",
                "f.hq:5: record ('b' = 'a+c'): unknown glyph 'c' at position 1",
            ),
            (
                "@language ko\n@alphabet ㄱ ㅅ ㅜ\n\nword\t수\t숙\tg\tr\nword\t수\t사\tg\tr\n",
                "f.hq:5: record ('수' = '사'): unknown glyph 'ㅏ' at position 1",
            ),
        ],
        ids=["raw", "korean"],
    )
    def test_unknown_glyph_keeps_its_line_and_message(self, text, message):
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="f.hq")
        assert err.value.line == 5
        assert str(err.value) == message

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

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("@language de\n@alphabet a b\n# c\n@alphabet a c\n", 4, "duplicate glyph 'a'"),
            ("@language de\n@alphabet a bc\n", 2, "glyph 'bc' is not a single grapheme"),
        ],
        ids=["duplicate", "nonatomic"],
    )
    def test_bad_alphabet_glyph_reports_its_line(self, text, line, message):
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="bad.hq")
        assert err.value.line == line
        assert str(err.value).startswith(f"bad.hq:{line}: {message}")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("@language de\n@alphabet a b\n@alphabet c a\n@alphabet d\n", 3, "duplicate glyph 'a'"),
            ("@language de\n@alphabet a\n@alphabet bc\n@alphabet d\n", 3, "glyph 'bc' is not"),
        ],
        ids=["duplicate", "nonatomic"],
    )
    def test_bad_glyph_is_reported_at_its_own_alphabet_line(self, text, line, message):
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="bad.hq")
        assert err.value.line == line
        assert str(err.value).startswith(f"bad.hq:{line}: {message}")

    def test_a_parse_builds_one_alphabet(self, monkeypatch):
        builds = []

        class CountingAlphabet(Alphabet):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(datasets, "Alphabet", CountingAlphabet)
        text = (builtin_data_dir() / "korean.hq").read_text(encoding="utf-8")
        assert text.count("@alphabet") > 1
        parse_dataset(text)
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("@alphabet a\n@language  \n", 2, "@language needs a tag"),
            ("@language de\n@alphabet a\n@language tr\n", 3, "duplicate @language line"),
        ],
        ids=["no-tag", "duplicate"],
    )
    def test_bad_language_header_reports_its_line(self, text, line, message):
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="bad.hq")
        assert err.value.line == line
        assert str(err.value) == f"bad.hq:{line}: {message}"

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

    def test_serialization_writes_no_byte_order_mark(self, tmp_path):
        d = parse_dataset("\ufeff" + SMALL)
        assert serialize_dataset(d) == serialize_dataset(parse_dataset(SMALL))
        save_dataset(d, tmp_path / "out.hq")
        assert (tmp_path / "out.hq").read_bytes().startswith(b"@language de\n")

    def test_dataset_of_provenance_records_parses_back_equal(self):
        records = (
            Provenance("word", "ab", "ba", "swap", "made up"),
            Provenance("raw", "a+b", "", "", ""),
        )
        d = LanguageDataset("de", ("a", "b"), records)
        assert parse_dataset(serialize_dataset(d)) == d

    def test_default_provenance_is_a_vacuous_raw_record(self):
        d = LanguageDataset("de", ("a",), (Provenance(),))
        assert parse_dataset(serialize_dataset(d)) == d
        assert to_presentation(d).relators == ()

    def test_serialization_is_tab_separated(self):
        d = parse_dataset(SMALL)
        text = serialize_dataset(d)
        assert GERMAN_ROW in text.splitlines()

    @pytest.mark.parametrize(
        "language, glyphs, record, named",
        [
            ("de", ("a",), ("word", "a", "a", "x\ty", "r"), "record ('a' = 'a')"),
            ("de", ("a",), ("word", "a", "a", "x\ny", "r"), "record ('a' = 'a')"),
            ("de", ("a",), ("word", "a", "a", "g", "r\r"), "record ('a' = 'a')"),
            ("de", ("a",), ("raw", "a\t", "a", "g", "r"), "record ('a\\t' = 'a')"),
            ("d\te", ("a",), None, "language tag 'd\\te'"),
            ("de\n", ("a",), None, "language tag 'de\\n'"),
            ("de\r", ("a",), None, "language tag 'de\\r'"),
            ("de", ("a", " ", "b"), None, "glyph ' '"),
            ("de", ("a", ""), None, "glyph ''"),
            ("de", ("a\u2028",), None, "glyph 'a\\u2028'"),
            ("de", ("a", "a"), None, "duplicate glyph 'a'"),
            ("de", ("ab",), None, "glyph 'ab' is not a single grapheme"),
        ],
        ids=[
            "tab-in-gloss",
            "newline-in-gloss",
            "cr-in-ref",
            "tab-in-lhs",
            "tab-in-language",
            "newline-in-language",
            "cr-in-language",
            "space-glyph",
            "empty-glyph",
            "line-separator-in-glyph",
            "duplicate-glyph",
            "nonatomic-glyph",
        ],
    )
    def test_serialize_refuses_what_cannot_parse_back(self, language, glyphs, record, named):
        records = (Provenance(*record),) if record else ()
        with pytest.raises(DatasetError) as err:
            serialize_dataset(LanguageDataset(language, glyphs, records))
        assert named in str(err.value)

    @settings(max_examples=300)
    @given(st.data())
    def test_every_written_dataset_parses_back_equal(self, data):
        def mostly(common, rare):
            return data.draw(rare if data.draw(st.integers(0, 7)) == 0 else common)

        plain = st.text(st.sampled_from("ab #@+\x0c\x1c\x85\u2028"), max_size=5)
        with_breaks = st.text(st.sampled_from("ab #@+\t\n\r\x0c\u2028"), max_size=5)
        language = mostly(st.sampled_from(["de", "d e", "#"]), st.just(" de") | with_breaks)
        good = ["a", "b", "\u00e4", "#", "@"]
        glyphs = mostly(
            st.lists(st.sampled_from(good), min_size=1, max_size=4, unique=True),
            st.lists(st.sampled_from(good + [" ", "", "a b", "\x1c", "\u2028"]), max_size=4),
        )
        records = []
        for _ in range(data.draw(st.integers(0, 3))):
            kind = mostly(st.sampled_from(["word", "raw"]), st.just("oops"))
            joiner = "+" if kind == "raw" else ""
            side = st.lists(st.sampled_from(glyphs or ["a"]), max_size=3).map(joiner.join)
            lhs, rhs = mostly(side, with_breaks), mostly(side, with_breaks)
            gloss, ref = mostly(plain, with_breaks), mostly(plain, with_breaks)
            records.append(Provenance(kind, lhs, rhs, gloss, ref))
        d = LanguageDataset(language, tuple(glyphs), tuple(records))
        try:
            text = serialize_dataset(d)
        except ValueError:
            return
        assert parse_dataset(text) == d

    @settings(max_examples=300)
    @given(st.data())
    def test_every_parsed_dataset_serializes_and_parses_back_equal(self, data):
        def mostly(common, rare):
            return data.draw(rare if data.draw(st.integers(0, 3)) == 0 else common)

        odd = st.text(st.sampled_from("ab #@+\t\r\x0c\u2028"), min_size=1, max_size=5)
        language = mostly(st.sampled_from(["de", "d e", "#"]), odd)
        glyphs = mostly(st.sampled_from(["a b", "a b \u00e4", "# @ a"]), odd)
        lines = [f"@language {language}", f"@alphabet {glyphs}"]
        for _ in range(data.draw(st.integers(0, 3))):
            kind = mostly(st.sampled_from(["word", "raw"]), st.just("oops"))
            side = st.sampled_from(["a", "ab", "a+b", ""])
            fields = [kind, mostly(side, odd), mostly(side, odd), mostly(side, odd), "r"]
            lines.append(mostly(st.just("\t".join(fields)), odd.map("# ".__add__)))
        ending = st.sampled_from(["\n", "\r\n", "\r\r\n"])
        text = "".join(line + data.draw(ending) for line in lines)
        try:
            d = parse_dataset(text)
        except DatasetError:
            return
        assert parse_dataset(serialize_dataset(d)) == d

    @pytest.mark.parametrize(
        "text, line, named",
        [
            ("@language d\te\n@alphabet a\n", 1, "language tag 'd\\te' holds a tab"),
            ("@language d\re\n@alphabet a\n", 1, "language tag 'd\\re' holds a tab"),
            ("@language de\n@alphabet a\nword\ta\ta\tgl\ross\tr\n", 3, "carriage return"),
            ("@language de\n@alphabet a\nword\ta\ta\tg\tr\r\r\n", 3, "carriage return"),
        ],
        ids=["tab-in-tag", "cr-in-tag", "cr-in-gloss", "two-crs-ending-a-record"],
    )
    def test_what_could_not_be_saved_is_a_located_load_error(self, text, line, named):
        with pytest.raises(DatasetError) as err:
            parse_dataset(text, source="f.hq")
        assert err.value.line == line
        assert named in str(err.value)

    def test_carriage_returns_the_strip_or_split_drops_still_load(self):
        text = "@language de\r\r\n@alphabet a b\r\r\n# note\r\r\nword\ta\tb\tg\tr\r\n"
        d = parse_dataset(text)
        assert (d.language, d.glyphs, len(d.records)) == ("de", ("a", "b"), 1)
        assert parse_dataset(serialize_dataset(d)) == d


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

    def test_korean_presentation_keeps_duplicate_relators(self):
        # One row per non-vacuous record for the certificate; only the
        # simplifier drops duplicates.
        assert len(to_presentation(builtin_dataset("korean")).relators) == 38

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

    @pytest.mark.parametrize("name", BUILTIN_LANGUAGES)
    def test_relators_are_the_oracle_cores(self, name):
        for relation in to_relations(builtin_dataset(name)):
            assert_reduced(relation.lhs)
            assert_reduced(relation.rhs)
            unreduced = list(relation.lhs.letters) + inverse_oracle(relation.rhs.letters)
            core, _ = strip_outer_oracle(tuple(reduce_oracle(unreduced)))
            assert relator_from_relation(relation).letters == tuple(core), relation.provenance

    def test_dataset_keeps_its_words_and_alphabet(self):
        d = builtin_dataset("korean")
        first, second = to_relations(d), to_relations(d)
        assert all(a.lhs is b.lhs and a.rhs is b.rhs for a, b in zip(first, second))
        assert d.alphabet() is d.alphabet()
        assert to_presentation(d).alphabet is d.alphabet()

    def test_dataset_built_in_code_names_its_bad_record(self):
        d = LanguageDataset("de", ("a", "b"), (Provenance("word", "ab", "ac", "g", "r"),))
        with pytest.raises(DatasetError, match=r"record \('ab' = 'ac'\): unknown glyph 'c'"):
            to_presentation(d)

    @pytest.mark.parametrize(
        "entry",
        [to_presentation, to_relations, LanguageDataset.alphabet],
        ids=["to_presentation", "to_relations", "alphabet"],
    )
    @pytest.mark.parametrize(
        "glyphs, index, message",
        [(("a", "a"), 1, "duplicate glyph 'a'"), (("ab",), 0, "not a single grapheme cluster")],
        ids=["duplicate", "non-atomic"],
    )
    def test_dataset_built_in_code_names_its_bad_glyph(self, entry, glyphs, index, message):
        with pytest.raises(DatasetError, match=message) as err:
            entry(LanguageDataset("de", glyphs, ()))
        assert err.value.glyph == index

    def test_presentation_origins_are_the_dataset_records(self):
        d = builtin_dataset("korean")
        records = {id(r) for r in d.records}
        assert all(id(origin) in records for origin in to_presentation(d).origins)

    def test_relation_provenance_is_its_record(self):
        d = builtin_dataset("korean")
        assert all(rel.provenance is r for rel, r in zip(to_relations(d), d.records, strict=True))

    def test_empty_dataset_has_no_relators(self):
        d = parse_dataset("@language xx\n@alphabet a\n")
        assert to_presentation(d).relators == ()

    def test_unknown_builtin_name(self):
        with pytest.raises(DatasetError):
            builtin_dataset("french")
