"""Homophone dataset files: format, validation, and the bundled corpora.

A dataset file is UTF-8 text whose lines end at a line feed; a leading
byte-order mark and a carriage return before a line feed are dropped, and
any other carriage return in a record line or the language tag is an error.
Header lines are ``@language <tag>`` and one or more ``@alphabet <glyph>
<glyph> ...`` lines (concatenated in order); ``#`` starts a comment.
Record lines carry five tab-separated fields:

    kind    "word" or "raw"
    lhs     left side
    rhs     right side
    gloss   free text
    ref     free text provenance tag

Word records hold words in the language's script; for Korean that means
precomposed syllables, which flatten straight to the alphabet's letters on
ingestion, through jamo-to-letter tables built once per dataset.  Raw
records hold "+"-separated generator glyphs on each side.  A ``LanguageDataset``
checks its alphabet and every record when it is built, so one that exists is valid.
"""

from __future__ import annotations

from pathlib import Path

from . import hangul
from .presentation import Presentation, Provenance, Relation
from .words import Alphabet, AlphabetError, Value, Word, _reduced

KOREAN_LANGUAGE_TAG = "ko"
RECORD_FIELDS = 5


class DatasetError(ValueError):
    """A bad dataset; ``record`` or ``glyph`` is the index a ``LanguageDataset`` refused."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None,
                 record: int | None = None, glyph: int | None = None):
        self.line, self.source, self.record, self.glyph = line, source, record, glyph
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


class LanguageDataset(Value):
    """Builds its alphabet and relations when built, raising ``DatasetError`` on a bad glyph or
    record; each relation's provenance is its record, which presentations and traces hold."""

    __match_args__ = _compared = ("language", "glyphs", "records")

    def __init__(self, language: str, glyphs: tuple[str, ...], records: tuple[Provenance, ...]):
        super().__init__(language, tuple(glyphs), tuple(records))
        try:
            alphabet = Alphabet(self.language, self.glyphs)
        except AlphabetError as exc:
            raise DatasetError(str(exc), glyph=exc.index) from None
        tables = _letter_tables(alphabet) if self.language == KOREAN_LANGUAGE_TAG else None
        relations = []
        for index, r in enumerate(self.records):
            try:
                lhs = _side_word(alphabet, tables, r.kind, r.lhs)
                rhs = _side_word(alphabet, tables, r.kind, r.rhs)
            except ValueError as exc:
                raise DatasetError(f"record ({r.lhs!r} = {r.rhs!r}): {exc}", record=index) from None
            relations.append(Relation(lhs, rhs, r))
        self.__dict__.update(_alphabet=alphabet, _relations=tuple(relations))

    def alphabet(self) -> Alphabet:
        return self._alphabet


def parse_dataset(text: str, source: str = "<string>") -> LanguageDataset:
    language: str | None = None
    glyphs: list[str] = []
    glyph_lines: list[int] = []
    records: list[Provenance] = []
    record_lines: list[int] = []
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("@"):
            keyword = line.split(None, 1)[0]
            value = line[len(keyword) :]
            if keyword == "@language":
                if not value.strip():
                    raise DatasetError("@language needs a tag", lineno, source)
                if language is not None:
                    raise DatasetError("duplicate @language line", lineno, source)
                language = value.strip()
                if "\t" in language or "\r" in language:
                    message = f"language tag {language!r} holds a tab or a carriage return"
                    raise DatasetError(message, lineno, source)
            elif keyword == "@alphabet":
                glyphs.extend(value.split())
                glyph_lines.extend([lineno] * (len(glyphs) - len(glyph_lines)))
            else:
                raise DatasetError(f"unknown header {keyword!r}", lineno, source)
        else:
            if "\r" in line:
                raise DatasetError("record holds a carriage return", lineno, source)
            fields = line.split("\t")
            if len(fields) != RECORD_FIELDS:
                raise DatasetError(
                    f"expected {RECORD_FIELDS} tab-separated fields, got {len(fields)}",
                    lineno,
                    source,
                )
            records.append(Provenance(*fields))
            record_lines.append(lineno)
    if language is None:
        raise DatasetError("missing @language header", source=source)
    if not glyphs:
        raise DatasetError("missing @alphabet header", source=source)
    try:
        return LanguageDataset(language, tuple(glyphs), tuple(records))
    except DatasetError as exc:
        line = record_lines[exc.record] if exc.glyph is None else glyph_lines[exc.glyph]
        raise DatasetError(str(exc), line, source, exc.record, exc.glyph) from None


def _letter_tables(alphabet: Alphabet) -> tuple:
    """``hangul.JAMO_TABLES`` with each jamo read as its letter of ``alphabet``, or None."""
    leads, vowels, tails = hangul.JAMO_TABLES
    get = alphabet._letters.get
    return tuple(map(get, leads)), tuple(map(get, vowels)), tuple(tuple(map(get, t)) for t in tails)


def _side_word(alphabet: Alphabet, tables: tuple | None, kind: str, side: str) -> Word:
    """``tables`` are a Korean dataset's ``_letter_tables``, and None for other languages."""
    if kind == "raw":
        return alphabet.positive_word(side.split("+") if side else [])
    if kind != "word":
        raise ValueError(f"unknown record kind {kind!r}")
    if tables is None:
        return alphabet.word(side)
    letters = hangul.decompose_text(side, tables)
    if not all(letters):  # a jamo the alphabet lacks: the glyph path raises naming it
        return alphabet.positive_word(hangul.decompose_text(side))
    return _reduced(letters)


def load_dataset(path: str | Path) -> LanguageDataset:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(str(exc), source=str(path)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end at "\n", as parse_dataset reads them.
        line = data.count(b"\n", 0, exc.start) + 1
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise DatasetError(message, line, str(path)) from None
    return parse_dataset(text, source=str(path))


def serialize_dataset(dataset: LanguageDataset) -> str:
    """The text parse_dataset reads back as ``dataset``; refuses what the format cannot hold."""
    language = dataset.language
    if not language or language != language.strip() or any(c in language for c in "\t\n\r"):
        raise DatasetError(f"language tag {language!r} does not fit its header line")
    if not dataset.glyphs:
        raise DatasetError("an alphabet needs at least one glyph")
    for glyph in dataset.glyphs:
        if glyph.split() != [glyph]:
            raise DatasetError(f"glyph {glyph!r} is empty or holds whitespace")
    lines = [f"@language {language}", "@alphabet " + " ".join(dataset.glyphs)]
    for r in dataset.records:
        line = "\t".join((r.kind, r.lhs, r.rhs, r.gloss, r.ref))
        if line.count("\t") != RECORD_FIELDS - 1 or "\n" in line or "\r" in line:
            raise DatasetError(f"record ({r.lhs!r} = {r.rhs!r}) holds a tab or a line break")
        lines.append(line)
    return "\n".join(lines) + "\n"


def save_dataset(dataset: LanguageDataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def to_presentation(dataset: LanguageDataset) -> Presentation:
    return Presentation.from_relations(dataset.alphabet(), dataset._relations)


BUILTIN_LANGUAGES = ("german", "korean", "turkish")


def builtin_data_dir() -> Path:
    return Path(__file__).with_name("data")


def builtin_dataset(name: str) -> LanguageDataset:
    """Load a bundled corpus by name: german, korean, or turkish."""
    if name not in BUILTIN_LANGUAGES:
        raise DatasetError(f"no bundled dataset {name!r}; pick from {BUILTIN_LANGUAGES}")
    return load_dataset(builtin_data_dir() / f"{name}.hq")
