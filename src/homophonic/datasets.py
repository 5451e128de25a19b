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
precomposed syllables, which are flattened to jamo on ingestion.  Raw
records hold "+"-separated generator glyphs on each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import hangul
from .presentation import Presentation, Provenance, Relation
from .words import Alphabet, AlphabetError, Word

KOREAN_LANGUAGE_TAG = "ko"
RECORD_FIELDS = 5


class DatasetError(ValueError):
    record: int | None = None  # the bad record's index, when a dataset's relations fail
    glyph: int | None = None  # the bad glyph's index, when a dataset's alphabet fails

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class LanguageDataset:
    language: str
    glyphs: tuple[str, ...]
    records: tuple[Provenance, ...]

    def alphabet(self) -> Alphabet:
        return self._alphabet

    @cached_property
    def _alphabet(self) -> Alphabet:
        try:
            return Alphabet(self.language, self.glyphs)
        except AlphabetError as exc:
            error = DatasetError(str(exc))
            error.glyph = exc.index
            raise error from None

    @cached_property
    def _relations(self) -> tuple[Relation, ...]:
        """One relation per record, built once; raises naming the first bad record."""
        alphabet, relations = self.alphabet(), []
        for index, r in enumerate(self.records):
            try:
                lhs = _side_word(alphabet, self.language, r.kind, r.lhs)
                rhs = _side_word(alphabet, self.language, r.kind, r.rhs)
            except ValueError as exc:
                error = DatasetError(f"record ({r.lhs!r} = {r.rhs!r}): {exc}")
                error.record = index
                raise error from None
            relations.append(Relation(lhs, rhs, r))
        return tuple(relations)


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
    dataset = LanguageDataset(language, tuple(glyphs), tuple(records))
    try:
        dataset._relations  # built once here, with the alphabet, which validates both
    except DatasetError as exc:
        line = record_lines[exc.record] if exc.glyph is None else glyph_lines[exc.glyph]
        raise DatasetError(str(exc), line, source) from None
    return dataset


def _side_word(alphabet: Alphabet, language: str, kind: str, side: str) -> Word:
    if kind == "raw":
        glyphs = side.split("+") if side else []
    elif kind != "word":
        raise ValueError(f"unknown record kind {kind!r}")
    elif language == KOREAN_LANGUAGE_TAG:
        glyphs = hangul.decompose_text(side)
    else:
        return alphabet.word(side)
    return alphabet.positive_word(glyphs)


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
    """The text parse_dataset reads back as ``dataset``; refuses any other dataset."""
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
    dataset._relations  # a glyph or record that fails here would fail to parse back
    return "\n".join(lines) + "\n"


def save_dataset(dataset: LanguageDataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def to_relations(dataset: LanguageDataset) -> list[Relation]:
    return list(dataset._relations)


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
