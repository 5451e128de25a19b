"""Homophone dataset files: format, validation, and the bundled corpora.

A dataset file is UTF-8 text whose lines end at a line feed; a leading
byte-order mark and a carriage return before a line feed are dropped.
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
from importlib import resources
from pathlib import Path

from . import hangul
from .presentation import Presentation, Provenance, Relation
from .words import Alphabet, AlphabetError, Word

KOREAN_LANGUAGE_TAG = "ko"
RECORD_FIELDS = 5
_KIND_NAMES = {"word": "word-pair", "raw": "raw-identity"}


class DatasetError(ValueError):
    record: int | None = None  # the bad record's index, when a dataset's relations fail

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RelationRecord:
    kind: str  # "word" or "raw"
    lhs: str
    rhs: str
    gloss: str
    ref: str


@dataclass(frozen=True)
class LanguageDataset:
    language: str
    glyphs: tuple[str, ...]
    records: tuple[RelationRecord, ...]

    def alphabet(self) -> Alphabet:
        return self._alphabet

    @cached_property
    def _alphabet(self) -> Alphabet:
        return Alphabet(self.language, self.glyphs)

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
            provenance = Provenance(_KIND_NAMES[r.kind], r.lhs, r.rhs, r.gloss, r.ref)
            relations.append(Relation(lhs, rhs, provenance))
        return tuple(relations)


def parse_dataset(text: str, source: str = "<string>") -> LanguageDataset:
    language: str | None = None
    glyphs: list[str] = []
    glyph_lines: list[int] = []
    records: list[RelationRecord] = []
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
            elif keyword == "@alphabet":
                glyphs.extend(value.split())
                glyph_lines.extend([lineno] * (len(glyphs) - len(glyph_lines)))
            else:
                raise DatasetError(f"unknown header {keyword!r}", lineno, source)
        else:
            fields = line.split("\t")
            if len(fields) != RECORD_FIELDS:
                raise DatasetError(
                    f"expected {RECORD_FIELDS} tab-separated fields, got {len(fields)}",
                    lineno,
                    source,
                )
            records.append(RelationRecord(*fields))
            record_lines.append(lineno)
    if language is None:
        raise DatasetError("missing @language header", source=source)
    if not glyphs:
        raise DatasetError("missing @alphabet header", source=source)
    dataset = LanguageDataset(language, tuple(glyphs), tuple(records))
    try:
        dataset._relations  # built once here, with the alphabet, which validates both
    except AlphabetError as exc:
        raise DatasetError(str(exc), glyph_lines[exc.index], source) from None
    except DatasetError as exc:
        raise DatasetError(str(exc), record_lines[exc.record], source) from None
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
    return Word(tuple(alphabet.letter(glyph, i) for i, glyph in enumerate(glyphs)))


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
    try:
        dataset._relations  # a glyph or record that fails here would fail to parse back
    except AlphabetError as exc:
        raise DatasetError(str(exc)) from None
    return "\n".join(lines) + "\n"


def save_dataset(dataset: LanguageDataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def to_relations(dataset: LanguageDataset) -> list[Relation]:
    return list(dataset._relations)


def to_presentation(dataset: LanguageDataset) -> Presentation:
    return Presentation.from_relations(dataset.alphabet(), dataset._relations)


BUILTIN_LANGUAGES = ("german", "korean", "turkish")


def builtin_data_dir() -> Path:
    return Path(str(resources.files("homophonic.data")))


def builtin_dataset(name: str) -> LanguageDataset:
    """Load a bundled corpus by name: german, korean, or turkish."""
    if name not in BUILTIN_LANGUAGES:
        raise DatasetError(f"no bundled dataset {name!r}; pick from {BUILTIN_LANGUAGES}")
    return load_dataset(builtin_data_dir() / f"{name}.hq")
