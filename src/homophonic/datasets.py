"""Homophone dataset files: format, validation, and the bundled corpora.

A dataset file is UTF-8 text.  Header lines are ``@language <tag>`` and one
or more ``@alphabet <glyph> <glyph> ...`` lines (concatenated in order);
``#`` starts a comment.  Record lines carry five tab-separated fields:

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
from importlib import resources
from pathlib import Path

from . import hangul
from .presentation import Presentation, Provenance, Relation
from .words import Alphabet, AlphabetError, SignedLetter, Word, free_reduce

KOREAN_LANGUAGE_TAG = "ko"
RECORD_FIELDS = 5
_KIND_NAMES = {"word": "word-pair", "raw": "raw-identity"}


class DatasetError(ValueError):
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
        return Alphabet(self.language, self.glyphs)


def parse_dataset(text: str, source: str = "<string>") -> LanguageDataset:
    language: str | None = None
    glyphs: list[str] = []
    records: list[RelationRecord] = []
    record_lines: list[int] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip("\n")
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
                # Alphabet owns the glyph rules.  The last one built checks the
                # records below, where its language plays no part.
                try:
                    alphabet = Alphabet("", glyphs)
                except AlphabetError as exc:
                    raise DatasetError(str(exc), lineno, source) from None
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
            kind, lhs, rhs, gloss, ref = fields
            if kind not in _KIND_NAMES:
                raise DatasetError(f"unknown record kind {kind!r}", lineno, source)
            records.append(RelationRecord(kind, lhs, rhs, gloss, ref))
            record_lines.append(lineno)
    if language is None:
        raise DatasetError("missing @language header", source=source)
    if not glyphs:
        raise DatasetError("missing @alphabet header", source=source)
    for lineno, record in zip(record_lines, records):
        for side in (record.lhs, record.rhs):
            try:
                _side_word(alphabet, language, record.kind, side)
            except ValueError as exc:
                raise DatasetError(
                    f"record ({record.lhs!r} = {record.rhs!r}): {exc}", lineno, source
                ) from None
    return LanguageDataset(language, tuple(glyphs), tuple(records))


def _side_word(alphabet: Alphabet, language: str, kind: str, side: str) -> Word:
    if kind == "raw":
        glyphs = side.split("+") if side else []
    elif language == KOREAN_LANGUAGE_TAG:
        glyphs = hangul.decompose_text(side)
    else:
        return alphabet.word(side)
    return free_reduce(
        SignedLetter(alphabet.generator(glyph, i), 1) for i, glyph in enumerate(glyphs)
    )


def load_dataset(path: str | Path) -> LanguageDataset:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(str(exc), source=str(path)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as parse_dataset does; "?" stands in for the bad byte.
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise DatasetError(message, line, str(path)) from None
    return parse_dataset(text, source=str(path))


def serialize_dataset(dataset: LanguageDataset) -> str:
    lines = [f"@language {dataset.language}"]
    lines.append("@alphabet " + " ".join(dataset.glyphs))
    for r in dataset.records:
        lines.append("\t".join((r.kind, r.lhs, r.rhs, r.gloss, r.ref)))
    return "\n".join(lines) + "\n"


def save_dataset(dataset: LanguageDataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def to_relations(dataset: LanguageDataset) -> list[Relation]:
    alphabet = dataset.alphabet()
    relations = []
    for record in dataset.records:
        lhs = _side_word(alphabet, dataset.language, record.kind, record.lhs)
        rhs = _side_word(alphabet, dataset.language, record.kind, record.rhs)
        provenance = Provenance(
            kind=_KIND_NAMES[record.kind],
            lhs=record.lhs,
            rhs=record.rhs,
            gloss=record.gloss,
            ref=record.ref,
        )
        relations.append(Relation(lhs, rhs, provenance))
    return relations


def to_presentation(dataset: LanguageDataset) -> Presentation:
    return Presentation.from_relations(dataset.alphabet(), to_relations(dataset))


BUILTIN_LANGUAGES = ("german", "korean", "turkish")


def builtin_data_dir() -> Path:
    return Path(str(resources.files("homophonic.data")))


def builtin_dataset(name: str) -> LanguageDataset:
    """Load a bundled corpus by name: german, korean, or turkish."""
    if name not in BUILTIN_LANGUAGES:
        raise DatasetError(f"no bundled dataset {name!r}; pick from {BUILTIN_LANGUAGES}")
    return load_dataset(builtin_data_dir() / f"{name}.hq")
