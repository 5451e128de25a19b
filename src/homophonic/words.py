"""Free-group words over glyph alphabets.

Generators are whole grapheme clusters ("a", "ss-zet", "soft g", Hangul jamo),
words are freely reduced sequences of signed generators, and every operation
here is a pure function on immutable values.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

INVERSE_MARK = "⁻¹"  # superscript minus one
ASCII_INVERSE_MARK = "^-1"
LETTER_SEPARATOR = "·"  # middle dot
EMPTY_WORD_DISPLAY = "1"


class AlphabetError(ValueError):
    """Malformed alphabet definition (duplicate or non-atomic glyphs)."""

    def __init__(self, message: str, index: int):
        self.index = index  # the bad glyph's position in the glyph sequence
        super().__init__(message)


class UnknownGlyphError(ValueError):
    """A glyph that is not a generator of the alphabet in use."""

    def __init__(self, glyph: str, position: int | None = None):
        self.glyph = glyph
        self.position = position
        where = "" if position is None else f" at position {position}"
        super().__init__(f"unknown glyph {glyph!r}{where}")


class AlphabetMismatchError(ValueError):
    """Letters from two different alphabets mixed in one word."""


class SelfReferenceError(ValueError):
    """Substitution whose replacement still contains the replaced generator."""


class Generator(NamedTuple):
    """One alphabet symbol; ``id`` is its 0-based position in the alphabet."""

    id: int
    glyph: str
    language: str


class SignedLetter(NamedTuple):
    gen: Generator
    sign: int  # +1 or -1

    def inverse(self) -> "SignedLetter":
        # tuple.__new__ skips the named tuple's Python-level __new__.
        return tuple.__new__(SignedLetter, (self.gen, -self.sign))


def split_graphemes(text: str) -> list[str]:
    """Split text into grapheme clusters after composing to NFC.

    Combining marks attach to the preceding base character, so decomposed and
    precomposed spellings of the same letter tokenize identically.
    """
    clusters: list[str] = []
    for ch in unicodedata.normalize("NFC", text):
        if clusters and unicodedata.combining(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


class Alphabet:
    """Ordered collection of unique glyphs acting as free-group generators."""

    def __init__(self, language: str, glyphs: Iterable[str]):
        self.language = language
        gens: list[Generator] = []
        seen: set[str] = set()
        for index, glyph in enumerate(glyphs):
            glyph = unicodedata.normalize("NFC", glyph)
            if len(split_graphemes(glyph)) != 1:
                raise AlphabetError(f"glyph {glyph!r} is not a single grapheme cluster", index)
            if glyph in seen:
                raise AlphabetError(f"duplicate glyph {glyph!r}", index)
            seen.add(glyph)
            gens.append(Generator(index, glyph, language))
        self.generators: tuple[Generator, ...] = tuple(gens)
        self._letters = {g.glyph: SignedLetter(g, 1) for g in self.generators}

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __contains__(self, glyph: str) -> bool:
        return unicodedata.normalize("NFC", glyph) in self._letters

    def __getitem__(self, gen_id: int) -> Generator:
        return self.generators[gen_id]

    def __repr__(self) -> str:
        return f"Alphabet({self.language!r}, {len(self)} generators)"

    def letter(self, glyph: str, position: int | None = None) -> SignedLetter:
        """The positive letter of ``glyph``, in any Unicode normal form."""
        # Keys are NFC, so an exact hit is the letter NFC would find.
        sl = self._letters.get(glyph) or self._letters.get(unicodedata.normalize("NFC", glyph))
        if sl is None:
            raise UnknownGlyphError(glyph, position)
        return sl

    def generator(self, glyph: str, position: int | None = None) -> Generator:
        return self.letter(glyph, position).gen

    def word(self, text: str) -> "Word":
        """Tokenize plain text (no inverse marks) into a word, one generator
        per grapheme cluster."""
        return Word(tuple(self.letter(c, i) for i, c in enumerate(split_graphemes(text))))


@dataclass(frozen=True)
class Word:
    """A word, freely reduced on construction; the empty word is the identity."""

    letters: tuple[SignedLetter, ...] = ()

    def __post_init__(self):
        language = self.letters[0].gen.language if self.letters else None
        stack: list[SignedLetter] = []
        for i, sl in enumerate(self.letters):
            gen, sign = sl
            if sign not in (1, -1):
                raise ValueError(f"bad sign {sign} at position {i}")
            if gen.language != language:
                raise AlphabetMismatchError(
                    f"mixed alphabets: {language!r} and {gen.language!r}"
                )
            if stack and stack[-1].sign == -sign and stack[-1].gen == gen:
                stack.pop()
            else:
                stack.append(sl)
        object.__setattr__(self, "letters", tuple(stack))

    @cached_property
    def counts(self) -> Mapping[Generator, int]:
        """Occurrences of each generator, ignoring sign, in order of id; 0 if absent."""
        return MappingProxyType(Counter(sorted(sl.gen for sl in self.letters)))

    @cached_property
    def cyclic_key(self) -> tuple[int, ...]:
        """Least rotation of the word or of its inverse, letters as ±(id+1); equal
        exactly for words of one alphabet that are equal up to rotation and inversion."""
        seq = [sl.sign * (sl.gen.id + 1) for sl in self.letters]
        inv = [-x for x in reversed(seq)]
        least = min(seq + inv, default=0)  # every least rotation starts with it (Booth 1980)
        rotations = (v[k:] + v[:k] for v in (seq, inv) for k, x in enumerate(v) if x == least)
        return tuple(min(rotations, default=()))

    @cached_property
    def inverse(self) -> "Word":
        """The inverse word; reversing a freely reduced word keeps it reduced."""
        return _reduced(tuple([sl.inverse() for sl in reversed(self.letters)]))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[SignedLetter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"Word({display(self)})"


EMPTY_WORD = Word()


def _reduced(letters: tuple[SignedLetter, ...]) -> Word:
    """A Word of letters already freely reduced over one alphabet, not walked again."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def free_reduce(raw: Iterable[SignedLetter]) -> Word:
    """The unique freely reduced word equal to ``raw`` in the free group."""
    return Word(tuple(raw))


def invert(w: Word) -> Word:
    return w.inverse


def concat(u: Word, v: Word) -> Word:
    return free_reduce(u.letters + v.letters)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` as conjugator * core * conjugator^-1.

    The core is cyclically reduced: its first and last letters are not
    mutually inverse.  It is ``w`` itself when nothing peels off, and empty
    only when ``w`` is empty.
    """
    ls = w.letters
    i, j = 0, len(ls) - 1
    while i < j and ls[i].gen == ls[j].gen and ls[i].sign != ls[j].sign:
        i += 1
        j -= 1
    return (_reduced(ls[i : j + 1]), _reduced(ls[:i])) if i else (w, EMPTY_WORD)


def occurrences(w: Word, g: Generator) -> int:
    """How many letters of ``w`` reference ``g``, ignoring sign."""
    return w.counts[g]


def substitute(w: Word, g: Generator, replacement: Word) -> Word:
    """Replace every signed ``g`` by ``replacement`` and reduce; ``w`` if ``g`` is absent."""
    if occurrences(replacement, g):
        raise SelfReferenceError(f"replacement for {g.glyph!r} contains itself")
    if not occurrences(w, g):
        return w
    inverse_replacement = invert(replacement)
    out: list[SignedLetter] = []
    for sl in w.letters:
        if sl.gen == g:
            out.extend(replacement.letters if sl.sign > 0 else inverse_replacement.letters)
        else:
            out.append(sl)
    return free_reduce(out)


def display(w: Word, ascii_inverse: bool = False) -> str:
    """Render a word: glyphs joined by a middle dot, empty word as "1"."""
    if not w.letters:
        return EMPTY_WORD_DISPLAY
    mark = ASCII_INVERSE_MARK if ascii_inverse else INVERSE_MARK
    return LETTER_SEPARATOR.join(
        sl.gen.glyph + (mark if sl.sign < 0 else "") for sl in w.letters
    )


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse whitespace-separated tokens like ``w a a g e e^-1 g^-1``.

    Each token is a glyph with an optional inverse suffix, either the
    superscript form or the ASCII fallback ``^-1``.
    """
    letters = []
    for i, token in enumerate(text.split()):
        for mark in (INVERSE_MARK, ASCII_INVERSE_MARK):
            if token.endswith(mark) and len(token) > len(mark):
                letters.append(alphabet.letter(token[: -len(mark)], i).inverse())
                break
        else:
            letters.append(alphabet.letter(token, i))
    return free_reduce(letters)
