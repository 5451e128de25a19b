"""Free-group words over glyph alphabets.

Generators are whole grapheme clusters ("a", "ss-zet", "soft g", Hangul jamo),
words are freely reduced sequences of signed generators, and every operation
here is a pure function on immutable values.  ``Word(...)`` walks its letters to
reduce them; ``concat`` and ``substitute`` join reduced pieces, cancelling only at the seams.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from functools import lru_cache
from operator import itemgetter
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


class Value:
    """An immutable value, not a tuple: it equals and hashes by its ``_compared`` fields, and
    is set, shown, copied and pickled by its ``__match_args__``, through its constructor.
    It replaces ``dataclasses``, whose import pulls ``inspect`` and ``ast`` into start-up."""

    __slots__ = __match_args__ = _compared = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__match_args__):
            raise TypeError(f"{type(self).__name__}() takes {len(self.__match_args__)} arguments")
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__


class fact:
    """A fact of an immutable value, stored in its ``__dict__`` on first read, so later reads skip
    this.  Python 3.11's ``cached_property`` takes a lock there; a fact is pure, so a race only
    computes it twice, and ``setdefault`` hands both readers the first value stored."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.compute(obj))


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


@lru_cache(maxsize=32)  # (language, glyphs) pairs whose generators and letters are kept
def _generators(language: str, glyphs: tuple[str, ...]) -> tuple[tuple[Generator, ...], dict]:
    """The checked generators of ``glyphs`` and each NFC glyph's positive letter."""
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
    return tuple(gens), {g.glyph: SignedLetter(g, 1) for g in gens}


class Alphabet:
    """Ordered collection of unique glyphs acting as free-group generators.  Alphabets of
    one language and glyphs share their generators and letters, which are never written,
    so a dataset parsed again, as by a round trip, allocates none of them again."""

    def __init__(self, language: str, glyphs: Iterable[str]):
        self.language = language
        self.generators, self._letters = _generators(language, tuple(glyphs))

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

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

    def word(self, text: str) -> "Word":
        """Tokenize plain text (no inverse marks) into a word, one generator
        per grapheme cluster."""
        return self.positive_word(split_graphemes(text))

    def positive_word(self, glyphs: Iterable[str]) -> "Word":
        """The word of each glyph's positive letter; positive letters of one
        alphabet never cancel, so no reduction walk runs."""
        get = self._letters.get
        return _reduced([get(c) or self.letter(c, i) for i, c in enumerate(glyphs)])


class Word(tuple):
    """A word, freely reduced on construction; the empty word is the identity.  It equals
    the tuple of its letters; a slice is a plain tuple, and ``+`` is not ``concat``."""

    def __new__(cls, letters: Iterable[SignedLetter] = ()):
        letters = tuple(letters)
        language = None  # the first letter's
        stack: list[SignedLetter] = []
        for i, sl in enumerate(letters):
            if type(sl) is not SignedLetter or type(sl[0]) is not Generator:
                raise ValueError(f"bad letter {sl!r} at position {i}")
            gen, sign = sl
            if type(sign) is not int or sign not in (1, -1):  # not 1.0, not True
                raise ValueError(f"bad sign {sign} at position {i}")
            if gen.language != language:
                if i:
                    raise AlphabetMismatchError(f"mixed alphabets: {language!r} and"
                                                f" {gen.language!r}")
                language = gen.language
            if stack and stack[-1].sign == -sign and stack[-1].gen == gen:
                stack.pop()
            else:
                stack.append(sl)
        return tuple.__new__(cls, stack)

    __setattr__ = __delattr__ = Value.__setattr__

    def __reduce__(self):
        return Word, (tuple(self),)  # rebuilt, and so checked, from its letters

    @property
    def letters(self) -> tuple[SignedLetter, ...]:
        return self

    @fact
    def counts(self) -> Mapping[Generator, int]:
        """Occurrences of each generator, ignoring sign, in order of id; 0 if absent."""
        return MappingProxyType(Counter(sorted(sl.gen for sl in self)))

    @fact
    def _shape(self) -> int:
        """Hash of the length and ``counts``, which rotation and inversion keep."""
        return hash((len(self), *self.counts.items()))

    @fact
    def cyclic_key(self) -> tuple[int, ...]:
        """Least rotation of the word or of its inverse, letters as ±(id+1); equal
        exactly for words of one alphabet that are equal up to rotation and inversion.
        Only rotations that start with the least letter are tried, so aᵏ still costs O(L²);
        an elimination round reads it only where two relators share a ``_shape``."""
        seq = [sl.sign * (sl.gen.id + 1) for sl in self]
        inv = [-x for x in reversed(seq)]
        least = min(seq + inv, default=0)  # every least rotation starts with it (Booth 1980)
        rotations = (v[k:] + v[:k] for v in (seq, inv) for k, x in enumerate(v) if x == least)
        return tuple(min(rotations, default=()))

    @fact
    def inverse(self) -> "Word":
        """The inverse word; reversing a freely reduced word keeps it reduced."""
        return _reduced(_inverted(self))

    def __repr__(self) -> str:
        return f"Word({display(self)})"


EMPTY_WORD = Word()


def _reduced(letters: Iterable[SignedLetter]) -> Word:
    """A Word of letters already freely reduced over one alphabet, not walked again."""
    return tuple.__new__(Word, letters)


def _inverted(letters: tuple[SignedLetter, ...]) -> tuple[SignedLetter, ...]:
    """The inverse of reduced letters: reversed, each sign flipped, and still reduced."""
    return tuple([tuple.__new__(SignedLetter, (gen, -sign)) for gen, sign in reversed(letters)])


def _inverse_holding(w: Word) -> Word:
    """``w``'s inverse, built holding ``w`` as its ``inverse``; ``w`` holds no reference back."""
    inverse = _reduced(_inverted(w))
    inverse.__dict__["inverse"] = w  # both ways would be a cycle only the collector frees
    return inverse


def free_reduce(raw: Iterable[SignedLetter]) -> Word:
    """The unique freely reduced word equal to ``raw`` in the free group."""
    return Word(raw)


def _same_alphabet(u: Word, v: Word) -> None:
    """Reduced words hold one alphabet each, so their first letters decide."""
    if u and v and u[0].gen.language != v[0].gen.language:
        Word(u[:1] + v[:1])  # raises the mixed-alphabet error


def _join(stack: list[SignedLetter], letters: tuple[SignedLetter, ...]) -> list[SignedLetter]:
    """Extend the reduced ``stack`` by reduced ``letters``: they cancel only at the seam."""
    k, n = 0, len(letters)
    while stack and k < n and stack[-1].gen == letters[k].gen and stack[-1].sign != letters[k].sign:
        stack.pop()
        k += 1
    stack.extend(letters[k:])
    return stack


def concat(u: Word, v: Word) -> Word:
    _same_alphabet(u, v)
    return _reduced(_join(list(u), v))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` as conjugator * core * conjugator^-1.

    The core is cyclically reduced: its first and last letters are not
    mutually inverse.  It is ``w`` itself when nothing peels off, and empty
    only when ``w`` is empty.
    """
    i, j = 0, len(w) - 1
    while i < j and w[i].gen == w[j].gen and w[i].sign != w[j].sign:
        i += 1
        j -= 1
    return (_reduced(w[i : j + 1]), _reduced(w[:i])) if i else (w, EMPTY_WORD)


def substitute(w: Word, g: Generator, replacement: Word) -> Word:
    """Replace every signed ``g`` by ``replacement`` and reduce; ``w`` if ``g`` is absent."""
    if g in map(itemgetter(0), replacement):  # a scan: nothing reads the replacement's counts
        raise SelfReferenceError(f"replacement for {g.glyph!r} contains itself")
    _same_alphabet(w, replacement)
    if not w.counts[g]:
        return w
    inverse_replacement = replacement.inverse
    out: list[SignedLetter] = []
    for sl in w:
        if sl.gen == g:
            _join(out, replacement if sl.sign > 0 else inverse_replacement)
        elif out and out[-1].gen == sl.gen and out[-1].sign != sl.sign:
            out.pop()  # the top came from a replacement, or a replacement uncovered it
        else:
            out.append(sl)
    return _reduced(out)


def display(w: Word, ascii_inverse: bool = False) -> str:
    """Render a word: glyphs joined by a middle dot, empty word as "1"."""
    if not w:
        return EMPTY_WORD_DISPLAY
    mark = ASCII_INVERSE_MARK if ascii_inverse else INVERSE_MARK
    return LETTER_SEPARATOR.join(
        sl.gen.glyph + (mark if sl.sign < 0 else "") for sl in w
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
