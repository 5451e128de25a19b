"""Hangul syllable codec and the ordered-decomposition parser.

A precomposed syllable block code point splits arithmetically into a lead
consonant, a vowel, and an optional tail.  Compound vowels stay atomic
single characters, while the eleven compound tail clusters split into two
plain consonants, so every syllable flattens to one of the shapes c+v,
c+v+c, or c+v+c+c.  That flattening is uniquely parseable, which is what
``parse_jamo`` implements.
"""

from __future__ import annotations

from dataclasses import dataclass

SYLLABLE_BASE = 0xAC00
SYLLABLE_COUNT = 11172
VOWEL_COUNT = 21
TAIL_COUNT = 28

LEADS = tuple("ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ")
VOWELS = tuple("ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ")
TAILS = (
    None,
    "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ", "ㄻ", "ㄼ", "ㄽ",
    "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ", "ㅆ", "ㅇ", "ㅈ", "ㅊ", "ㅋ",
    "ㅌ", "ㅍ", "ㅎ",
)

# The compound tail clusters and their two-consonant readings.
TAIL_SPLIT = {
    "ㄳ": ("ㄱ", "ㅅ"),
    "ㄵ": ("ㄴ", "ㅈ"),
    "ㄶ": ("ㄴ", "ㅎ"),
    "ㄺ": ("ㄹ", "ㄱ"),
    "ㄻ": ("ㄹ", "ㅁ"),
    "ㄼ": ("ㄹ", "ㅂ"),
    "ㄽ": ("ㄹ", "ㅅ"),
    "ㄾ": ("ㄹ", "ㅌ"),
    "ㄿ": ("ㄹ", "ㅍ"),
    "ㅀ": ("ㄹ", "ㅎ"),
    "ㅄ": ("ㅂ", "ㅅ"),
}

CONSONANT_SET = frozenset(LEADS)
VOWEL_SET = frozenset(VOWELS)

# The flattened jamo of each tail index, and each flattened tail's index.
_TAIL_JAMO = ((),) + tuple(TAIL_SPLIT.get(tail, (tail,)) for tail in TAILS[1:])
_TAIL_INDEX = {jamo: i for i, jamo in enumerate(_TAIL_JAMO)}


class NotASyllableError(ValueError):
    """A code point outside the precomposed Hangul syllable block."""

    def __init__(self, char: str, position: int | None = None):
        self.char = char
        self.position = position
        where = "" if position is None else f" at position {position}"
        super().__init__(f"{char!r}{where} is not a precomposed Hangul syllable")


class JamoParseError(ValueError):
    """A jamo sequence that admits no ordered decomposition."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"position {position}: {message}")


class InvalidTailError(ValueError):
    """A tail that no precomposed syllable can carry."""


@dataclass(frozen=True)
class SyllableDecomposition:
    """One syllable in flattened form: lead, vowel, and up to two tails."""

    lead: str
    vowel: str
    tail: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(self.tail))  # so a list or string tail hashes
        if self.lead not in CONSONANT_SET:
            raise ValueError(f"lead {self.lead!r} is not a consonant")
        if self.vowel not in VOWEL_SET:
            raise ValueError(f"vowel {self.vowel!r} is not a vowel")
        if len(self.tail) > 2 or any(c not in CONSONANT_SET for c in self.tail):
            raise ValueError(f"bad tail {self.tail!r}")

    def jamo(self) -> tuple[str, ...]:
        return (self.lead, self.vowel) + self.tail


def _jamo(syllable: str, position: int | None = None) -> tuple[str, ...]:
    """Lead, vowel and tail of a syllable by the arithmetic of Unicode §3.12."""
    index = ord(syllable) - SYLLABLE_BASE
    if not 0 <= index < SYLLABLE_COUNT:
        raise NotASyllableError(syllable, position)
    head = LEADS[index // (VOWEL_COUNT * TAIL_COUNT)], VOWELS[index // TAIL_COUNT % VOWEL_COUNT]
    return head + _TAIL_JAMO[index % TAIL_COUNT]


def decompose_syllable(syllable: str) -> SyllableDecomposition:
    lead, vowel, *tail = _jamo(syllable)
    return SyllableDecomposition(lead, vowel, tuple(tail))


def compose_syllable(d: SyllableDecomposition) -> str:
    """Inverse of decompose_syllable; rejects tails with no cluster form."""
    tail_index = _TAIL_INDEX.get(d.tail)
    if tail_index is None:
        if len(d.tail) == 1:
            raise InvalidTailError(f"{d.tail[0]!r} cannot end a syllable")
        raise InvalidTailError(f"{'+'.join(d.tail)} is not a tail cluster")
    lead_index = LEADS.index(d.lead)
    vowel_index = VOWELS.index(d.vowel)
    code = SYLLABLE_BASE + (lead_index * VOWEL_COUNT + vowel_index) * TAIL_COUNT + tail_index
    return chr(code)


def decompose_text(text: str) -> list[str]:
    """Flatten syllable text to jamo; every character must be a syllable."""
    out: list[str] = []
    for i, ch in enumerate(text):
        out += _jamo(ch, i)
    return out


def parse_jamo(seq: list[str] | tuple[str, ...] | str) -> list[SyllableDecomposition]:
    """Segment a jamo sequence back into syllables, uniquely.

    The consonant immediately before each vowel is that syllable's lead;
    whatever consonants precede it in the same run belong to the previous
    syllable's tail, and at most two fit.
    """
    chars = list(seq)
    for i, ch in enumerate(chars):
        if ch not in CONSONANT_SET and ch not in VOWEL_SET:
            raise JamoParseError(i, f"{ch!r} is not a Korean character")
    vowel_at = [i for i, ch in enumerate(chars) if ch in VOWEL_SET]
    if not vowel_at:
        raise JamoParseError(len(chars), "sequence ends before any vowel")
    if vowel_at[0] == 0:
        raise JamoParseError(0, "sequence must start with a consonant")
    if vowel_at[0] > 1:
        raise JamoParseError(
            0, f"{vowel_at[0]} consonants before the first vowel; only a lead fits"
        )
    syllables: list[SyllableDecomposition] = []
    for n, v in enumerate(vowel_at):
        if chars[v - 1] in VOWEL_SET:
            raise JamoParseError(v, "vowel has no preceding consonant to lead it")
        last = n + 1 == len(vowel_at)
        after = len(chars) if last else vowel_at[n + 1] - 1
        tail = tuple(chars[v + 1 : after])
        if len(tail) > 2:
            if last:
                raise JamoParseError(
                    v + 1, f"{len(tail)} trailing consonants; a tail holds at most 2"
                )
            raise JamoParseError(
                v + 1,
                f"consonant run leaves a tail of {len(tail)}; at most 2 fit",
            )
        syllable = SyllableDecomposition(chars[v - 1], chars[v], tail)
        try:
            compose_syllable(syllable)
        except InvalidTailError as exc:
            raise JamoParseError(v + 1, str(exc)) from None
        syllables.append(syllable)
    return syllables
