"""Shared test utilities: independent oracles and random generators.

Everything here is deliberately written without reusing the library's own
algorithms, so tests can cross-check implementations against brute force.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from homophonic.hangul import CONSONANT_SET, VOWEL_SET
from homophonic.presentation import Presentation
from homophonic.words import Alphabet, SignedLetter, Word

# A wide scratch alphabet for randomized word tests (38 glyphs).
SCRATCH = Alphabet("xx", "abcdefghijklmnopqrstuvwxyz0123456789+=")


def single_pass_cancel(letters: list[SignedLetter]) -> list[SignedLetter]:
    out: list[SignedLetter] = []
    i = 0
    while i < len(letters):
        if i + 1 < len(letters) and letters[i] == letters[i + 1].inverse():
            i += 2
        else:
            out.append(letters[i])
            i += 1
    return out


def reduce_oracle(letters: list[SignedLetter]) -> list[SignedLetter]:
    """Repeated single-pass adjacent cancellation until a fixed point."""
    current = list(letters)
    while True:
        nxt = single_pass_cancel(current)
        if nxt == current:
            return current
        current = nxt


def strip_outer_oracle(
    letters: tuple[SignedLetter, ...]
) -> tuple[list[SignedLetter], list[SignedLetter]]:
    """Peel matching outer inverse pairs; returns (core, conjugator)."""
    core = list(letters)
    conjugator: list[SignedLetter] = []
    while len(core) >= 2 and core[0] == core[-1].inverse():
        conjugator.append(core[0])
        core = core[1:-1]
    return core, conjugator


def count_oracle(letters, g) -> int:
    """How many letters name ``g``, ignoring sign, by a plain scan."""
    return sum(1 for sl in letters if sl.gen == g)


def cyclic_variants(letters) -> list[tuple[SignedLetter, ...]]:
    """Every rotation of ``letters`` and of their inverse, listed in full."""
    forward = list(letters)
    backward = [SignedLetter(sl.gen, -sl.sign) for sl in reversed(forward)]
    return [tuple(seq[k:] + seq[:k]) for seq in (forward, backward) for k in range(len(seq) or 1)]


def random_letters(rng: random.Random, alphabet: Alphabet, max_len: int) -> list[SignedLetter]:
    n = rng.randrange(max_len + 1)
    return [
        SignedLetter(alphabet[rng.randrange(len(alphabet))], rng.choice((1, -1)))
        for _ in range(n)
    ]


def random_presentation(
    rng: random.Random,
    max_generators: int = 6,
    max_relators: int = 6,
    max_relator_len: int = 8,
) -> Presentation:
    n_gens = rng.randint(1, max_generators)
    alphabet = Alphabet("xx", "abcdef"[:n_gens])
    relators = []
    for _ in range(rng.randint(0, max_relators)):
        letters = random_letters(rng, alphabet, max_relator_len)
        relators.append(Word(tuple()) if not letters else _reduce_to_word(letters))
    return Presentation.from_relators(alphabet, relators)


def _reduce_to_word(letters: list[SignedLetter]) -> Word:
    return Word(tuple(reduce_oracle(letters)))


def integer_determinant(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * integer_determinant(minor)
    return total


def invariant_factors_by_minors(matrix: list[list[int]]) -> list[int]:
    """Determinantal-divisor oracle: the product of the first k invariant
    factors equals the gcd of all k x k minors."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    factors: list[int] = []
    previous = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        divisor = 0
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                divisor = gcd(divisor, integer_determinant(sub))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def all_jamo_segmentations(chars: list[str]) -> list[list[tuple[str, ...]]]:
    """Every way to cut a jamo sequence into c+v, c+v+c, c+v+c+c blocks."""
    results: list[list[tuple[str, ...]]] = []
    stack: list[tuple[str, ...]] = []

    def recurse(i: int) -> None:
        if i == len(chars):
            results.append(list(stack))
            return
        for size in (2, 3, 4):
            if i + size > len(chars):
                break
            block = chars[i : i + size]
            if (
                block[0] in CONSONANT_SET
                and block[1] in VOWEL_SET
                and all(c in CONSONANT_SET for c in block[2:])
            ):
                stack.append(tuple(block))
                recurse(i + size)
                stack.pop()

    recurse(0)
    return results
