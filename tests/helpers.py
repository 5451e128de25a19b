"""Shared test utilities: independent oracles and random generators.

Everything here is deliberately written without reusing the library's own
algorithms, so tests can cross-check implementations against brute force.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from homophonic.hangul import CONSONANT_SET, VOWEL_SET
from homophonic.presentation import Presentation, Provenance, Relation
from homophonic.words import EMPTY_WORD, Alphabet, SignedLetter, Word, cyclic_reduce, display

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


def assert_reduced(w: Word) -> None:
    """``w`` is freely reduced over one alphabet, by a scan of neighbouring
    letters, and the checking constructor ``Word`` keeps its letters as they are."""
    letters = w.letters
    for i, (left, right) in enumerate(zip(letters, letters[1:])):
        cancels = left.gen == right.gen and left.sign == -right.sign
        assert not cancels, f"{display(w)} cancels at position {i}"
    assert len({sl.gen.language for sl in letters}) <= 1, f"{display(w)} mixes alphabets"
    assert Word(letters).letters == letters


def assert_exact_word(x) -> None:
    """``x`` is a ``Word`` itself, not a plain tuple or a subclass, and its
    derived facts can be read."""
    assert type(x) is Word, f"{x!r} is a {type(x).__name__}, not a Word"
    assert sum(x.counts.values()) == len(x)
    assert len(x.cyclic_key) == len(x)
    assert type(x.inverse) is Word and len(x.inverse) == len(x)


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


def inverse_oracle(letters) -> list[SignedLetter]:
    """The letters reversed, each with its sign flipped."""
    return [SignedLetter(sl.gen, -sl.sign) for sl in reversed(list(letters))]


def cyclic_variants(letters) -> list[tuple[SignedLetter, ...]]:
    """Every rotation of ``letters`` and of their inverse, listed in full."""
    forward = list(letters)
    backward = inverse_oracle(forward)
    return [tuple(seq[k:] + seq[:k]) for seq in (forward, backward) for k in range(len(seq) or 1)]


def cyclic_key_oracle(letters) -> tuple[int, ...]:
    """The least of every rotation of the ±(id+1) sequence and of its inverse."""
    forward = [sl.sign * (sl.gen.id + 1) for sl in letters]
    backward = [-x for x in reversed(forward)]
    best: tuple[int, ...] = ()
    for seq in (forward, backward):
        for k in range(len(seq)):
            rotation = tuple(seq[k:] + seq[:k])
            if not best or rotation < best:
                best = rotation
    return best


def substitute_oracle(letters, g, solution) -> list[SignedLetter]:
    """Each letter of ``g`` replaced by ``solution`` or its inverse, unreduced."""
    out: list[SignedLetter] = []
    for sl in letters:
        if sl.gen == g:
            out.extend(solution if sl.sign > 0 else inverse_oracle(solution))
        else:
            out.append(sl)
    return out


def solve_oracle(letters, g) -> list[SignedLetter]:
    """What ``g`` equals by a relator holding it once: the rest of the relator
    read from after ``g``, inverted when ``g`` is positive."""
    k = [sl.gen for sl in letters].index(g)
    rest = list(letters[k + 1 :]) + list(letters[:k])
    return inverse_oracle(rest) if letters[k].sign > 0 else rest


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
    return from_relators(alphabet, relators)


def from_relators(alphabet: Alphabet, relators: list[Word]) -> Presentation:
    """A presentation on the whole alphabet with one relation ``core = 1`` per
    relator, where ``core`` is the relator's cyclic core."""
    cores = [cyclic_reduce(w)[0] for w in relators]
    return Presentation.from_relations(
        alphabet,
        [Relation(c, EMPTY_WORD, Provenance(lhs=display(c), rhs="1")) for c in cores],
    )


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
