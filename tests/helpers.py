"""Shared test utilities: independent oracles and random generators.

Everything here is deliberately written without reusing the library's own
algorithms, so tests can cross-check implementations against brute force.
``reference_normalize`` and ``reference_eliminate`` are built from the oracles
alone, with a first-wins dedup on ``cyclic_key_oracle``; the library values
``Word`` and ``Presentation`` only hold their results.  ``reference_simplify``
is the elimination loop as one checked presentation per round, through
``reference_eliminate``.  ``trace_oracle`` checks a trace step by step, on its own
list of relators.  ``korean_confusions`` builds Korean syllables by their code point
arithmetic, not through the library's Hangul codec.
"""

from __future__ import annotations

import random
import unicodedata
from itertools import combinations
from math import gcd

from homophonic.datasets import LanguageDataset, builtin_dataset
from homophonic.hangul import CONSONANT_SET, VOWEL_SET
from homophonic.presentation import (
    DEFAULT_MAX_RELATOR_LEN,
    DEFAULT_MAX_ROUNDS,
    EliminationTrace,
    FreeOfRank,
    Presentation,
    Provenance,
    Relation,
    EliminationStep,
    Trivial,
    Unresolved,
    eliminable,
)
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


def oracle_core(letters) -> tuple:
    """The cyclic core of the free reduction of ``letters``, by the oracles."""
    core, _ = strip_outer_oracle(tuple(reduce_oracle(list(letters))))
    return tuple(core)


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


def chain_presentation(rng: random.Random, n: int, length: int = 3) -> Presentation:
    """x_i = a random reduced word of ``length`` letters over x_0 … x_{i-1}, for 2 ≤ i < n,
    in shuffled order, as in the benchmark's chain family: free of rank 2, and its rounds
    rebuild more relators than ``random_presentation``'s."""
    alphabet = Alphabet("xx", "abcdefghijklmnopqrstuvwxyz"[:n])
    relators = []
    for i in range(2, n):
        word: list[SignedLetter] = []
        while len(word) < length:
            sl = SignedLetter(alphabet[rng.randrange(i)], rng.choice((1, -1)))
            if not word or word[-1] != sl.inverse():
                word.append(sl)
        relators.append(Word((SignedLetter(alphabet[i], 1), *inverse_oracle(word))))
    rng.shuffle(relators)
    return from_relators(alphabet, relators)


# Hangul syllables run lead by lead, then vowel by vowel, then over 28 tails, the first none.
SYLLABLE_LEADS = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
SYLLABLE_VOWELS = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"
VOWEL_CONFUSIONS = (("ㅐ", "ㅔ"), ("ㅚ", "ㅙ"), ("ㅖ", "ㅔ"))


def hangul_syllable(lead: int, vowel: str, tail: int) -> str:
    """The syllable of the ``lead``-th lead, ``vowel`` and the ``tail``-th tail, 0 for none."""
    return chr(0xAC00 + (lead * len(SYLLABLE_VOWELS) + SYLLABLE_VOWELS.index(vowel)) * 28 + tail)


def korean_confusions(rng: random.Random, records: int = 100) -> LanguageDataset:
    """``records`` word pairs of 1–4 random syllables that differ in one syllable's vowel by
    a confusion from a random nonempty subset of ``VOWEL_CONFUSIONS``, on the bundled
    Korean alphabet, as in the benchmark's ingest family.  Each record's ref names its
    confusion; the confusions chain, so the group is free of rank 39 minus the refs used."""
    korean = builtin_dataset("korean")
    vowels = [v for v in SYLLABLE_VOWELS if v in korean.glyphs]
    chosen = rng.sample(VOWEL_CONFUSIONS, rng.randint(1, len(VOWEL_CONFUSIONS)))
    out = []
    for _ in range(records):
        pair = rng.choice(chosen)
        swapped = pair if rng.random() < 0.5 else pair[::-1]
        length = rng.randint(1, 4)
        at = rng.randrange(length)
        syllables = [(rng.randrange(len(SYLLABLE_LEADS)), rng.choice(vowels), rng.randrange(28))
                     for _ in range(length)]
        lhs, rhs = ("".join(hangul_syllable(lead, x if i == at else v, tail)
                            for i, (lead, v, tail) in enumerate(syllables)) for x in swapped)
        out.append(Provenance("word", lhs, rhs, "synthetic", "/".join(pair)))
    return LanguageDataset(korean.language, korean.glyphs, tuple(out))


def from_relators(alphabet: Alphabet, relators: list[Word]) -> Presentation:
    """A presentation on the whole alphabet with one relation ``core = 1`` per
    relator, where ``core`` is the relator's cyclic core."""
    cores = [cyclic_reduce(w)[0] for w in relators]
    return Presentation.from_relations(
        alphabet,
        [Relation(c, EMPTY_WORD, Provenance(lhs=display(c), rhs="1")) for c in cores],
    )


def greedy_pick(p: Presentation, candidates):
    """The shortest relator, then the lowest index, then the largest generator id."""
    return min(candidates, key=lambda c: (len(p.relators[c[0]]), c[0], -c[1].id))


def _first_of_each(p: Presentation, cores, live) -> Presentation:
    """The nonempty ``cores`` with ``p``'s origins, each kept only where it first
    appears up to rotation and inversion."""
    seen, kept = set(), []
    for core, origin in zip(cores, p.origins):
        if core and (key := cyclic_key_oracle(core)) not in seen:
            seen.add(key)
            kept.append((Word(tuple(core)), origin))
    return Presentation(p.alphabet, tuple(w for w, _ in kept), tuple(o for _, o in kept), live)


def reference_normalize(p: Presentation) -> Presentation:
    """``p`` without duplicate relators up to rotation and inversion, the first kept."""
    return _first_of_each(p, [w.letters for w in p.relators], p.live)


def reference_eliminate(p: Presentation, g, i: int):
    """Eliminate ``g`` by relator ``i`` as the oracles do it: solve, substitute into
    every relator, take each oracle core, then drop empty cores and duplicates."""
    solution = tuple(reduce_oracle(solve_oracle(p.relators[i].letters, g)))
    cores = [oracle_core(substitute_oracle(w.letters, g, solution)) for w in p.relators]
    step = EliminationStep(g, Word(solution), i, p.origins[i])
    return _first_of_each(p, cores, [h for h in p.live if h != g]), step


def reference_simplify(
    p: Presentation,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_relator_len: int = DEFAULT_MAX_RELATOR_LEN,
    pick=greedy_pick,
):
    """The elimination loop as one presentation per round: ``reference_normalize``,
    then ``eliminable``, the pick, ``reference_eliminate`` and the length check over
    every relator.  It returns what ``simplify`` does, the trace's reason included."""
    p = reference_normalize(p)
    steps = []
    reason = "no relator with a single-occurrence generator"
    while candidates := eliminable(p):
        i, g = pick(p, candidates)
        if len(steps) >= max_rounds:
            reason = "round limit reached"
            break
        p, step = reference_eliminate(p, g, i)
        steps.append(step)
        if any(len(w) > max_relator_len for w in p.relators):
            reason = "relator length limit exceeded"
            break
    if p.relators:
        verdict = Unresolved(p)
    elif p.live:
        verdict = FreeOfRank(len(p.live), tuple(sorted(p.live, key=lambda g: g.id)))
    else:
        verdict = Trivial()
    return verdict, EliminationTrace(tuple(steps), p, reason)


def trace_oracle(p: Presentation, trace: EliminationTrace, verdict) -> None:
    """Check that ``trace`` eliminates soundly from ``p`` to ``verdict``, by the oracles
    alone; an AssertionError names the first fault.

    Every relator of ``p`` is kept with its origin, duplicates included.  A step's
    generator must be live, and its solution must name neither it nor a dead generator;
    some current relator must equal ``g · solution⁻¹`` up to rotation and inversion, and
    the step's provenance must be the origin of one such relator.  Then every relator
    becomes the oracle core of its substitution, empty ones drop and ``g`` dies.  The
    survivors and the live set must be those of ``trace.final`` and of the verdict.
    ``relator_index`` indexes the deduplicated relators, and this check keeps duplicates,
    so it is not read.
    """
    relators = [(tuple(w), origin) for w, origin in zip(p.relators, p.origins)]
    live = set(p.live)
    for k, step in enumerate(trace.steps):
        g, solution = step.generator, tuple(step.solution)
        assert g in live, f"step {k}: {g.glyph!r} is not live"
        assert count_oracle(solution, g) == 0, f"step {k}: the solution names {g.glyph!r}"
        assert {sl.gen for sl in solution} <= live, f"step {k}: the solution names a dead generator"
        assert reduce_oracle(list(solution)) == list(solution), f"step {k}: unreduced solution"
        key = cyclic_key_oracle([SignedLetter(g, 1)] + inverse_oracle(solution))
        solved = [o for r, o in relators if len(r) == len(key) and cyclic_key_oracle(r) == key]
        assert solved, f"step {k}: no relator is {g.glyph!r} times its solution's inverse"
        assert step.provenance in solved, f"step {k}: the provenance is not the solved relator's"
        rewritten = [(oracle_core(substitute_oracle(r, g, solution)), o) for r, o in relators]
        relators = [(r, o) for r, o in rewritten if r]
        live.discard(g)
    keys = {cyclic_key_oracle(r) for r, _ in relators}
    assert keys == {cyclic_key_oracle(w) for w in trace.final.relators}, "final relators differ"
    assert tuple(sorted(live)) == trace.final.live, "final live generators differ"
    if isinstance(verdict, Unresolved):
        assert relators and verdict.remaining == trace.final, "unresolved, but not at trace.final"
    else:
        assert not relators, f"{type(verdict).__name__}, but relators are left"
        basis = (verdict.rank, verdict.basis) if isinstance(verdict, FreeOfRank) else (0, ())
        assert basis == (len(live), tuple(sorted(live))), "the basis is not the live set"


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


def jamo_oracle(text: str) -> list[str]:
    """Flatten syllables by their Unicode names, not by the syllable arithmetic: NFD gives
    conjoining jamo, and a tail cluster such as JONGSEONG RIEUL-KIYEOK names its two letters."""
    out: list[str] = []
    for c in unicodedata.normalize("NFD", text):
        kind, _, name = unicodedata.name(c).removeprefix("HANGUL ").partition(" ")
        parts = name.split("-") if kind == "JONGSEONG" else [name]
        out += [unicodedata.lookup("HANGUL LETTER " + part) for part in parts]
    return out
