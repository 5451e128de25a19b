"""Finitely presented groups: relators, greedy generator elimination, traces.

A presentation is simplified by repeatedly eliminating a generator that
occurs exactly once in some relator: the relator is solved for that
generator and the solution substituted into every other relator.  The
whole history is recorded as a replayable trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .words import (
    EMPTY_WORD,
    Alphabet,
    AlphabetMismatchError,
    Generator,
    Word,
    concat,
    cyclic_reduce,
    display,
    invert,
    occurrences,
    substitute,
)

DEFAULT_MAX_ROUNDS = 10_000
DEFAULT_MAX_RELATOR_LEN = 10_000


class NotEliminableError(ValueError):
    """The chosen generator does not occur exactly once in the chosen relator."""


class TraceInvalidError(ValueError):
    """A recorded elimination step fails its precondition on replay."""

    def __init__(self, step_index: int, message: str):
        self.step_index = step_index
        super().__init__(f"step {step_index}: {message}")


@dataclass(frozen=True)
class Provenance:
    """The dataset record that witnesses a relator."""

    kind: str = "raw"  # "word" or "raw"
    lhs: str = ""
    rhs: str = ""
    gloss: str = ""
    ref: str = ""

    def witness(self) -> str:
        pair = f"{self.lhs} --- {self.rhs}"
        return f"{pair} ({self.gloss})" if self.gloss else pair


@dataclass(frozen=True)
class Relation:
    """An equation lhs = rhs between two words over one alphabet."""

    lhs: Word
    rhs: Word
    provenance: Provenance = Provenance()


def relator_from_relation(rel: Relation) -> Word:
    """Turn lhs = rhs into the cyclically reduced relator of lhs * rhs^-1.

    The result may be empty when the relation is vacuous.
    """
    core, _ = cyclic_reduce(concat(rel.lhs, invert(rel.rhs)))
    return core


@dataclass(frozen=True)
class Presentation:
    """Alphabet, cyclically reduced relators, and the still-live generators.

    ``origins`` runs parallel to ``relators`` and survives substitution, so
    a trace can always name the dataset record behind each elimination.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    origins: tuple[Provenance, ...]
    live: frozenset[int]

    def __post_init__(self):
        if len(self.relators) != len(self.origins):
            raise ValueError("origins must align with relators")
        live = {g for g in self.alphabet if g.id in self.live}
        if len(live) < len(self.live):
            raise ValueError("live ids must name generators of the alphabet")
        for w in self.relators:
            if not w:
                raise ValueError("empty relator")
            if not w.counts.keys() <= live:
                raise AlphabetMismatchError(
                    f"relator {display(w)} is not over the live generators"
                    f" of the {self.alphabet.language!r} alphabet"
                )
            first, last = w.letters[0], w.letters[-1]
            if first.gen == last.gen and first.sign != last.sign:
                raise ValueError(f"relator {display(w)} is not cyclically reduced")

    @classmethod
    def from_relations(
        cls, alphabet: Alphabet, relations: Sequence[Relation]
    ) -> "Presentation":
        """Build a presentation on the full alphabet, dropping vacuous relations
        but keeping duplicates."""
        cores = [relator_from_relation(rel) for rel in relations]
        live = frozenset(range(len(alphabet)))
        return _collect(alphabet, live, cores, [rel.provenance for rel in relations])

    @classmethod
    def from_relators(
        cls, alphabet: Alphabet, relators: Sequence[Word]
    ) -> "Presentation":
        """Build a presentation from bare relators (for tests and hand input)."""
        cores = [cyclic_reduce(w)[0] for w in relators]
        return cls.from_relations(
            alphabet,
            [Relation(c, EMPTY_WORD, Provenance(lhs=display(c), rhs="1")) for c in cores],
        )

    def live_generators(self) -> tuple[Generator, ...]:
        return tuple(self.alphabet[i] for i in sorted(self.live))


@dataclass(frozen=True)
class Trivial:
    """Every generator was eliminated and no relator remains."""


@dataclass(frozen=True)
class FreeOfRank:
    """No relator remains; the live generators form a free basis."""

    rank: int
    basis: tuple[Generator, ...]


@dataclass(frozen=True)
class Unresolved:
    """Simplification stopped with relators left over."""

    remaining: Presentation
    reason: str = field(default="", compare=False)  # why the run stopped; replay cannot know


Verdict = Trivial | FreeOfRank | Unresolved


@dataclass(frozen=True)
class EliminationStep:
    generator: Generator
    solution: Word
    relator_index: int
    provenance: Provenance


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[EliminationStep, ...]
    final: Presentation


def _collect(alphabet, live, cores, origins, dedup: bool = False) -> Presentation:
    """A presentation of the nonempty cyclically reduced ``cores``; with
    ``dedup``, also without duplicates up to rotation and inversion."""
    seen: set[tuple] = set()
    kept: list[Word] = []
    kept_origins: list[Provenance] = []
    for w, origin in zip(cores, origins):
        if not w:
            continue
        if dedup:
            if w.cyclic_key in seen:
                continue
            seen.add(w.cyclic_key)
        kept.append(w)
        kept_origins.append(origin)
    return Presentation(alphabet, tuple(kept), tuple(kept_origins), live)


def normalize(p: Presentation) -> Presentation:
    """Drop duplicate relators up to rotation and inversion."""
    return _collect(p.alphabet, p.live, p.relators, p.origins, dedup=True)


def solve_for(relator: Word, g: Generator) -> Word:
    """Solution word for ``g`` from a relator containing it exactly once.

    The relator is rotated to start with the single occurrence of ``g``;
    what remains, inverted as the sign demands, equals ``g``.
    """
    if occurrences(relator, g) != 1:
        raise NotEliminableError(
            f"{g.glyph!r} occurs {occurrences(relator, g)} times in {display(relator)}"
        )
    k = next(i for i, sl in enumerate(relator.letters) if sl.gen == g)
    sign = relator.letters[k].sign
    rest = Word(relator.letters[k + 1 :] + relator.letters[:k])
    return invert(rest) if sign > 0 else rest


def eliminate(
    p: Presentation, g: Generator, relator_index: int
) -> tuple[Presentation, EliminationStep]:
    """Eliminate ``g`` using the relator at ``relator_index``.

    The relator must contain ``g`` exactly once.  The solution replaces ``g``
    in the relators that hold it (the rest pass through) and the cores are
    normalized, so the solved relator drops out; ``g`` leaves the live set.
    """
    if not 0 <= relator_index < len(p.relators):
        raise NotEliminableError(f"no relator at index {relator_index}")
    solution = solve_for(p.relators[relator_index], g)
    cores = [cyclic_reduce(substitute(w, g, solution))[0] if w.counts[g] else w for w in p.relators]
    step = EliminationStep(g, solution, relator_index, p.origins[relator_index])
    return _collect(p.alphabet, p.live - {g.id}, cores, p.origins, dedup=True), step


def eliminable(p: Presentation) -> list[tuple[int, Generator]]:
    """All (relator index, generator) pairs where the generator occurs once."""
    return [(i, g) for i, w in enumerate(p.relators) for g, n in w.counts.items() if n == 1]


def _greedy_pick(p: Presentation, candidates: list[tuple[int, Generator]]):
    """Shortest relator wins; ties break on relator index, then on the
    largest generator id so that earlier-alphabet letters survive."""
    best = min({i for i, _ in candidates}, key=lambda i: (len(p.relators[i]), i))
    gens = [g for i, g in candidates if i == best]
    return best, max(gens)


def _run(p: Presentation, choose, max_rounds: float, max_relator_len: float):
    """The elimination loop behind ``simplify`` and ``replay``: ``choose`` names
    the next (relator index, generator) pair, or None to stop.  Every exit
    leaves a normalized presentation."""
    p = normalize(p)
    steps: list[EliminationStep] = []
    reason = "no relator with a single-occurrence generator"
    while (choice := choose(p)) is not None:
        if len(steps) >= max_rounds:
            reason = "round limit reached"
            break
        p, step = eliminate(p, choice[1], choice[0])
        steps.append(step)
        if any(len(w) > max_relator_len for w in p.relators):
            reason = "relator length limit exceeded"
            break
    trace = EliminationTrace(tuple(steps), p)
    if p.relators:
        return Unresolved(p, reason), trace
    if p.live:
        return FreeOfRank(len(p.live), p.live_generators()), trace
    return Trivial(), trace


def simplify(
    p: Presentation,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_relator_len: int = DEFAULT_MAX_RELATOR_LEN,
    pick: Callable[[Presentation, list[tuple[int, Generator]]], tuple[int, Generator]]
    | None = None,
) -> tuple[Verdict, EliminationTrace]:
    """Run the elimination loop to a verdict and a replayable trace.

    Each round picks an eliminable (relator, generator) pair and
    eliminates.  Hitting either limit yields an Unresolved verdict rather
    than an error.
    """
    pick = pick or _greedy_pick

    def choose(q: Presentation):
        candidates = eliminable(q)
        return pick(q, candidates) if candidates else None

    return _run(p, choose, max_rounds, max_relator_len)


def replay(trace: EliminationTrace, p: Presentation) -> Verdict:
    """Re-run the elimination loop on the recorded choices, checking each.

    Raises TraceInvalidError (with the failing step index) when a step no
    longer matches the presentation it claims to act on.
    """
    script = enumerate(trace.steps)

    def choose(q: Presentation):
        i, step = next(script, (None, None))
        if step is None:
            return None
        if not 0 <= step.relator_index < len(q.relators):
            raise TraceInvalidError(i, f"relator index {step.relator_index} out of range")
        if occurrences(q.relators[step.relator_index], step.generator) != 1:
            raise TraceInvalidError(
                i, f"{step.generator.glyph!r} does not occur exactly once"
            )
        return step.relator_index, step.generator

    verdict, replayed = _run(p, choose, math.inf, math.inf)
    for i, (recorded, applied) in enumerate(zip(trace.steps, replayed.steps)):
        if applied.solution != recorded.solution:
            raise TraceInvalidError(i, "recorded solution does not match")
    return verdict


def describe_verdict(verdict: Verdict, eliminated: int | None = None) -> str:
    if isinstance(verdict, Trivial):
        if eliminated is None:
            return "verdict: trivial"
        return f"verdict: trivial ({eliminated} generators eliminated)"
    if isinstance(verdict, FreeOfRank):
        basis = " ".join(g.glyph for g in verdict.basis)
        return f"verdict: free of rank {verdict.rank}; basis: {basis}"
    left = verdict.remaining
    return (
        f"verdict: unresolved ({len(left.live)} generators live, "
        f"{len(left.relators)} relators remain)"
    )


def render_trace(trace: EliminationTrace, verdict: Verdict) -> str:
    """Two-column elimination table followed by the verdict line."""
    lines = _table_rows(trace)
    lines.append(describe_verdict(verdict, eliminated=len(trace.steps)))
    return "\n".join(lines)


def _table_rows(trace: EliminationTrace) -> list[str]:
    """One ``glyph | witness`` line per step, shared with ``report``."""
    return [f"{step.generator.glyph} | {step.provenance.witness()}" for step in trace.steps]


def machine_trace(trace: EliminationTrace, ascii_inverse: bool = True) -> list[str]:
    """Tab-separated step lines: index, glyph, solution, relator index, ref."""
    return [
        "\t".join(
            (
                str(i),
                step.generator.glyph,
                display(step.solution, ascii_inverse),
                str(step.relator_index),
                step.provenance.ref,
            )
        )
        for i, step in enumerate(trace.steps)
    ]
