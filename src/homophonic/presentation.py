"""Finitely presented groups: relators, greedy generator elimination, traces.

A presentation is simplified by repeatedly eliminating a generator that
occurs exactly once in some relator: the relator is solved for that
generator and the solution substituted into every other relator.  The
whole history is recorded as a trace of (relator, generator) steps, which
``replay`` checks by applying each recorded pair again with ``eliminate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .words import (
    Alphabet,
    AlphabetMismatchError,
    Generator,
    Word,
    _reduced,
    concat,
    cyclic_reduce,
    display,
    invert,
    substitute,
)

DEFAULT_MAX_ROUNDS = 10_000
DEFAULT_MAX_RELATOR_LEN = 10_000


class NotEliminableError(ValueError):
    """The chosen generator does not occur exactly once in the chosen relator."""


class TraceInvalidError(ValueError):
    """A trace differs from its re-run; ``step_index`` names the first place."""

    def __init__(self, step_index: int, message: str):
        self.step_index = step_index
        super().__init__(f"step {step_index}: {message}")


class Provenance(NamedTuple):
    """The dataset record that witnesses a relator."""

    kind: str = "raw"  # "word" or "raw"
    lhs: str = ""
    rhs: str = ""
    gloss: str = ""
    ref: str = ""

    def witness(self) -> str:
        pair = f"{self.lhs} --- {self.rhs}"
        return f"{pair} ({self.gloss})" if self.gloss else pair


class Relation(NamedTuple):
    """An equation lhs = rhs between two words over one alphabet."""

    lhs: Word
    rhs: Word
    provenance: Provenance = Provenance()


def relator_from_relation(rel: Relation) -> Word:
    """Turn lhs = rhs into the cyclically reduced relator of lhs * rhs^-1.

    The sides' common suffix cancels and their common prefix conjugates, so only
    what lies between is inverted.  The result may be empty when the relation is vacuous.
    """
    u, v = rel.lhs, rel.rhs
    n, i, j = min(len(u), len(v)), 0, 0
    while j < n and u[-1 - j] == v[-1 - j]:
        j += 1
    while i < n - j and u[i] == v[i]:
        i += 1
    rest = concat(_reduced(u[i : len(u) - j]), invert(_reduced(v[i : len(v) - j])))
    return cyclic_reduce(rest)[0]


@dataclass(frozen=True)
class Presentation:
    """Alphabet, cyclically reduced relators, and the still-live generators.

    ``origins`` runs parallel to ``relators`` and survives substitution, so
    a trace can always name the dataset record behind each elimination.
    """

    alphabet: Alphabet = field(compare=False)  # generators carry their language
    relators: tuple[Word, ...]
    origins: tuple[Provenance, ...]
    live: frozenset[Generator]

    def __post_init__(self):
        if len(self.relators) != len(self.origins):
            raise ValueError("origins must align with relators")
        if not self.live <= self.alphabet.generator_set:
            raise ValueError("live generators must be generators of the alphabet")
        for w in self.relators:
            if not w:
                raise ValueError("empty relator")
            if not w.counts.keys() <= self.live:
                raise AlphabetMismatchError(
                    f"relator {display(w)} is not over the live generators"
                    f" of the {self.alphabet.language!r} alphabet"
                )
            first, last = w[0], w[-1]
            if first.gen == last.gen and first.sign != last.sign:
                raise ValueError(f"relator {display(w)} is not cyclically reduced")

    @classmethod
    def from_relations(
        cls, alphabet: Alphabet, relations: Sequence[Relation]
    ) -> "Presentation":
        """Build a presentation on the full alphabet, dropping vacuous relations
        but keeping duplicates."""
        cores = [relator_from_relation(rel) for rel in relations]
        origins = [rel.provenance for rel in relations]
        return _collect(alphabet, alphabet.generator_set, cores, origins)

    def live_generators(self) -> tuple[Generator, ...]:
        return tuple(sorted(self.live))


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
    reason: str = field(default="", compare=False)  # why simplify stopped; empty from replay


Verdict = Trivial | FreeOfRank | Unresolved


class EliminationStep(NamedTuple):
    generator: Generator
    solution: Word
    relator_index: int
    provenance: Provenance


class EliminationTrace(NamedTuple):
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
    if relator.counts[g] != 1:
        raise NotEliminableError(
            f"{g.glyph!r} occurs {relator.counts[g]} times in {display(relator)}"
        )
    k = next(i for i, sl in enumerate(relator) if sl.gen == g)
    sign = relator[k].sign
    rest = Word(relator[k + 1 :] + relator[:k])
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
    return _collect(p.alphabet, p.live - {g}, cores, p.origins, dedup=True), step


def eliminable(p: Presentation) -> list[tuple[int, Generator]]:
    """All (relator index, generator) pairs where the generator occurs once."""
    return [(i, g) for i, w in enumerate(p.relators) for g, n in w.counts.items() if n == 1]


def _greedy_pick(p: Presentation, candidates: list[tuple[int, Generator]]):
    """Shortest relator wins; ties break on relator index, then on the
    largest generator id so that earlier-alphabet letters survive."""
    best = min({i for i, _ in candidates}, key=lambda i: (len(p.relators[i]), i))
    gens = [g for i, g in candidates if i == best]
    return best, max(gens)


def _verdict(p: Presentation, reason: str) -> Verdict:
    """The verdict a final presentation gives; ``reason`` says why an unresolved run stopped."""
    if p.relators:
        return Unresolved(p, reason)
    if p.live:
        return FreeOfRank(len(p.live), p.live_generators())
    return Trivial()


def simplify(
    p: Presentation,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_relator_len: int = DEFAULT_MAX_RELATOR_LEN,
    pick: Callable[[Presentation, list[tuple[int, Generator]]], tuple[int, Generator]]
    | None = None,
) -> tuple[Verdict, EliminationTrace]:
    """Run the elimination loop to a verdict and a replayable trace.

    Each round picks an eliminable (relator, generator) pair and eliminates.
    Hitting either limit yields an Unresolved verdict whose ``reason`` names
    it, not an error.  Every exit leaves a normalized presentation.
    """
    pick = pick or _greedy_pick
    p = normalize(p)
    steps: list[EliminationStep] = []
    reason = "no relator with a single-occurrence generator"
    while candidates := eliminable(p):
        i, g = pick(p, candidates)
        if len(steps) >= max_rounds:
            reason = "round limit reached"
            break
        p, step = eliminate(p, g, i)
        steps.append(step)
        if any(len(w) > max_relator_len for w in p.relators):
            reason = "relator length limit exceeded"
            break
    return _verdict(p, reason), EliminationTrace(tuple(steps), p)


def replay(trace: EliminationTrace, p: Presentation) -> Verdict:
    """Apply the recorded (relator index, generator) pairs with ``eliminate``: each
    recorded step must equal the one it makes, and ``trace.final`` the presentation
    reached.  The TraceInvalidError names the first step that differs or that
    ``eliminate`` refuses, else ``len(trace.steps)``.  An Unresolved reason is empty."""
    q = normalize(p)
    for i, step in enumerate(trace.steps):
        try:
            q, rerun = eliminate(q, step.generator, step.relator_index)
        except NotEliminableError:
            where = f"{step.generator.glyph!r} in relator {step.relator_index}"
            raise TraceInvalidError(i, f"re-run stops: {where} is not eliminable") from None
        if rerun != step:
            raise TraceInvalidError(i, "recorded step differs from the re-run's step")
    if q != trace.final:
        raise TraceInvalidError(len(trace.steps), "final presentation differs from the re-run's")
    return _verdict(q, "")


def describe_verdict(verdict: Verdict, eliminated: int | None = None) -> str:
    if isinstance(verdict, Trivial):
        if eliminated is None:
            return "verdict: trivial"
        return f"verdict: trivial ({eliminated} generators eliminated)"
    if isinstance(verdict, FreeOfRank):
        basis = " ".join(g.glyph for g in verdict.basis)
        return f"verdict: free of rank {verdict.rank}; basis: {basis}"
    left = verdict.remaining
    why = f"; {verdict.reason}" if verdict.reason else ""
    return (
        f"verdict: unresolved ({len(left.live)} generators live, "
        f"{len(left.relators)} relators remain{why})"
    )


def render_trace(trace: EliminationTrace, verdict: Verdict) -> str:
    """Two-column elimination table followed by the verdict line."""
    lines = _table_rows(trace)
    lines.append(describe_verdict(verdict, eliminated=len(trace.steps)))
    return "\n".join(lines)


def _table_rows(trace: EliminationTrace) -> list[str]:
    """One ``glyph | witness`` line per step, shared with ``report``."""
    return [f"{step.generator.glyph} | {step.provenance.witness()}" for step in trace.steps]


def machine_trace(trace: EliminationTrace) -> list[str]:
    """Tab-separated step lines: index, glyph, solution with ``^-1``, relator index, ref."""
    return [
        "\t".join(
            (
                str(i),
                step.generator.glyph,
                display(step.solution, ascii_inverse=True),
                str(step.relator_index),
                step.provenance.ref,
            )
        )
        for i, step in enumerate(trace.steps)
    ]
