"""Finitely presented groups: relators, greedy generator elimination, traces.

A presentation is simplified by repeatedly eliminating a generator that occurs exactly once in
some relator.  That step is ``eliminate``: the relator is solved for the generator, and one pass
over the relators, ``normalize``'s too, substitutes the solution into those that hold it and
drops the empty ones and all but the first of each up to rotation and inversion, reading a
``cyclic_key`` only where two relators share a length and generator counts.  Only relators from
outside are checked, by ``Presentation``; relators without the generator pass through as the
same ``Word`` objects.  ``replay`` checks a trace with ``tietze``, which shares none of this."""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from . import tietze
from .words import (
    Alphabet,
    AlphabetMismatchError,
    Generator,
    Value,
    Word,
    _inverse_holding,
    _inverted,
    _reduced,
    _same_alphabet,
    cyclic_reduce,
    display,
    substitute,
)

DEFAULT_MAX_ROUNDS = 10_000
DEFAULT_MAX_RELATOR_LEN = 10_000


class NotEliminableError(ValueError):
    """The relator holds the generator other than once, or is not cyclically reduced."""


class TraceInvalidError(ValueError):
    """A trace that ``replay`` refuses; ``step_index`` names the first fault."""

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
    The two middles then differ at both ends, so their join cancels neither at the seam nor,
    when both are nonempty, cyclically: no reduction walk runs.
    """
    u, v = rel.lhs, rel.rhs
    _same_alphabet(u, v)
    n, i, j = min(len(u), len(v)), 0, 0
    while j < n and u[-1 - j] == v[-1 - j]:
        j += 1
    while i < n - j and u[i] == v[i]:
        i += 1
    left, right = u[i : len(u) - j], v[i : len(v) - j]
    rest = _reduced(left + _inverted(right))
    return rest if left and right else cyclic_reduce(rest)[0]


class Presentation(Value):
    """Alphabet, cyclically reduced relators, and the live generators as a tuple in id order.

    ``origins`` runs parallel to ``relators`` and survives substitution, so
    a trace can always name the dataset record behind each elimination.
    """

    __slots__ = __match_args__ = ("alphabet", "relators", "origins", "live")
    _compared = __match_args__[1:]  # generators carry their language

    def __init__(self, alphabet: Alphabet, relators: tuple[Word, ...],
                 origins: tuple[Provenance, ...], live: Iterable[Generator]):
        relators, origins, live = tuple(relators), tuple(origins), frozenset(live)
        if len(relators) != len(origins):
            raise ValueError("origins must align with relators")
        if not live.issubset(alphabet.generators):
            raise ValueError("live generators must be generators of the alphabet")
        for i, w in enumerate(relators):  # Words, nonempty, over live, cyclically reduced
            if type(w) is not Word:
                raise ValueError(f"relator {i} is not a Word: {w!r}")
            if not w:
                raise ValueError("empty relator")
            if not w.counts.keys() <= live:
                raise AlphabetMismatchError(f"relator {display(w)} is not over the live generators"
                                            f" of the {alphabet.language!r} alphabet")
            if w[0].gen == w[-1].gen and w[0].sign != w[-1].sign:
                raise ValueError(f"relator {display(w)} is not cyclically reduced")
        super().__init__(alphabet, relators, origins, tuple(sorted(live)))

    @classmethod
    def from_relations(
        cls, alphabet: Alphabet, relations: Sequence[Relation]
    ) -> "Presentation":
        """Check and build on the full alphabet; vacuous relations drop, and duplicates stay
        as one shared ``Word``, whose facts are computed once."""
        shared: dict[Word, Word] = {}
        kept = [(shared.setdefault(w, w), rel.provenance)
                for rel in relations if (w := relator_from_relation(rel))]
        return cls(alphabet, [w for w, _ in kept], [o for _, o in kept], alphabet.generators)


class Trivial(Value):
    """Every generator was eliminated and no relator remains."""

    __slots__ = ()


class FreeOfRank(Value):
    """No relator remains; the live generators form a free basis."""

    __slots__ = __match_args__ = _compared = ("rank", "basis")

    def __init__(self, rank: int, basis: tuple[Generator, ...]):
        super().__init__(rank, tuple(basis))


class Unresolved(Value):
    """Simplification stopped with relators left over; ``trace.reason`` says why."""

    __slots__ = __match_args__ = _compared = ("remaining",)


Verdict = Trivial | FreeOfRank | Unresolved


class EliminationStep(NamedTuple):
    generator: Generator
    solution: Word
    relator_index: int
    provenance: Provenance


class EliminationTrace(NamedTuple):
    steps: tuple[EliminationStep, ...]
    final: Presentation
    reason: str  # why the run stopped


def _round(p: Presentation, g=None, solution=None) -> Presentation:
    """The pass that ``normalize`` and ``eliminate`` make: each relator of ``p`` that holds ``g``
    becomes the cyclic core of ``solution`` put for ``g``, and the others pass as they are.  A
    relator that is empty or equal to an earlier one up to rotation and inversion drops; the
    first stays.  Such words share a ``_shape``, so a ``cyclic_key`` is read only where a kept
    relator has the shape already, and the same ``Word`` again drops unread.  ``g`` leaves the
    live tuple, and the result is built unchecked: substituting and dropping keep it valid."""
    firsts, keys, relators, origins = {}, set(), [], []
    for w, origin in zip(p.relators, p.origins):
        if g is not None and g in w.counts:  # a normalizing pass skips the lookup
            w = cyclic_reduce(substitute(w, g, solution))[0]
        if not w or (first := firsts.get(shape := w._shape)) is w:
            continue
        if first is None:
            firsts[shape] = w
        elif (key := w.cyclic_key) == first.cyclic_key or key in keys:
            continue  # the first of the shape or a later kept relator has the key
        else:
            keys.add(key)
        relators.append(w)
        origins.append(origin)
    live = p.live if g is None else p.live[:(k := p.live.index(g))] + p.live[k + 1:]
    Value.__init__(q := object.__new__(Presentation), p.alphabet, tuple(relators), tuple(origins),
                   live)
    return q


def normalize(p: Presentation) -> Presentation:
    """Drop duplicate relators up to rotation and inversion; the first of each is kept."""
    return _round(p)


def solve_for(relator: Word, g: Generator) -> Word:
    """Solution word for ``g`` from a cyclically reduced relator containing it exactly once.

    The relator is rotated to start with the single occurrence of ``g``; what remains, inverted
    as the sign demands, equals ``g``, and an inverted solution holds it as its ``inverse``.
    """
    if relator.counts[g] != 1:
        raise NotEliminableError(
            f"{g.glyph!r} occurs {relator.counts[g]} times in {display(relator)}"
        )
    if relator[0].gen == relator[-1].gen and relator[0].sign != relator[-1].sign:
        raise NotEliminableError(f"relator {display(relator)} is not cyclically reduced")
    k = next(i for i, sl in enumerate(relator) if sl.gen == g)
    rest = _reduced(relator[k + 1 :] + relator[:k])  # reduced: relator is cyclically reduced
    return _inverse_holding(rest) if relator[k].sign > 0 else rest


def eliminate(
    p: Presentation, g: Generator, relator_index: int
) -> tuple[Presentation, EliminationStep]:
    """Eliminate ``g`` using the relator at ``relator_index``; every round of ``simplify`` is
    this step.

    The relator must contain ``g`` exactly once.  One pass rebuilds the relators that hold ``g``
    and drops empty and repeated ones, as ``normalize`` does; the solved one drops out and ``g``
    leaves the live set.  Nothing is checked: substitution keeps checked relators valid.
    """
    if not 0 <= relator_index < len(p.relators):
        raise NotEliminableError(f"no relator at index {relator_index}")
    solution = solve_for(p.relators[relator_index], g)
    step = EliminationStep(g, solution, relator_index, p.origins[relator_index])
    return _round(p, g, solution), step


def eliminable(p: Presentation) -> list[tuple[int, Generator]]:
    """All (relator index, generator) pairs where the generator occurs once."""
    return [(i, g) for i, w in enumerate(p.relators) for g, n in w.counts.items() if n == 1]


def _verdict(p: Presentation) -> Verdict:
    """The verdict a final presentation gives."""
    if p.relators:
        return Unresolved(p)
    if p.live:
        return FreeOfRank(len(p.live), p.live)
    return Trivial()


def simplify(
    p: Presentation,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_relator_len: int = DEFAULT_MAX_RELATOR_LEN,
    pick: Callable[[Presentation, list[tuple[int, Generator]]], tuple[int, Generator]]
    | None = None,
) -> tuple[Verdict, EliminationTrace]:
    """Run the elimination loop to a verdict and a replayable trace.

    A round eliminates the largest-id single-occurrence generator of the shortest relator
    that has one, the lowest index on a tie, so earlier-alphabet letters survive; a ``pick``
    hook chooses instead, from the presentation and its ``eliminable`` pairs.  Hitting a
    limit yields an Unresolved verdict, not an error; ``trace.reason`` says why the run
    stopped.  The run starts from ``normalize(p)``, each round is ``eliminate``, and the
    presentation it ends with, unchecked, is ``trace.final``.
    """
    q, steps = normalize(p), []
    reason = "no relator with a single-occurrence generator"
    while True:
        if pick is None:
            by_length = sorted(range(len(q.relators)), key=list(map(len, q.relators)).__getitem__)
            i = next((i for i in by_length if 1 in q.relators[i].counts.values()), None)
            if i is None:
                break
            g = [h for h, n in q.relators[i].counts.items() if n == 1][-1]  # counts run by id
        else:
            if not (candidates := eliminable(q)):
                break
            i, g = pick(q, candidates)
        if len(steps) >= max_rounds:
            reason = "round limit reached"
            break
        q, step = eliminate(q, g, i)
        steps.append(step)
        if max(map(len, q.relators), default=0) > max_relator_len:
            reason = "relator length limit exceeded"
            break
    return _verdict(q), EliminationTrace(tuple(steps), q, reason)


def replay(trace: EliminationTrace, p: Presentation) -> Verdict:
    """Check ``trace`` from ``p`` with ``tietze.check``, which shares no code with ``simplify``,
    on words of ±(id+1) ints, and give ``trace.final``'s verdict.  A letter not of ``p.alphabet``
    becomes None, and a step's generator 0; no checked word holds either.  The TraceInvalidError
    names the first step that is not eliminable or differs, else ``len(trace.steps)``."""
    get = {(g, s): s * (g.id + 1) for g in p.alphabet.generators for s in (1, -1)}.get
    firsts = {}  # a relator repeated as one ``Word`` is converted once, with its first origin
    for w, origin in zip(p.relators, p.origins):
        firsts.setdefault(id(w), (w, origin))
    q = trace.final
    fault = tietze.check(
        [(tuple(map(get, w)), origin) for w, origin in firsts.values()],
        tuple([g.id + 1 for g in p.live]),
        [(get((s.generator, 1), 0), tuple(map(get, s.solution)), s.relator_index, s.provenance)
         for s in trace.steps],
        ([(tuple(map(get, w)), origin) for w, origin in zip(q.relators, q.origins)],
         tuple([get((g, 1)) for g in q.live])))
    if fault:
        raise TraceInvalidError(*fault)
    return _verdict(q)


def describe_verdict(verdict: Verdict, trace: EliminationTrace) -> str:
    """The verdict line; the step count and the stop reason come from the run's trace."""
    if isinstance(verdict, Trivial):
        return f"verdict: trivial ({len(trace.steps)} generators eliminated)"
    if isinstance(verdict, FreeOfRank):
        basis = " ".join(g.glyph for g in verdict.basis)
        return f"verdict: free of rank {verdict.rank}; basis: {basis}"
    left = verdict.remaining
    why = f"; {trace.reason}" if trace.reason else ""
    return (f"verdict: unresolved ({len(left.live)} generators live, "
            f"{len(left.relators)} relators remain{why})")


def render_trace(trace: EliminationTrace, verdict: Verdict) -> str:
    """Two-column elimination table followed by the verdict line."""
    lines = _table_rows(trace)
    lines.append(describe_verdict(verdict, trace))
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
