"""Spans and counters recorded around the library's public functions.

``traced(tracer)`` swaps each wrapped function for a recording wrapper in
every ``homophonic`` module that binds it, for as long as the ``with``
block lasts, and puts the originals back in ``finally``.  The library is
not edited; the untraced runs call it untouched.

A span is (name, start, end, parent).  Spans of one instance are kept in
memory and folded into per-name self times when the instance ends: a
span's self time is its duration minus the durations of its children.
Counters are computed after the span closes, inside a ``trace.count``
span, so their cost shows as tracing overhead and not as layer time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

COUNT_SPAN = "trace.count"
FOLD_SPAN = "trace.fold"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def fold(self) -> None:
        """Add the finished spans' self times to the totals and drop them.

        The fold's own time is tracing overhead and is kept as FOLD_SPAN.
        """
        began = perf_counter()
        if self.stack:
            raise RuntimeError("fold() with open spans")
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, *_), t in zip(self.spans, own):
            self.self_time[name] += t
        self.spans.clear()
        self.self_time[FOLD_SPAN] += perf_counter() - began


# --- counters: (tracer, args, result) -> None -------------------------------


def _records(t, args, result):
    t.counts["datasets.records"] += len(result.records)


def _syllables(t, args, result):
    t.counts["hangul.syllables"] += len(args[0])


def _substituted(t, args, result):
    t.counts["words.substitute_calls"] += 1
    t.counts["words.letters_substituted"] += len(result)


def _normalized(t, args, result):
    t.counts["presentation.normalize_calls"] += 1
    t.counts["presentation.dedup_dropped"] += len(args[0].relators) - len(result.relators)


def _candidates(t, args, result):
    t.counts["presentation.candidates"] += len(result)


def _eliminated(t, args, result):
    p, g, index = args
    reduced = result[0]
    t.counts["presentation.relators_rebuilt"] += len(p.relators) - 1
    t.counts["presentation.relators_touched"] += sum(
        1
        for j, w in enumerate(p.relators)
        if j != index and any(sl.gen.id == g.id for sl in w.letters)
    )
    lengths = [len(w) for w in reduced.relators]
    t.counts["presentation.relator_letters"] += sum(lengths)
    t.maxima["presentation.max_relator_len"] = max(
        t.maxima["presentation.max_relator_len"], max(lengths, default=0)
    )


def _rounds(t, args, result):
    t.counts["presentation.rounds"] += len(result[1].steps)


def _cells(t, args, result):
    t.counts["abelianization.matrix_cells"] += len(result.rows) * len(result.generator_ids)


def _torsion_bits(t, args, result):
    t.maxima["abelianization.torsion_bits"] = max(
        t.maxima["abelianization.torsion_bits"], max((d.bit_length() for d in result), default=0)
    )


# (module, attribute, span name, counter).  The words functions are the
# ones presentation and datasets call; calls inside words go through the
# same module globals, so nested calls become child spans.
WRAPPED = (
    ("homophonic.cli", "main", "cli.report", None),
    ("homophonic.datasets", "parse_dataset", "datasets.parse", _records),
    ("homophonic.datasets", "to_presentation", "datasets.to_presentation", None),
    ("homophonic.datasets", "serialize_dataset", "datasets.serialize", None),
    ("homophonic.hangul", "decompose_text", "hangul.decompose_text", _syllables),
    ("homophonic.words", "parse_word", "words.parse_word", None),
    ("homophonic.words", "substitute", "words.substitute", _substituted),
    ("homophonic.words", "cyclic_reduce", "words.cyclic_reduce", None),
    ("homophonic.words", "free_reduce", "words.free_reduce", None),
    ("homophonic.presentation", "normalize", "presentation.normalize", _normalized),
    ("homophonic.presentation", "eliminable", "presentation.eliminable", _candidates),
    ("homophonic.presentation", "eliminate", "presentation.eliminate", _eliminated),
    ("homophonic.presentation", "simplify", "presentation.simplify_self", _rounds),
    ("homophonic.presentation", "replay", "presentation.replay", None),
    ("homophonic.presentation", "render_trace", "presentation.render", None),
    ("homophonic.abelianization", "exponent_matrix", "abelianization.exponent_matrix", _cells),
    ("homophonic.abelianization", "smith_normal_form", "abelianization.snf", _torsion_bits),
)


def _wrap(tracer: Tracer, fn, name: str, counter):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            index = tracer.open(COUNT_SPAN)
            counter(tracer, args, result)
            tracer.close(index)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Record spans at every module boundary in WRAPPED while the block runs."""
    from homophonic.presentation import Presentation

    modules = [m for n, m in sys.modules.items() if n == "homophonic" or n.startswith("homophonic.")]
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span_name, counter in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _wrap(tracer, original, span_name, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        method = Presentation.__dict__["from_relations"]
        patched.append((Presentation, "from_relations", method))
        Presentation.from_relations = classmethod(
            _wrap(tracer, method.__func__, "presentation.from_relations", None)
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
