"""Metamorphic invariance: a transformation that keeps the group up to isomorphism keeps
the abelian invariants, and the verdict's kind and rank whenever both runs resolve.  No
oracle is consulted; each transformed dataset is checked against its untransformed corpus."""

import random

import pytest

from homophonic import (
    FreeOfRank,
    LanguageDataset,
    Unresolved,
    abelian_invariants,
    builtin_dataset,
    parse_dataset,
    serialize_dataset,
    simplify,
    to_presentation,
)
from homophonic.datasets import BUILTIN_LANGUAGES

TRANSFORMS = 50


def group_facts(dataset: LanguageDataset):
    """The abelian invariants, and the verdict's kind and rank, or None when unresolved."""
    p = to_presentation(dataset)
    verdict, _ = simplify(p)
    if isinstance(verdict, Unresolved):
        return abelian_invariants(p), None
    rank = verdict.rank if isinstance(verdict, FreeOfRank) else 0
    return abelian_invariants(p), (type(verdict), rank)


def transformed(dataset: LanguageDataset, rng: random.Random, i: int) -> LanguageDataset:
    """Records shuffled and sides swapped at random; three records repeated in every third
    transform, and the alphabet order shuffled in every second."""
    records = [r._replace(lhs=r.rhs, rhs=r.lhs) if rng.random() < 0.5 else r
               for r in rng.sample(dataset.records, len(dataset.records))]
    if i % 3 == 0:
        records += rng.sample(records, 3)
    glyphs = list(dataset.glyphs)
    if i % 2 == 0:
        rng.shuffle(glyphs)
    return LanguageDataset(dataset.language, tuple(glyphs), tuple(records))


@pytest.mark.parametrize("name", BUILTIN_LANGUAGES)
def test_corpus_transforms_keep_the_group(name):
    corpus = builtin_dataset(name)
    invariants, verdict = group_facts(corpus)
    rng = random.Random(f"invariance:{name}")
    resolved = 0
    for i in range(TRANSFORMS):
        t = transformed(corpus, rng, i)
        assert parse_dataset(serialize_dataset(t)) == t, i
        t_invariants, t_verdict = group_facts(t)
        assert t_invariants == invariants, i
        if verdict is not None and t_verdict is not None:
            assert t_verdict == verdict, i
            resolved += 1
    assert resolved, "no transform resolved, so no verdict was compared"
