"""Seeded workload generators and their independently known answers.

Nothing here imports the library: every known answer comes from the
bundled README table, from construction, from a union-find over the
confusion pairs a corpus uses, or from a Smith-normal-form oracle that
runs in a separate process (``oracle.py``, backed by sympy).

Every instance arrives as ``.hq`` text.  For the synthetic families that
text is only the alphabet header, and the relations follow as word text
(``c a^-1 b b``), because ``.hq`` word records hold positive words only.
"""

from __future__ import annotations

import json
import random
import string
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "homophonic" / "data"
ORACLE = Path(__file__).resolve().parent / "oracle.py"

# Instances pregenerated per run.  The loop cycles through them, so each
# count is set above what one run of today's code completes: every
# sample of a run is then a distinct input.
INGEST_INSTANCES = 96
STREAM_INSTANCES = 1200

# Sizes, chosen for run-to-run steadiness (see README.md).
INGEST_RECORDS = 1000
CHAIN_GENERATORS = 22
PAIRS_GENERATORS = 12
WORD_LENGTH = 3

SYNTHETIC_LANGUAGE = "x"
SYNTHETIC_GLYPHS = string.ascii_lowercase


@dataclass(frozen=True)
class Expected:
    """A known answer: verdict kind, abelian invariants, optional basis."""

    verdict: str  # "trivial", "free" or "unresolved"
    free_rank: int
    torsion: tuple[int, ...] = ()
    basis: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Instance:
    name: str
    text: str  # .hq text: a whole dataset, or the alphabet header only
    expected: Expected
    words: tuple[tuple[str, str], ...] = ()  # relations as (lhs, rhs) word text


# --- corpora: the bundled files, verdicts from the README table -------------

CORPORA = {
    "german": Expected("trivial", 0),
    "korean": Expected("free", 2, basis=("ㅏ", "ㅗ")),
    "turkish": Expected("free", 23),
}


def corpora(seed: int) -> list[Instance]:
    """The three bundled corpora, each pass in a seeded order."""
    rng = random.Random(f"corpora:{seed}")
    bundled = [
        Instance(name, (DATA_DIR / f"{name}.hq").read_text(encoding="utf-8"), answer)
        for name, answer in CORPORA.items()
    ]
    stream: list[Instance] = []
    for _ in range(STREAM_INSTANCES // len(bundled)):
        stream.extend(rng.sample(bundled, len(bundled)))
    return stream


# --- ingest: synthetic Korean corpora of vowel confusions -------------------

HANGUL_BASE = 0xAC00
LEADS = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
VOWELS = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"  # Unicode syllable order
TAIL_COUNT = 28
KOREAN_VOWELS = VOWELS.replace("ㅒ", "")  # the bundled Korean alphabet lacks ㅒ
KOREAN_GLYPHS = len(LEADS) + len(KOREAN_VOWELS)  # 39
# Vowel confusions of the bundled Korean corpus.
CONFUSIONS = (("ㅐ", "ㅔ"), ("ㅚ", "ㅙ"), ("ㅖ", "ㅔ"))


def _syllable(lead: int, vowel: str, tail: int) -> str:
    return chr(HANGUL_BASE + (lead * len(VOWELS) + VOWELS.index(vowel)) * TAIL_COUNT + tail)


def merges(pairs) -> int:
    """Classes merged by a union-find over the given identifications."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = 0
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count += 1
    return count


def ingest_corpus(rng: random.Random, records: int, name: str) -> Instance:
    """One corpus of word pairs that differ by one vowel confusion."""
    chosen = rng.sample(CONFUSIONS, rng.randint(1, len(CONFUSIONS)))
    lines = [
        "@language ko",
        "@alphabet " + " ".join(LEADS),
        "@alphabet " + " ".join(KOREAN_VOWELS),
    ]
    used = set()
    for _ in range(records):
        pair = rng.choice(chosen)
        used.add(pair)
        a, b = pair if rng.random() < 0.5 else pair[::-1]
        length = rng.randint(1, 4)
        at = rng.randrange(length)
        syllables = [
            (rng.randrange(len(LEADS)), rng.choice(KOREAN_VOWELS), rng.randrange(TAIL_COUNT))
            for _ in range(length)
        ]
        lhs = "".join(_syllable(l, a if i == at else v, t) for i, (l, v, t) in enumerate(syllables))
        rhs = "".join(_syllable(l, b if i == at else v, t) for i, (l, v, t) in enumerate(syllables))
        lines.append(f"word\t{lhs}\t{rhs}\tsynthetic\t{pair[0]}/{pair[1]}")
    rank = KOREAN_GLYPHS - merges(sorted(used))
    return Instance(name, "\n".join(lines) + "\n", Expected("free", rank))


def ingest(seed: int) -> list[Instance]:
    rng = random.Random(f"ingest:{seed}")
    return [ingest_corpus(rng, INGEST_RECORDS, f"ingest-{k}") for k in range(INGEST_INSTANCES)]


# --- synthetic families over single-letter glyphs ---------------------------

Letter = tuple[int, int]  # (generator index, +1 or -1)


def _header(n: int) -> str:
    return f"@language {SYNTHETIC_LANGUAGE}\n@alphabet {' '.join(SYNTHETIC_GLYPHS[:n])}\n"


def word_text(letters: list[Letter]) -> str:
    return " ".join(SYNTHETIC_GLYPHS[g] + ("" if s > 0 else "^-1") for g, s in letters)


def random_reduced_word(rng: random.Random, gens: int, length: int) -> list[Letter]:
    """A freely reduced word of exactly ``length`` signed letters."""
    letters: list[Letter] = []
    while len(letters) < length:
        letter = (rng.randrange(gens), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return letters


def chain_instance(rng: random.Random, n: int, name: str) -> Instance:
    """x_i = (random signed word over x_0..x_{i-1}) for i >= 2, shuffled.

    Every x_i with i >= 2 is a word in x_0 and x_1, so the group is free
    of rank 2 by construction.
    """
    relations = [
        (word_text([(i, 1)]), word_text(random_reduced_word(rng, i, WORD_LENGTH)))
        for i in range(2, n)
    ]
    rng.shuffle(relations)
    return Instance(name, _header(n), Expected("free", 2), tuple(relations))


def chain(seed: int) -> list[Instance]:
    rng = random.Random(f"chain:{seed}")
    return [chain_instance(rng, CHAIN_GENERATORS, f"chain-{k}") for k in range(STREAM_INSTANCES)]


def pairs_candidate(rng: random.Random, n: int) -> list[tuple[list[int], list[int]]]:
    """n - 1 relations, each equating two random positive words."""
    return [
        ([rng.randrange(n) for _ in range(WORD_LENGTH)], [rng.randrange(n) for _ in range(WORD_LENGTH)])
        for _ in range(n - 1)
    ]


def exponent_rows(n: int, relations) -> list[list[int]]:
    rows = []
    for lhs, rhs in relations:
        row = [0] * n
        for g in lhs:
            row[g] += 1
        for g in rhs:
            row[g] -= 1
        rows.append(row)
    return rows


def oracle_invariants(matrices: list[list[list[int]]], columns: int) -> list[tuple[int, tuple[int, ...]]]:
    """(free rank, torsion) of each matrix, from the oracle process."""
    done = subprocess.run(
        [sys.executable, str(ORACLE)],
        input=json.dumps({"columns": columns, "matrices": matrices}),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return [(rank, tuple(torsion)) for rank, torsion in json.loads(done.stdout)]


def pairs(seed: int) -> list[Instance]:
    """Random pairs whose abelianization has torsion.

    Torsion rules out a trivial or free group, so the known verdict is
    "unresolved" with the oracle's invariants.  Candidates without
    torsion have no independently known verdict and are skipped.
    """
    rng = random.Random(f"pairs:{seed}")
    n = PAIRS_GENERATORS
    out: list[Instance] = []
    while len(out) < STREAM_INSTANCES:
        batch = [pairs_candidate(rng, n) for _ in range(STREAM_INSTANCES)]
        answers = oracle_invariants([exponent_rows(n, c) for c in batch], n)
        for relations, (rank, torsion) in zip(batch, answers):
            if torsion and len(out) < STREAM_INSTANCES:
                words = tuple(
                    (word_text([(g, 1) for g in lhs]), word_text([(g, 1) for g in rhs]))
                    for lhs, rhs in relations
                )
                out.append(
                    Instance(f"pairs-{len(out)}", _header(n), Expected("unresolved", rank, torsion), words)
                )
    return out


WORKLOADS = {"corpora": corpora, "ingest": ingest, "chain": chain, "pairs": pairs}


def generate(workload: str, seed: int) -> list[Instance]:
    return WORKLOADS[workload](seed)
