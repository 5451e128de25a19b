"""Exact integer certificates for verdicts.

Abelianizing a presentation turns each relator into a row of signed
exponent sums.  The Smith normal form of that matrix gives invariant
factors that any trivial or free verdict must agree with.  Everything
here is exact integer arithmetic; Python integers never overflow.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import NamedTuple, Sequence

from .presentation import FreeOfRank, Presentation, Trivial, Unresolved, Verdict


class ExponentMatrix(NamedTuple):
    """Rows are relators, columns the live generators in id order."""

    generator_ids: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


class AbelianInvariants(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...]


def exponent_matrix(p: Presentation) -> ExponentMatrix:
    column = {g: j for j, g in enumerate(p.live_generators())}
    rows = []
    for w in p.relators:
        row = [0] * len(column)
        for g, sign in w:
            row[column[g]] += sign
        rows.append(tuple(row))
    return ExponentMatrix(tuple(g.id for g in column), tuple(rows))


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Over sparse rows, row operations clear a smallest pivot's column, then
    column operations, which touch the pivot row alone, clear its row; the
    smallest remainder either leaves is the next pivot.  A gcd/lcm pass makes
    the diagonal a divisibility chain.  Raises ``ValueError`` on ragged input
    and ``TypeError`` on a non-integral entry.
    """
    # Rows are {column: entry} dicts of the nonzeros.  Zero rows and repeated
    # rows add nothing to the row lattice, so they are dropped.
    unique = dict.fromkeys(tuple(map(index, r)) for r in matrix)
    if len(set(map(len, unique))) > 1:
        raise ValueError("ragged matrix")
    rows = [row for r in unique if (row := {j: x for j, x in enumerate(r) if x})]
    diagonal: list[int] = []
    while rows:
        best = (0, 0, 0)
        for k, row in enumerate(rows):
            for j, x in row.items():
                if not best[0] or abs(x) < best[0]:
                    best = (abs(x), k, j)
            if best[0] == 1:
                break
        _, k, j = best
        pivot = rows.pop(k)
        while True:
            d = pivot[j]
            kept, smallest = [], None
            for row in rows:
                if j in row:
                    q = row[j] // d
                    for c, x in pivot.items():
                        if y := row.get(c, 0) - q * x:
                            row[c] = y
                        else:
                            row.pop(c, None)
                    if j in row and (smallest is None or abs(row[j]) < abs(kept[smallest][j])):
                        smallest = len(kept)
                if row:
                    kept.append(row)
            rows = kept
            if smallest is not None:
                pivot, rows[smallest] = rows[smallest], pivot
            elif rest := {c: x % d for c, x in pivot.items() if x % d}:
                pivot = {j: d, **rest}
                j = min(rest, key=lambda c: abs(rest[c]))
            else:
                diagonal.append(abs(d))
                break
    diagonal.sort()
    for a in range(diagonal.count(1), len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            g = gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = g, diagonal[a] // g * diagonal[b]
    return diagonal


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    factors = smith_normal_form(exponent_matrix(p).rows)
    free_rank = len(p.live) - len(factors)
    return AbelianInvariants(free_rank, tuple(d for d in factors if d > 1))


def consistent(verdict: Verdict, invariants: AbelianInvariants) -> bool:
    """Does the abelianization confirm the verdict?

    Trivial needs free rank 0, a free verdict needs matching rank, and
    both forbid torsion.  An unresolved verdict claims nothing, so any
    certificate is consistent with it.
    """
    if isinstance(verdict, Trivial):
        return invariants.free_rank == 0 and not invariants.torsion
    if isinstance(verdict, FreeOfRank):
        return invariants.free_rank == verdict.rank and not invariants.torsion
    return True


def certificate_line(invariants: AbelianInvariants, verdict: Verdict) -> str:
    ok = consistent(verdict, invariants)
    status = "yes" if ok else "no"
    if ok and isinstance(verdict, Unresolved):
        status = "yes (unresolved)"
    torsion = "[" + ", ".join(str(d) for d in invariants.torsion) + "]"
    return (
        f"abelianization: free rank {invariants.free_rank}, "
        f"torsion {torsion}; consistent: {status}"
    )
