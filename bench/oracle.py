"""Abelian invariants from sympy's Smith normal form, in its own process.

Reads ``{"columns": c, "matrices": [[row, ...], ...]}`` as JSON on stdin
and writes one ``[free_rank, [torsion, ...]]`` per matrix to stdout.  It
shares no code with the library, so it can check the library's
certificate; the benchmark runs it before timing starts.
"""

import json
import sys

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form


def invariants(rows: list[list[int]], columns: int) -> tuple[int, list[int]]:
    if not rows:
        return columns, []
    form = smith_normal_form(Matrix(rows), domain=ZZ)
    diagonal = [abs(int(form[i, i])) for i in range(min(form.shape))]
    factors = sorted(d for d in diagonal if d)
    return columns - len(factors), [d for d in factors if d > 1]


def main() -> None:
    request = json.load(sys.stdin)
    json.dump([invariants(m, request["columns"]) for m in request["matrices"]], sys.stdout)


if __name__ == "__main__":
    main()
