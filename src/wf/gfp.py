"""Sparse deterministic linear algebra over the prime field F_p.

The lift and coboundary systems are a few percent dense at most, so the
elimination touches only nonzero entries: each row is a dict from column
to value, inserted one at a time into a table of pivot rows keyed by
leading column, then the table is back-reduced.  Column order is never
permuted (structured Gaussian elimination in the sense of LaMacchia and
Odlyzko, without the column reordering).

No pivoting rule needs fixing for the answer to be reproducible.  The
reduced row echelon form of a matrix depends only on its row space, so
its pivot columns and its rows are the same whatever order the rows
arrive in and whichever path the elimination takes.  With every free
variable set to zero the solution is therefore unique.
"""

from __future__ import annotations

from itertools import compress


def _sub_multiple(p, r, f, row):
    """r -= f * row over F_p, in place, keeping only nonzero entries."""
    for c, v in row.items():
        nv = (r.get(c, 0) - f * v) % p
        if nv:
            r[c] = nv
        else:
            del r[c]


def rref(p, rows, ncols):
    """Reduced row echelon form of sparse rows; returns the pivot columns.

    rows: a list of dicts {column: value}, columns in range(ncols), values
    any integers (read mod p).  The list is replaced in place by the
    nonzero rows of the reduced form, one per pivot column in ascending
    order, each with leading entry 1 and entries in [1, p).
    """
    table = {}  # leading column -> pivot row, leading entry 1
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            lead = table.get(c)
            if lead is None:
                inv = pow(r[c], -1, p)
                if inv != 1:
                    r = {cc: v * inv % p for cc, v in r.items()}
                table[c] = r
                break
            _sub_multiple(p, r, r[c], lead)
    pivots = sorted(table)
    # descending, so every pivot row a row is reduced against is final;
    # subtracting one introduces no other pivot column into the row
    for c in reversed(pivots):
        r = table[c]
        for pc in [pc for pc in r if pc != c and pc in table]:
            _sub_multiple(p, r, r[pc], table[pc])
    rows[:] = [table[c] for c in pivots]
    return pivots


def solve(p, rows, rhs, ncols):
    """One solution of rows * x = rhs, or None; free variables are zero.

    rows: dense lists of ncols integers; rhs: one integer per row.
    """
    cols = range(ncols)
    aug = []
    for row, b in zip(rows, rhs):
        entries = {c: row[c] for c in compress(cols, row)}
        if b:
            entries[ncols] = b
        aug.append(entries)
    pivots = rref(p, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None  # a pivot in the rhs column: inconsistent
    x = [0] * ncols
    for r, c in zip(aug, pivots):
        x[c] = r.get(ncols, 0)
    return x
