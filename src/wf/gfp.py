"""Sparse deterministic linear algebra over the prime field F_p.

The lift and coboundary systems are a few percent dense at most, so the
elimination touches only nonzero entries: each row is a dict from column
to value, inserted one at a time into a table of pivot rows keyed by
leading column, then the table is back-reduced.  The insertion step
alone, insert_row, is an incremental span test.

Rows are inserted sparsest first (structured Gaussian elimination in
the sense of LaMacchia and Odlyzko).  A pivot row that enters the table
early is subtracted from every later row that meets its leading column,
so a dense early pivot spreads fill-in into all of them; short pivots
keep the rows they reduce short.  On the systems of `wf di` and `wf
compat` the elimination then touches about a third as many entries as
in assembly order.

The row order cannot change the answer.  The reduced row echelon form
of a matrix depends only on its row space and its column order, so its
pivot columns and its rows are the same whatever order the rows arrive
in and whichever path the elimination takes.  Columns, unlike rows, are
never permuted: the non-pivot columns are the free variables, so
another column order would set other variables to zero and return
another solution.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _sub_multiple(p, r, f, row):
    """r -= f * row over F_p, in place, keeping only nonzero entries."""
    for c, v in row.items():
        nv = (r.get(c, 0) - f * v) % p
        if nv:
            r[c] = nv
        else:
            del r[c]


def insert_row(p, table, row):
    """Reduce the dict row {column: integer} against table, which maps
    leading columns to pivot rows with leading entry 1.  None if row is in
    their span; otherwise the remainder, scaled to leading entry 1, is
    stored under its leading column, which is returned.

    The leading column comes from a heap of the row's columns: a column
    is pushed when it enters the row, and a popped column that has since
    cancelled is skipped.  Reducing at column c touches only columns
    after c, so the smallest live column popped is the row's minimum."""
    r = {c: v % p for c, v in row.items() if v % p}
    heap = list(r)
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = r.get(c)
        if f is None:
            continue  # cancelled since it was pushed
        lead = table.get(c)
        if lead is None:
            inv = pow(f, -1, p)
            if inv != 1:
                r = {cc: v * inv % p for cc, v in r.items()}
            table[c] = r
            return c
        # r -= f * lead, as _sub_multiple does; lead's entries are nonzero
        for cc, v in lead.items():
            old = r.get(cc)
            if old is None:
                r[cc] = -f * v % p
                heappush(heap, cc)
            else:
                nv = (old - f * v) % p
                if nv:
                    r[cc] = nv
                else:
                    del r[cc]
    return None


def rref(p, rows, ncols):
    """Reduced row echelon form of sparse rows; returns the pivot columns.

    rows: a list of dicts {column: value}, columns in range(ncols), values
    any integers (read mod p).  The list is replaced in place by the
    nonzero rows of the reduced form, one per pivot column in ascending
    order, each with leading entry 1 and entries in [1, p).
    """
    table = {}  # leading column -> pivot row, leading entry 1
    rows.sort(key=len)  # sparsest first: short pivots, less fill-in
    for row in rows:
        insert_row(p, table, row)
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

    rows: lists of (column, value) pairs, columns distinct and in
    range(ncols), zero values left out; rhs: one integer per row.
    """
    aug = []
    for row, b in zip(rows, rhs):
        entries = dict(row)
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
