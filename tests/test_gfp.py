"""Sparse F_p elimination against a dense row-reduction oracle.

The generators build dense rows for the oracle; solve receives the same
rows as (column, value) pairs and rref as dicts.  Besides random small
systems, the oracle checks the systems the engine itself solves.
"""

import io
import random
from contextlib import redirect_stdout

import pytest

import wf.cli
import wf.di
from wf.gfp import rref, solve

PRIMES = (2, 3, 5, 7, 11)


def dense_rref(p, rows, ncols):
    """Oracle: textbook dense RREF in place, first nonzero row as pivot."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, len(rows)):
            if rows[rr][c] % p:
                piv = rr
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c] % p, -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        lead = rows[r]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] % p:
                f = rows[rr][c] % p
                row = rows[rr]
                rows[rr] = [(a - f * b) % p for a, b in zip(row, lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_solve(p, rows, rhs, ncols):
    aug = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots = dense_rref(p, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][ncols]
    return x


def random_system(rng, p):
    """Rows with entries outside [0, p), zero rows, repeated rows and
    combinations of other rows; the rhs is consistent about half the time."""
    nrows = rng.randint(0, 9)
    ncols = rng.randint(0, 9)
    density = rng.choice((0.1, 0.3, 0.7))
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 or not ncols:
            rows.append([rng.choice((0, p, -p)) for _ in range(ncols)])
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-p, p), rng.randint(-p, p)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-2 * p, 2 * p)
                         if rng.random() < density else 0
                         for _ in range(ncols)])
    if rng.random() < 0.5:
        x = [rng.randrange(p) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) + p * rng.randint(-2, 2)
               for row in rows]
    else:
        rhs = [rng.randint(-2 * p, 2 * p) for _ in rows]
    return rows, rhs, ncols


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def pairs(rows):
    return [[(c, v) for c, v in enumerate(row) if v] for row in rows]


def test_edge_shapes():
    for p in PRIMES:
        assert solve(p, [], [], 0) == []
        assert solve(p, [], [], 3) == [0, 0, 0]
        assert solve(p, [[], []], [0, p], 0) == []
        assert solve(p, [[], []], [0, 1], 0) is None
        assert solve(p, [[(1, p), (2, -p)]], [-2 * p], 3) == [0, 0, 0]
        assert solve(p, [[(1, p), (2, -p)]], [1], 3) is None
        rows = []
        assert rref(p, rows, 4) == [] and rows == []


def test_small_worked_values():
    # x + y = 1, y = 3 over F_5: y = 3, x = 3
    assert solve(5, [[(0, 1), (1, 1)], [(1, 1)]], [1, 3], 2) == [3, 3]
    # 2x + 4y = 2 over F_7: y is free (0), x = 1
    assert solve(7, [[(0, 2), (1, 4)], [(0, 4), (1, 8)]], [2, 4], 2) == [1, 0]
    # x + y = 0 and x + y = 1 over F_2 are inconsistent
    assert solve(2, [[(0, 1), (1, 1)], [(0, 3), (1, -1)]], [0, 1], 2) is None


@pytest.mark.parametrize("p", PRIMES)
def test_solve_matches_dense_oracle(p):
    rng = random.Random(600 + p)
    inconsistent = 0
    for _ in range(400):
        rows, rhs, ncols = random_system(rng, p)
        want = dense_solve(p, [list(r) for r in rows], rhs, ncols)
        got = solve(p, pairs(rows), rhs, ncols)
        assert got == want, (p, rows, rhs)
        inconsistent += want is None
        if want is not None:
            for row, b in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, got)) % p == b % p
        order = list(range(len(rows)))
        for _ in range(3):
            rng.shuffle(order)
            shuffled = solve(p, pairs(rows[i] for i in order),
                             [rhs[i] for i in order], ncols)
            assert shuffled == want, (p, rows, rhs, order)
    assert 40 < inconsistent < 360


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_dense_oracle(p):
    rng = random.Random(700 + p)
    for _ in range(400):
        rows, _, ncols = random_system(rng, p)
        dense = [list(r) for r in rows]
        want = dense_rref(p, dense, ncols)
        got_rows = sparse(rows)
        assert rref(p, got_rows, ncols) == want, (p, rows)
        assert got_rows == sparse(dense[:len(want)]), (p, rows)
        rng.shuffle(rows)
        assert rref(p, sparse(rows), ncols) == want, (p, rows)


# Commands whose every F_p system is recorded; genus2 is not smooth at
# p = 5, so it runs at p = 3 only.
ENGINE_COMMANDS = (
    ("di", "weierstrass", "--p", "3"),
    ("di", "weierstrass", "--p", "5"),
    ("di", "genus2", "--p", "3"),
    ("compat", "weierstrass_in_p2", "--p", "3"),
    ("compat", "weierstrass_in_p2", "--p", "5"),
)


@pytest.fixture(scope="module")
def engine_systems():
    """(p, pair rows, rhs, ncols) of every system the commands solve."""
    calls = []

    def recording_solve(p, rows, rhs, ncols):
        calls.append((p, [list(row) for row in rows], list(rhs), ncols))
        return solve(p, rows, rhs, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wf.di, "gfp_solve", recording_solve)
        for argv in ENGINE_COMMANDS:
            with redirect_stdout(io.StringIO()):
                assert wf.cli.main(list(argv)) == 0, argv
    return calls


def test_engine_systems_match_dense_oracle(engine_systems):
    """The augmented systems rref sees inside solve, in assembly order,
    reversed and shuffled, reduce to the dense oracle's pivots and rows;
    these have hundreds of rows, where the row order changes the path."""
    rng = random.Random(12)
    assert max(len(rows) for _, rows, _, _ in engine_systems) > 500
    for p, rows, rhs, ncols in engine_systems:
        aug = [dict(row) for row in rows]
        for entries, b in zip(aug, rhs):
            if b:
                entries[ncols] = b
        dense = [[r.get(c, 0) for c in range(ncols + 1)] for r in aug]
        dense_rows = [d[:ncols] for d in dense]
        want = dense_rref(p, dense, ncols + 1)
        want_rows = sparse(dense[:len(want)])
        shuffled = list(aug)
        rng.shuffle(shuffled)
        for order in (aug, aug[::-1], shuffled):
            got_rows = [dict(r) for r in order]
            assert rref(p, got_rows, ncols + 1) == want, (p, ncols)
            assert got_rows == want_rows, (p, ncols)
        assert solve(p, rows, rhs, ncols) == dense_solve(p, dense_rows, rhs, ncols)
