"""Hot numeric kernels: pairwise Hoelder seminorms and the reflected path.

One blocked kernel, ``pair_seminorms``, takes for each of several fields on
the same points the max over every pair of distinct points of the ratio

    |f_i - f_j| / d2 ** (alpha / 2),    d2 = sum_q (p_iq - p_jq)^2,

with |.| the Frobenius distance for matrix fields.  The denominator depends
on the points alone, so it is formed once per row block and shared by every
field.  Coincident pairs and the diagonal get d2 = inf instead of a mask:
their ratio is then 0, which never raises a max over ratios >= 0, and the
boolean-masked copies of each block go away.  The sums follow the
association of the reference loops in ``tests/test_kernels.py``,
coordinate by coordinate in the loops' order.  numpy's vectorized power
may round one ulp away from libm's pow, so the kernels agree with the
loops to within a couple of ulp, not bit for bit; the tests hold them to
that.

``ring_pair_seminorms`` returns pair_seminorms' bits on a ring grid, n rays
at uniform angles sharing m radii t (``disk_grid``), where rotation makes a
pair's distance a table entry: the pairs between ray a at radius t_j and
ray a + l at radius t_k lie (t_j - t_k)^2 + 4 t_j t_k sin^2(pi l / n) apart
for every a.  Stage 1 takes for each cell (l, j, k), l = 0..n // 2, the max
N(l, j, k) over the rotations a of the numerator, and divides it once.  Per
field column it subtracts contiguous (n, m, m) tables, here[a, j, k] =
c[a, j] and there[b, j, k] = c[b mod n, k], so a lag is the slice
there[l : l + n].  A column equal to the previous one, as the symmetric
Hessian's off-diagonal is, reuses its square.

Stage 1 skips the lags that cannot hold the max.  Through the point
(a + l, j), or (a, k), the triangle inequality, which the Frobenius distance
obeys too, bounds every numerator of a cell by N(0, j, k) +
min(N(l, j, j), N(l, k, k)).  One pass over windows of each wrapped column
gives the same-radius numerators N(l, j, j) of every lag.  Lag 0 comes
first, then the other lags by decreasing bound over their distance; once a
lag's bound falls below (1 - RING_SLACK) times the best ratio so far, it
and the lags after it are skipped and their cells stay 0.

The ring distance is not the Cartesian d2 that pair_seminorms rounds, so the
cell of the Cartesian maximizer may fall an ulp or so short of the stage-1
max.  Stage 2 therefore recomputes, through pair_seminorms' own per-pair
arithmetic, the pairs of each cell within RING_SLACK = 1e-9 of the field's
stage-1 max, but only the rotations whose numerator is within RING_SLACK of
their cell's max.  Ring and Cartesian squared distances of disk_grid(96, 24)
differ by at most 1.9e-14 relative.  So the Cartesian maximizer's ring ratio
lies that close to the max, and its numerator that close to its cell's,
while a skipped lag's ratios lie the slack below the max: the maximizer's
lag is taken, its cell is a candidate and its rotation is kept.  As every
recomputed pair is also one of pair_seminorms' pairs, in the same
arithmetic, neither the skipped lags nor the dropped rotations change a
bit.  On grids fine enough for that gap to approach the slack the result
could miss the maximizer and fall short of pair_seminorms' by about the
slack.

The reflected-path stepper is inherently sequential.  It runs on Python
floats, which round each operation as numpy scalars do but skip their
boxing.  It converts increments and stores positions PATH_BLOCK steps at a
time: as Python floats (32 bytes each with their list slot), the
increments and positions of a whole 2e5-step path take about 25 MB, and
those of one block 0.5 MB.
"""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# vectorized kernels


# rows per block of pair_seminorms: a (BLOCK_ROWS, N) float64 buffer per
# array, and fewer wasted pairs below the diagonal than larger blocks
BLOCK_ROWS = 64

# relative slack of ring_pair_seminorms' skipped lags and second stage;
# the module docstring gives its bound
RING_SLACK = 1e-9


def _numerators_into(out, tmp, f, here, there):
    # out = |f_here - f_there|, the Frobenius distance for a matrix field
    matrix = f.ndim > 1
    columns = f.reshape(f.shape[0], -1).T
    _fold_columns(out, tmp, ((c[here], c[there]) for c in columns), matrix)
    if matrix:
        np.sqrt(out, out=out)


def _fold_pair_ratios(best, pts, fields, e, here, there):
    """Raise best[k] to the max over the pairs (here, there) of field k's
    ratio |f_here - f_there| / d2 ** e.  here and there are point indices
    that broadcast together: a row block against its columns, or a list of
    pairs."""
    shape = np.broadcast_shapes(np.shape(here), np.shape(there))
    d2, num, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    _fold_columns(d2, tmp, ((x[here], x[there]) for x in pts.T), True)
    d2[d2 == 0.0] = np.inf
    den = d2**e
    for k, f in enumerate(fields):
        _numerators_into(num, tmp, f, here, there)
        num /= den
        best[k] = max(best[k], float(num.max()))


def pair_seminorms(pts, fields, alpha):
    """Max over pairs i < j with d2 > 0 of |f_i - f_j| / d2 ** (alpha/2),
    one value per field.

    A field is (N,), with distance |f_i - f_j|, or (N, q), with the
    Frobenius distance.  A row block meets only the columns from its first
    row on: that covers every pair i < j, and the pairs a block holds in
    both orders give equal ratios.
    """
    n = pts.shape[0]
    best = [0.0] * len(fields)
    for i0 in range(0, n, BLOCK_ROWS):
        rows = np.arange(i0, min(i0 + BLOCK_ROWS, n))
        _fold_pair_ratios(best, pts, fields, 0.5 * alpha, rows[:, None], np.arange(i0, n))
    return best


def _fold_columns(acc, sq, pairs, matrix):
    # acc = the sum over a field's columns of (here - there)^2, or
    # |here - there| for a single column; a pair None repeats the square of
    # the column before it, still in sq.  Column by column is the loops'
    # association order; einsum may pair terms differently and drift by an
    # ulp
    for q, pair in enumerate(pairs):
        dest = sq if q else acc
        if pair is not None:
            np.subtract(*pair, out=dest)
            if matrix:
                dest *= dest
            else:
                np.abs(dest, out=dest)
        if q:
            acc += sq


def _same_radius_numerators(kept, n, m, lags, matrix):
    """(lags, m) numerators of the cells (lag, j, j), every lag at once:
    rows a .. a + lags - 1 of a wrapped column are ray a's partners."""
    window = np.lib.stride_tricks.sliding_window_view
    acc, sq = np.empty((n, lags, m)), np.empty((n, lags, m))
    pairs = [
        None if col is None else (window(col[1], lags, axis=0).transpose(0, 2, 1), col[0][:, None])
        for col in kept
    ]
    _fold_columns(acc, sq, pairs, matrix)
    same = acc.max(axis=0)
    return np.sqrt(same, out=same) if matrix else same


def _ring_numerators(f, n, m, den):
    """(lags, m, m) max over the n rotations a of the numerator between
    points (a, j) and (a + lag mod n, k), in pair_seminorms' arithmetic, of
    every lag whose bound over den reaches (1 - RING_SLACK) times the best
    ratio of the lags taken before it; the other lags' cells stay 0."""
    lags, matrix = den.shape[0], f.ndim > 1
    cols = f.reshape(n, m, -1)
    # (column, column wrapped by lags - 1 rows) per column; None for a
    # column q >= 2 equal to column q - 1, whose square is then still in sq
    kept = []
    for q in range(cols.shape[2]):
        c = cols[:, :, q]
        if q >= 2 and np.array_equal(c, cols[:, :, q - 1]):
            kept.append(None)
        else:
            kept.append((c, np.concatenate([c, c[: lags - 1]])))
    same = _same_radius_numerators(kept, n, m, lags, matrix)
    # here[a, j, k] = c[a, j] and there[b, j, k] = c[b mod n, k]
    tables = [
        None
        if col is None
        else (np.repeat(col[0][:, :, None], m, axis=2), np.repeat(col[1][:, None, :], m, axis=1))
        for col in kept
    ]
    out = np.zeros((lags, m, m))
    acc, sq = np.empty((n, m, m)), np.empty((n, m, m))

    def fill(lag):
        pairs = [None if t is None else (t[0], t[1][lag : lag + n]) for t in tables]
        _fold_columns(acc, sq, pairs, matrix)
        np.max(acc, axis=0, out=out[lag])
        if matrix:
            np.sqrt(out[lag], out=out[lag])
        return float((out[lag] / den[lag]).max())

    best = fill(0)
    # through (a + lag, j) or (a, k), |f(a, j) - f(a + lag, k)| is at most
    # out[0, j, k] plus the lesser of same[lag, j] and same[lag, k]
    reach = ((out[0] + np.minimum(same[:, :, None], same[:, None, :])) / den).max(axis=(1, 2))
    # the lags of highest reach first, so that best rises early
    for lag in 1 + np.argsort(-reach[1:], kind="stable"):
        if reach[lag] < (1.0 - RING_SLACK) * best:
            break
        best = max(best, fill(lag))
    return out


def _ring_distances(grid):
    """(n // 2 + 1, m, m) squared distances between the points (a, j) and
    (a + lag mod n, k) of a ring grid, the same for every a."""
    n, t = grid.theta.size, grid.r[0]
    sin2 = np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return np.subtract.outer(t, t) ** 2 + 4.0 * np.multiply.outer(sin2, np.multiply.outer(t, t))


def ring_pair_seminorms(grid, fields, alpha):
    """pair_seminorms(grid.points, fields, alpha), bit for bit, on a grid
    whose n rays at the uniform angles 2 pi a / n share their m radii, as
    disk_grid's do.

    The lags 0..n // 2, with (j, k) swapped, cover every pair.  Stage 1's
    numerators are pair_seminorms' bit for bit; only their distances are
    the ring ones.  It skips every lag whose triangle-inequality bound
    N(0, j, k) + min(N(l, j, j), N(l, k, k)) over the distance stays below
    (1 - RING_SLACK) times the best ratio found.  Stage 2 takes the max over
    the pairs of every cell whose stage-1 ratio exceeds (1 - RING_SLACK)
    times the field's max, of the rotations whose numerator is within
    RING_SLACK of their cell's max.  The module docstring shows why the
    Cartesian maximizer survives both filters, so no bit changes.
    """
    e = 0.5 * alpha
    n, m = grid.theta.size, grid.t.size
    d2 = _ring_distances(grid)
    d2[d2 == 0.0] = np.inf
    den = d2**e
    pts = grid.points
    rotation = np.arange(n)
    # turned[lag, a]: the first point index of ray a + lag mod n
    turned = (rotation + np.arange(den.shape[0])[:, None]) % n * m
    # stage-2 cells per call, of n pairs each: a pair_seminorms row block
    chunk = BLOCK_ROWS * m
    best = []
    for f in fields:
        nums = _ring_numerators(f, n, m, den)
        cells = nums / den
        top = [0.0]
        lag, j, k = np.nonzero(cells > float(cells.max()) * (1.0 - RING_SLACK))
        for c0 in range(0, lag.size, chunk):
            c = slice(c0, c0 + chunk)
            here = rotation * m + j[c, None]
            there = turned[lag[c]] + k[c, None]
            num, tmp = np.empty(here.shape), np.empty(here.shape)
            _numerators_into(num, tmp, f, here, there)
            near = num >= nums[lag[c], j[c], k[c]][:, None] * (1.0 - RING_SLACK)
            _fold_pair_ratios(top, pts, [f], e, here[near], there[near])
        best.append(top[0])
    return best


def pair_seminorm(pts, vals, alpha):
    return pair_seminorms(pts, [vals], alpha)[0]


def matrix_pair_seminorm(pts, mats, alpha):
    return pair_seminorms(pts, [mats], alpha)[0]


# lags per block of circle_lag_seminorm: one reused (LAG_BLOCK, m) buffer,
# as a fresh one per block costs more in page faults than the arithmetic
LAG_BLOCK = 32


def circle_lag_seminorm(vals, alpha):
    # row k - 1 of the ring's window view is np.roll(vals, -k): lag k pairs
    # i with i + k mod m, subtracted as the loop does; dividing by dk > 0
    # after the max is exact, as rounding is monotone.
    # The blocks stop at the first lag k where osc / dk <= best, with osc =
    # max vals - min vals and dk taken one float lower.  No later lag can
    # raise the max: rounding is monotone, so no computed |a - b| exceeds
    # osc, and pow is faithful, so no later dk falls below the float under
    # this one.  A nan osc never stops the loop.  dk is formed only for the
    # blocks taken, in the loop's arithmetic.
    m = vals.shape[0]
    lags = m // 2
    if not lags:
        return 0.0
    ring = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals[1:], vals]), m)[:lags]
    osc = float(vals.max() - vals.min())
    buf = np.empty((min(LAG_BLOCK, lags), m))
    best = 0.0
    for k0 in range(0, lags, LAG_BLOCK):
        dk = np.array(
            [(2.0 * math.pi * k / m) ** alpha for k in range(k0 + 1, min(k0 + LAG_BLOCK, lags) + 1)]
        )
        if osc / math.nextafter(dk[0], 0.0) <= best:
            break
        diff = buf[: dk.size]
        np.subtract(ring[k0 : k0 + LAG_BLOCK], vals, out=diff)
        np.abs(diff, out=diff)
        best = max(best, float((diff.max(axis=1) / dk).max()))
    return best


# steps per block of reflect_path: one .tolist() per block of increments and
# one slice write per block of positions
PATH_BLOCK = 4096


def reflect_path(x0, y0, dx, dy, base, cosc, sinc):
    # Pull-back reflection: on exit from the unit ball, march back along the
    # transported normal of the star-shaped domain until |X| = 1 again.
    # R, R' and the normal are evaluated here in scalar form rather than by
    # shapes.frame_at: they are needed at one angle per reflection inside
    # this sequential loop, and the frozen trajectory hash pins their bits.
    # The steps stay sequential and scalar; only their operands are Python
    # floats instead of numpy scalars, with the same IEEE operations.
    n = dx.shape[0]
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    xs[0] = x0
    ys[0] = y0
    x = x0
    y = y0
    n_reflect = 0
    cosc = cosc.tolist()
    sinc = sinc.tolist()
    kmax = len(cosc)
    for i0 in range(0, n, PATH_BLOCK):
        block = slice(i0, i0 + PATH_BLOCK)
        px = []
        py = []
        keep_x = px.append
        keep_y = py.append
        for step_x, step_y in zip(dx[block].tolist(), dy[block].tolist()):
            x = x + step_x
            y = y + step_y
            r2 = x * x + y * y
            if r2 > 1.0:
                theta = math.atan2(y, x)
                rv = base
                rp = 0.0
                for k in range(kmax):
                    ck = math.cos((k + 1) * theta)
                    sk = math.sin((k + 1) * theta)
                    rv += cosc[k] * ck + sinc[k] * sk
                    rp += (k + 1) * (sinc[k] * ck - cosc[k] * sk)
                speed = math.sqrt(rv * rv + rp * rp)
                ct = math.cos(theta)
                st = math.sin(theta)
                nx = (rv * ct + rp * st) / speed
                ny = (rv * st - rp * ct) / speed
                b = x * nx + y * ny
                cq = r2 - 1.0
                disc = b * b - cq
                if disc < 0.0 or b <= 0.0:
                    keep_x(x)
                    keep_y(y)
                    done = slice(i0 + 1, i0 + 1 + len(px))
                    xs[done] = px
                    ys[done] = py
                    return xs, ys, n_reflect, i0 + len(px) - 1
                s = b - math.sqrt(disc)
                x = x - s * nx
                y = y - s * ny
                # containment is a hard contract: |X| <= 1 after every step
                while x * x + y * y > 1.0:
                    x *= 1.0 - 2e-16
                    y *= 1.0 - 2e-16
                n_reflect += 1
            keep_x(x)
            keep_y(y)
        done = slice(i0 + 1, i0 + 1 + len(px))
        xs[done] = px
        ys[done] = py
    return xs, ys, n_reflect, -1
