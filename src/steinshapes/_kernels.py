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


def _square_sum_into(out, tmp, a, rows, cols):
    # out[i, j] = sum_q (a[i, q] - a[j, q])^2 accumulated column by column,
    # the loops' association order; einsum may pair terms differently and
    # drift by an ulp
    np.subtract(a[rows, None, 0], a[None, cols, 0], out=out)
    out *= out
    for q in range(1, a.shape[1]):
        np.subtract(a[rows, None, q], a[None, cols, q], out=tmp)
        tmp *= tmp
        out += tmp


def pair_seminorms(pts, fields, alpha):
    """Max over pairs i < j with d2 > 0 of |f_i - f_j| / d2 ** (alpha/2),
    one value per field.

    A field is (N,), with distance |f_i - f_j|, or (N, q), with the
    Frobenius distance.  A row block meets only the columns from its first
    row on: that covers every pair i < j, and the pairs a block holds in
    both orders give equal ratios.
    """
    e = 0.5 * alpha
    n = pts.shape[0]
    best = [0.0] * len(fields)
    for i0 in range(0, n, BLOCK_ROWS):
        rows, cols = slice(i0, i0 + BLOCK_ROWS), slice(i0, None)
        shape = (min(BLOCK_ROWS, n - i0), n - i0)
        d2, num, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
        _square_sum_into(d2, tmp, pts, rows, cols)
        d2[d2 == 0.0] = np.inf
        den = d2**e
        for k, f in enumerate(fields):
            if f.ndim == 1:
                np.subtract(f[rows, None], f[None, cols], out=num)
                np.abs(num, out=num)
            else:
                _square_sum_into(num, tmp, f, rows, cols)
                np.sqrt(num, out=num)
            num /= den
            best[k] = max(best[k], float(num.max()))
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
    # after the max is exact, as rounding is monotone
    m = vals.shape[0]
    lags = m // 2
    ring = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals[1:], vals]), m)[:lags]
    dk = np.array([(2.0 * math.pi * k / m) ** alpha for k in range(1, lags + 1)])
    buf = np.empty((min(LAG_BLOCK, lags), m))
    best = 0.0
    for k0 in range(0, lags, LAG_BLOCK):
        block = slice(k0, k0 + LAG_BLOCK)
        diff = buf[: dk[block].size]
        np.subtract(ring[block], vals, out=diff)
        np.abs(diff, out=diff)
        best = max(best, float((diff.max(axis=1) / dk[block]).max()))
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
