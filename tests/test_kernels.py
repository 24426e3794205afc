"""The numpy kernels against their reference loops, the ring seminorm
kernel against the Cartesian one, and the frozen reflected-path
trajectory."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from steinshapes import _kernels as K
from steinshapes import rbm
from steinshapes.shapes import StarDomain, disk_grid

# sha over the raw trajectory bytes, bump domain, seed 5, horizon 5
TRAJECTORY_SHA16 = "254890cf7b5286f1"


def assert_within_2ulp(kernel: float, loop: float) -> None:
    # numpy's vectorized power may round one ulp away from libm's pow
    assert abs(kernel - loop) <= 2.0 * np.spacing(loop), (kernel, loop)


# reference loops, the oracles of the vectorized kernels


def pair_seminorm_loop(pts, vals, alpha):
    n = pts.shape[0]
    d = pts.shape[1]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d2 = 0.0
            for q in range(d):
                t = pts[i, q] - pts[j, q]
                d2 += t * t
            if d2 > 0.0:
                s = abs(vals[i] - vals[j]) / d2 ** (0.5 * alpha)
                if s > best:
                    best = s
    return best


def matrix_pair_seminorm_loop(pts, mats, alpha):
    n = pts.shape[0]
    d = pts.shape[1]
    q = mats.shape[1]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d2 = 0.0
            for a in range(d):
                t = pts[i, a] - pts[j, a]
                d2 += t * t
            if d2 > 0.0:
                f2 = 0.0
                for a in range(q):
                    t = mats[i, a] - mats[j, a]
                    f2 += t * t
                s = math.sqrt(f2) / d2 ** (0.5 * alpha)
                if s > best:
                    best = s
    return best


def circle_lag_seminorm_loop(vals, alpha):
    m = vals.shape[0]
    best = 0.0
    for k in range(1, m // 2 + 1):
        dk = (2.0 * math.pi * k / m) ** alpha
        for i in range(m):
            j = i + k
            if j >= m:
                j -= m
            s = abs(vals[j] - vals[i]) / dk
            if s > best:
                best = s
    return best


class TestBackendSelection:
    def test_backend_reports_live_path(self):
        assert K.backend() == "numpy"


class TestSeminormAgreement:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_all_three_paths_return_the_same_bits(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 300))
        pts = rng.standard_normal((n, 2)) * rng.uniform(0.1, 10.0)
        vals = rng.standard_normal(n)
        mats = rng.standard_normal((n, 4))
        circ = rng.standard_normal(int(rng.integers(32, 300)))

        assert_within_2ulp(
            K.pair_seminorm(pts, vals, alpha), pair_seminorm_loop(pts, vals, alpha)
        )
        assert_within_2ulp(
            K.matrix_pair_seminorm(pts, mats, alpha),
            matrix_pair_seminorm_loop(pts, mats, alpha),
        )
        assert K.circle_lag_seminorm(circ, alpha) == circle_lag_seminorm_loop(
            circ, alpha
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("m", [2, 3, 2 * K.LAG_BLOCK + 1, 1030, 1031])
    def test_circle_lags_match_the_loop_across_blocks(self, m, alpha):
        # rings shorter than a block, odd and even rings, and 515 lags: 16
        # full blocks and a partial last block of 3
        circ = np.random.default_rng(m).standard_normal(m)
        assert K.circle_lag_seminorm(circ, alpha) == circle_lag_seminorm_loop(
            circ, alpha
        )

    def test_hand_values(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        vals = np.array([0.0, 3.0])
        assert K.pair_seminorm(pts, vals, 1.0) == 1.5
        assert K.pair_seminorm(pts, vals, 0.5) == 3.0 / math.sqrt(2.0)
        two = np.array([0.0, 1.0])
        assert K.circle_lag_seminorm(two, 1.0) == 1.0 / math.pi

    def test_coincident_points_contribute_nothing(self):
        pts = np.zeros((4, 2))
        vals = np.arange(4.0)
        assert K.pair_seminorm(pts, vals, 1.0) == 0.0
        assert K.matrix_pair_seminorm(pts, vals[:, None], 1.0) == 0.0

    def test_tied_maxima_agree(self):
        # a lattice puts many pairs exactly at the max; at n = 600 they
        # span two row blocks of the vectorized kernel
        for n in (30, 600):
            pts = np.array([[float(i), 0.0] for i in range(n)])
            vals = np.arange(float(n))
            assert_within_2ulp(
                K.pair_seminorm(pts, vals, 0.3), pair_seminorm_loop(pts, vals, 0.3)
            )


class TestSharedDenominator:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n", [5, 2 * K.BLOCK_ROWS - 1, 3 * K.BLOCK_ROWS + 17])
    def test_mixed_fields_match_single_field_calls(self, n, alpha):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((n, 2))
        pts[n // 2 :: 3] = pts[0]  # coincident pairs within and across blocks
        fields = [
            rng.standard_normal(n),
            rng.standard_normal((n, 4)),
            rng.standard_normal(n),
            rng.standard_normal((n, 1)),
        ]
        together = K.pair_seminorms(pts, fields, alpha)
        single = [
            K.pair_seminorm(pts, f, alpha)
            if f.ndim == 1
            else K.matrix_pair_seminorm(pts, f, alpha)
            for f in fields
        ]
        assert together == single
        for f, value in zip(fields, together):
            if f.ndim == 1:
                loop = pair_seminorm_loop(pts, f, alpha)
            else:
                loop = matrix_pair_seminorm_loop(pts, f, alpha)
            assert_within_2ulp(value, loop)

    def test_all_coincident_points_give_zero(self):
        n = 2 * K.BLOCK_ROWS + 3
        pts = np.full((n, 2), 0.3)
        fields = [np.arange(float(n)), np.arange(4.0 * n).reshape(n, 4)]
        assert K.pair_seminorms(pts, fields, 0.5) == [0.0, 0.0]


class TestRingSeminorms:
    """The ring kernel against pair_seminorms on the same grid's points."""

    @staticmethod
    def _fields(grid, rng):
        x, y = grid.points.T
        n = grid.size
        symmetric = rng.standard_normal((n, 4))
        symmetric[:, 2] = symmetric[:, 1]  # a Hessian's equal off-diagonal
        return [
            rng.standard_normal(n),
            x.copy(),  # at alpha = 1, 1692 cells of (96, 24) within the slack
            x * x - y * y,
            np.zeros(n),
            rng.standard_normal((n, 4)),
            symmetric,
        ]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize(
        "shape", [(96, 24), (37, 9), (40, 6), (25, 1), (8, 1), (1, 7), (2, 3)]
    )
    def test_equals_the_cartesian_kernel(self, shape, alpha):
        grid = disk_grid(*shape)
        fields = self._fields(grid, np.random.default_rng(shape[0] * 100 + shape[1]))
        assert K.ring_pair_seminorms(grid, fields, alpha) == K.pair_seminorms(
            grid.points, fields, alpha
        )

    def test_ring_distances_are_cartesian_ones_to_within_the_slack(self):
        # stage 2 finds the Cartesian maximizer only if no ring distance
        # is further than the slack from its Cartesian one
        grid = disk_grid(96, 24)
        n, m = grid.theta.size, grid.t.size
        ring = K._ring_distances(grid)
        pts = grid.points.reshape(n, m, 2)
        worst = 0.0
        for lag in range(n):
            near = min(lag, n - lag)
            diff = pts[:, :, None, :] - np.roll(pts, -lag, axis=0)[:, None, :, :]
            cart = diff[..., 0] ** 2 + diff[..., 1] ** 2
            ring_lag = ring[near] if near == lag else ring[near].T
            apart = cart > 0.0
            gap = np.abs(ring_lag - cart)[apart] / cart[apart]
            worst = max(worst, float(gap.max()))
        assert worst <= 1e-3 * K.RING_SLACK


def reflect_path_loop(x0, y0, dx, dy, base, cosc, sinc):
    """The reflected path step by step on numpy scalars: the reference the
    blocked Python-float stepper must match bit for bit."""
    n = dx.shape[0]
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    xs[0] = x0
    ys[0] = y0
    x = x0
    y = y0
    n_reflect = 0
    kmax = cosc.shape[0]
    for i in range(n):
        x = x + dx[i]
        y = y + dy[i]
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
            disc = b * b - (r2 - 1.0)
            if disc < 0.0 or b <= 0.0:
                xs[i + 1] = x
                ys[i + 1] = y
                return xs, ys, n_reflect, i
            s = b - math.sqrt(disc)
            x = x - s * nx
            y = y - s * ny
            while x * x + y * y > 1.0:
                x *= 1.0 - 2e-16
                y *= 1.0 - 2e-16
            n_reflect += 1
        xs[i + 1] = x
        ys[i + 1] = y
    return xs, ys, n_reflect, -1


class TestReflectPath:
    def _run(self, domain, x0, y0, dx, dy):
        a, b, _ = domain._packed
        return K.reflect_path(
            float(x0),
            float(y0),
            np.ascontiguousarray(dx, dtype=float),
            np.ascontiguousarray(dy, dtype=float),
            float(domain.base_radius),
            np.ascontiguousarray(a),
            np.ascontiguousarray(b),
        )

    def test_containment_and_success_flag(self):
        rng = np.random.default_rng(2)
        steps = math.sqrt(5e-4) * rng.standard_normal((4000, 2))
        xs, ys, n_reflect, fail = self._run(
            StarDomain(1.0, (0.0, 0.15)), 0.0, 0.0, steps[:, 0], steps[:, 1]
        )
        assert fail == -1
        assert n_reflect > 0
        assert xs.shape == ys.shape == (4001,)
        assert (xs[0], ys[0]) == (0.0, 0.0)
        assert (xs * xs + ys * ys).max() <= 1.0

    def test_empty_increment_list(self):
        xs, ys, n_reflect, fail = self._run(
            StarDomain(1.0, ()), 0.3, -0.1, np.empty(0), np.empty(0)
        )
        assert fail == -1
        assert n_reflect == 0
        assert xs.tolist() == [0.3] and ys.tolist() == [-0.1]

    def test_near_tangent_normal_reports_the_step(self):
        # at cos(10 theta) = 0 the transported normal of this domain tilts
        # 71.6 degrees off radial; a long outward step from there leaves
        # no pull-back root
        spiky = StarDomain(1.0, (0.0,) * 9 + (0.3,))
        theta = math.pi / 20.0
        x0 = 0.999 * math.cos(theta)
        y0 = 0.999 * math.sin(theta)
        dx = np.array([0.06 * math.cos(theta)])
        dy = np.array([0.06 * math.sin(theta)])
        xs, ys, n_reflect, fail = self._run(spiky, x0, y0, dx, dy)
        assert fail == 0
        assert n_reflect == 0
        assert xs[1] ** 2 + ys[1] ** 2 > 1.0

    def _assert_matches_the_loop(self, domain, x0, y0, dx, dy):
        a, b, _ = domain._packed
        args = (x0, y0, dx, dy, domain.base_radius, a, b)
        xs, ys, n_reflect, fail = K.reflect_path(*args)
        xs_ref, ys_ref, n_ref, fail_ref = reflect_path_loop(*args)
        assert (n_reflect, fail) == (n_ref, fail_ref)
        # past a failing step the arrays hold no positions
        end = len(dx) + 1 if fail < 0 else fail + 2
        assert np.array_equal(xs[:end], xs_ref[:end])
        assert np.array_equal(ys[:end], ys_ref[:end])
        return n_reflect, fail

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8195])
    @pytest.mark.parametrize(
        "domain",
        [StarDomain(1.0, (0.0, 0.15)), StarDomain(0.95, (0.02, -0.03, 0.04), (0.03, 0.0, -0.02))],
        ids=["bump", "order3"],
    )
    def test_blocks_match_the_numpy_scalar_loop(self, domain, n):
        # strided increments, as rbm.path passes them, from near the wall
        steps = math.sqrt(1e-3) * np.random.default_rng(n).standard_normal((n, 2))
        n_reflect, fail = self._assert_matches_the_loop(
            domain, 0.9, -0.2, steps[:, 0], steps[:, 1]
        )
        assert fail == -1
        assert (n_reflect > 0) == (n >= 4095)

    def test_failure_in_the_second_block(self):
        # the near-tangent step of the spiky domain, taken after a first
        # block of reflected random steps and a step back to its start
        spiky = StarDomain(1.0, (0.0,) * 9 + (0.3,))
        theta = math.pi / 20.0
        x0, y0 = 0.999 * math.cos(theta), 0.999 * math.sin(theta)
        first = math.sqrt(1e-4) * np.random.default_rng(4).standard_normal((K.PATH_BLOCK, 2))
        xs, ys, _, _ = self._run(spiky, x0, y0, first[:, 0], first[:, 1])
        back = [x0 - xs[-1], y0 - ys[-1]]
        out = [0.06 * math.cos(theta), 0.06 * math.sin(theta)]
        steps = np.concatenate([first, [back, out]])
        n_reflect, fail = self._assert_matches_the_loop(
            spiky, x0, y0, steps[:, 0], steps[:, 1]
        )
        assert fail == K.PATH_BLOCK + 1
        assert n_reflect > 0


class TestBackendBitIdentity:
    def test_trajectory_hash_is_frozen(self):
        trajectory, _ = rbm.path(
            StarDomain(1.0, (0.0, 0.15)), rbm.PathConfig(seed=5, horizon=5.0)
        )
        digest = hashlib.sha256(trajectory.tobytes()).hexdigest()[:16]
        assert digest == TRAJECTORY_SHA16
