"""Evaluation engine for polynomial-trigonometric fields on the plane.

A basis is one table of terms, each a row (m, k, kind, w):

    w = 0:   r^m trig(k theta)
    w = 1:   r^m log(r) trig(k theta)

with trig = cos or sin.  Writing T = trig(k theta), T' = dT/dtheta, and
l = log r on log terms and l = 1 otherwise, every evaluation is one closed
form for the whole table:

    value            = r^m l T
    f_r              = r^{m-1} (m l + w) T
    (1/r) f_theta    = r^{m-1} l T'
    H_rr             = r^{m-2} (m (m-1) l + w (2m - 1)) T
    H_rtheta         = r^{m-2} ((m-1) l + w) T'     (frame component d/dr(f_theta/r))
    H_thetatheta     = r^{m-2} ((m - k^2) l + w) T  (f_thetatheta/r^2 + f_r/r)
    Laplacian        = r^{m-2} ((m^2 - k^2) l + 2 m w) T
    area P           = r^{m+2} (l / (m+2) - w / (m+2)^2) T   (int_0^r s f(s, theta) ds)

P turns area integrals into circle ones: int_Omega f = int P(R(theta), theta)
dtheta over the star domain Omega of R, and P(1, theta) is a trig polynomial.

Polynomial terms have m >= k and m - k even.  Terms with m >= 2 may drop
that parity rule ("loose" terms, the low-power, high-frequency pairs that an
angle-dependent coefficient excites) or carry the log weight.  The plain
power family cannot produce a Laplacian proportional to r^{k-2} T: the
factor m^2 - k^2 vanishes on the needed power m = k.  The log term fills
that hole, since its resonant members (m = k) have the purely polynomial
Laplacian 2k r^{k-2} T.

Every evaluation runs on a ``PolarGrid``, a tensor product of its factors:
angles theta (n_theta,), ray radii R (n_theta,) and radial fractions t
(n_t,), point i n_t + j at radius r = R[i] t[j] on the ray at theta[i].
Bulk and disk quadratures are such products; ``PolarGrid.at`` takes
arbitrary points, circles their angles and boundary frames (weighted by
J dtheta) their boundary points, as one-point rays (t = (1,)).  Grids keep
the polar coordinates they are built from: recovering them from Cartesian
points costs a hypot and an arctan per point and gives one ray different
angle bits at different radii.

Negative exponents only occur where the prefactor vanishes (m <= 1 with
the parity rule), so powers are clipped at zero and the zero multiplier
keeps the arithmetic exact, including at r = 0.  Every term with m >= 2
has a continuous gradient at the origin; the Hessian components of the
m = 2 log terms diverge like log r there, which stays square integrable on
the disk, and are evaluated with a finite stand-in for log 0.

Both readers of a basis go through one cell map per component, built from
the basis alone and kept with it.  A cell pairs a column of cs, the
(n_theta, 2K) [cos | sin] table of the K distinct frequencies, with an
exponent column.  Each term has an entry at its T or T' column and its
exponent, weighted by the plain part of its formula; a log term has two
more, weighted by the log part, since log r = log R + log t splits r^e log r
into R^e log R t^e and R^e t^e log t.  The grid factors are cs, the radial
columns (n_theta, width) and the axial rows (width, n_t):

- a field scatters its coefficients into the (2K, width) cells, one
  ``bincount`` per component and coefficient column, and contracts:
  (n_theta, 2K) @ (2K, width), times the radial columns, @ (width, n_t).
  Gradients and Hessians rotate to Cartesian axes between the two products.
  (n, q) coefficients go one column at a time, so each column equals its
  own (n,) field bit for bit;
- a term table (N, n) gathers: each entry's cs column times its radial
  column, times its axial row with the weight folded in; each log entry
  then adds into its term's column.  Every cell map of a basis has the
  same frequencies, so tables asked for together share one cs table, and
  their radial and axial factors are built once per shift:
  ``values_and_normal_derivative`` tables a boundary frame once for the
  Steklov Gram matrices.  Tables are read as least-squares rows (``fit``
  and ``fit_normal``, which gate their condition), as those Gram
  matrices, and times fitted coefficients at the Stein kernel's odd
  residual angles.

The readers agree to round-off, not bit for bit.  Every field value comes
from a ``PolarField`` method, except in the Stein test panel: its six test
terms are fixed Cartesian quadratics, read in closed form from the grid
points, so the audit of a kernel does not go through the evaluator that
built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import IllConditioned, InputError

COS, SIN = 0, 1
COND_GATE = 1e12
NORMAL_COND = 1e3  # fit_normal: normal equations up to here, where cond^2 eps ~ 2e-10


class PolarGrid:
    """Points on rays, a tensor product of ray radii and radial fractions:
    point i n_t + j lies at radius r[i, j] = radius[i] t[j] on the ray at
    angle theta[i].  One-point rays have t = (1,), so r = radius.
    ``weights`` (N,) are quadrature weights, when the grid is a quadrature.
    A boundary frame is such a grid of one-point rays, weighted by J dtheta."""

    def __init__(self, theta, radius, t=(1.0,), weights=None):
        self.theta = np.asarray(theta, dtype=float)
        self.radius = np.asarray(radius, dtype=float).reshape(self.theta.shape)
        self.t = np.asarray(t, dtype=float)
        self.weights = weights

    @classmethod
    def at(cls, points) -> "PolarGrid":
        """Arbitrary (N, 2) Cartesian points, one ray each."""
        p = np.asarray(points, dtype=float)
        return cls(np.arctan2(p[:, 1], p[:, 0]), np.hypot(p[:, 0], p[:, 1]))

    @classmethod
    def circle(cls, theta) -> "PolarGrid":
        """The unit circle at the given angles."""
        return cls(theta, np.ones(np.size(theta)))

    @property
    def size(self) -> int:
        return self.radius.size * self.t.size

    @cached_property
    def r(self) -> np.ndarray:
        """(n_theta, n_t) radii, the outer product of radius and t."""
        return np.multiply.outer(self.radius, self.t)

    @cached_property
    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """cos theta and sin theta, one per row."""
        return np.cos(self.theta), np.sin(self.theta)

    @cached_property
    def points(self) -> np.ndarray:
        """(N, 2) Cartesian points r (cos theta, sin theta)."""
        ct, st = self.directions
        return np.stack([self.r * ct[:, None], self.r * st[:, None]], axis=-1).reshape(-1, 2)


def _log(x):
    """log x with a finite stand-in at 0; every use is multiplied by
    r^{m-2} >= r^0."""
    return np.log(np.maximum(x, np.finfo(float).tiny))


GRADIENT = ("f_r", "f_theta/r")
HESSIAN = ("H_rr", "H_rtheta", "H_thetatheta")


class PolarBasis:
    """Table of r^m [log r] trig(k theta) terms with vectorized evaluation.

    ``logs`` holds the log weight w of each term, 0 or 1 (all 0 when
    omitted).  Evaluations have one row per point and one column per term.
    """

    def __init__(self, powers, freqs, kinds, logs=None):
        self.powers = np.array(powers, dtype=float)
        self.freqs = np.array(freqs, dtype=float)
        self.kinds = np.array(kinds, dtype=int)
        self.logs = np.zeros(self.powers.shape) if logs is None else np.array(logs, dtype=float)
        shapes = {a.shape for a in (self.powers, self.freqs, self.kinds, self.logs)}
        if len(shapes) != 1:
            raise ValueError("term arrays must share a shape")
        if np.any((self.kinds == SIN) & (self.freqs == 0)):
            raise ValueError("sin terms need k >= 1")
        if np.any((self.logs != 0.0) & (self.logs != 1.0)):
            raise ValueError("log weights must be 0 or 1")
        if np.any((self.logs == 1.0) & (self.powers < 2)):
            raise ValueError("log terms need m >= 2")
        polynomial = (self.freqs <= self.powers) & ((self.powers - self.freqs) % 2 == 0)
        if np.any((self.powers < 2) & ~polynomial):
            raise ValueError("terms with m < 2 must satisfy m >= k with m - k even")
        # read-only: the cell maps, and every holder of a cached basis, rely
        # on the terms never changing
        for column in (self.powers, self.freqs, self.kinds, self.logs):
            column.flags.writeable = False
        self._maps: dict[str, CellMap] = {}

    @property
    def n(self) -> int:
        return self.powers.size

    @cached_property
    def _forms(self):
        """The closed form of each component, the module docstring's
        table, as (shift, derivative, a, addends): r^{m - shift}
        (a l + addends) times T, or T' when ``derivative``.  ``a`` and the
        addends are per-term vectors (or scalars)."""
        m, k, w = self.powers, self.freqs, self.logs
        return {
            "value": (0, False, 1.0, ()),
            "f_r": (1, False, m, (w,)),
            "f_theta/r": (1, True, 1.0, ()),
            "H_rr": (2, False, m * (m - 1.0), (2.0 * m * w, -w)),
            "H_rtheta": (2, True, m - 1.0, (w,)),
            "H_thetatheta": (2, False, m - k * k, (w,)),
            "laplacian": (2, False, m * m - k * k, (2.0 * m * w,)),
            "area": (-2, False, 1.0 / (m + 2.0), (-w / (m + 2.0) ** 2,)),
        }

    def _cells(self, name: str) -> CellMap:
        """The cell map of one component, the only reader of ``_forms``.  The
        maps of all components of its shift are built on first use and kept.

        Entries run over the terms, then the log terms twice.  T' is -k
        sin(k theta) on cos terms and k cos(k theta) on sin terms, its scale
        folded into the weight.  Exponent columns are r^{m - shift} clipped
        at zero, then R^e log R and R^e over the log terms' exponents."""
        if name in self._maps:
            return self._maps[name]
        m, w, shift = self.powers, self.logs, self._forms[name][0]
        ks, k_col = np.unique(self.freqs, return_inverse=True)
        on_cos = self.kinds == COS
        logs = np.flatnonzero(w)
        terms = np.concatenate([np.arange(self.n), logs, logs])
        expo, e_col = np.unique(np.maximum(m - shift, 0.0), return_inverse=True)
        log_expo, l_col = np.unique(m[logs] - shift, return_inverse=True)
        xs = np.concatenate([e_col, expo.size + l_col, expo.size + log_expo.size + l_col])
        width = expo.size + 2 * log_expo.size
        for key, (s, derivative, a, addends) in self._forms.items():
            if s == shift:
                cols = np.where(on_cos != derivative, k_col, k_col + ks.size)[terms]
                scale = np.where(on_cos, -self.freqs, self.freqs) if derivative else 1.0
                plain = (a * (1.0 - w) + sum(addends)) * scale
                logged = (a * w * scale)[logs]
                weights = np.concatenate([plain, logged, logged])
                flat = cols * width + xs
                self._maps[key] = CellMap(
                    ks, expo, log_expo, terms, cols, xs, weights, flat, logs
                )
        return self._maps[name]

    def _tables(self, g: PolarGrid, *names):
        """(N, n) term tables of the named components, gathered from their
        cell maps.  The maps of a basis share their frequencies, so one cs
        table serves every name; the radial and axial factors are built
        once per shift."""
        maps = [self._cells(name) for name in names]
        cs, n = maps[0].trig(g), self.n
        powers = {}
        tables = []
        for name, cells in zip(names, maps):
            shift = self._forms[name][0]
            if shift not in powers:
                radial, axial = cells.powers(g)
                xs = cells.xs
                powers[shift] = np.take(radial, xs, axis=1), np.take(axial.T, xs, axis=1)
            radial, axial = powers[shift]
            rows = np.take(cs, cells.cols, axis=1)
            rows *= radial
            # times the weighted axial rows, (n_theta, n_t, entries); in place
            # on one-point rays, where each row is one point
            rows, axial_w = rows[:, None, :], axial * cells.weights
            in_place = rows[..., :n] if g.t.size == 1 else None
            table = np.multiply(rows[..., :n], axial_w[:, :n], out=in_place).reshape(g.size, n)
            if cells.terms.size > n:
                logged = (rows[..., n:] * axial_w[:, n:]).reshape(g.size, 2, -1)
                table[:, cells.logs] += logged[:, 0] + logged[:, 1]
            tables.append(table)
        return tables

    def values(self, g: PolarGrid):
        return self._tables(g, "value")[0]

    def radial_derivative(self, g: PolarGrid):
        return self._tables(g, "f_r")[0]

    def gradients(self, g: PolarGrid):
        """Polar-frame gradient components (f_r, f_theta / r), each (N, n)."""
        return tuple(self._tables(g, *GRADIENT))

    def normal_derivative(self, g: PolarGrid, nu_r, nu_theta):
        """f_r nu_r + (f_theta / r) nu_theta, (N, n), against a normal given
        by its polar components at each point."""
        return _normal(*self.gradients(g), nu_r, nu_theta)

    def values_and_normal_derivative(self, g: PolarGrid, nu_r, nu_theta):
        """``values(g)`` and ``normal_derivative(g, nu_r, nu_theta)``, bit for
        bit, from one cs table of g's angles."""
        vals, fr, ftr = self._tables(g, "value", *GRADIENT)
        return vals, _normal(fr, ftr, nu_r, nu_theta)

    def hessian_rtheta(self, g: PolarGrid):
        """H_rtheta, the frame component d/dr(f_theta/r), (N, n)."""
        return self._tables(g, "H_rtheta")[0]

    def laplacians(self, g: PolarGrid):
        return self._tables(g, "laplacian")[0]


def _normal(fr, ftr, nu_r, nu_theta):
    """fr nu_r + ftr nu_theta row by row, in place in fr."""
    fr *= nu_r[:, None]
    fr += ftr * nu_theta[:, None]
    return fr


class CellMap(NamedTuple):
    """One component's cell map: the (2K, width) cells pair the [cos | sin]
    columns of the frequencies ``ks`` with exponent columns R^e t^e over
    ``expo``, then R^e log R t^e and R^e t^e log t over ``log_expo``.  Entry
    i adds weights[i] times term terms[i] to cell (cols[i], xs[i]), flat[i]
    in the raveled grid; ``logs`` are the log terms' table columns."""

    ks: np.ndarray
    expo: np.ndarray
    log_expo: np.ndarray
    terms: np.ndarray
    cols: np.ndarray
    xs: np.ndarray
    weights: np.ndarray
    flat: np.ndarray
    logs: np.ndarray

    def trig(self, g: PolarGrid):
        """cs, the (n_theta, 2K) [cos | sin] table of ks at g's angles."""
        ang = np.multiply.outer(g.theta, self.ks)
        cs = np.empty((g.theta.size, 2 * self.ks.size))
        np.cos(ang, out=cs[:, : self.ks.size])
        np.sin(ang, out=cs[:, self.ks.size :])
        return cs

    def powers(self, g: PolarGrid):
        """The radial columns (n_theta, width) and the axial rows
        (width, n_t), with r^e = R^e t^e and r^e log r = R^e log R t^e +
        R^e t^e log t."""
        radial, axial = g.radius[:, None] ** self.expo, g.t ** self.expo[:, None]
        if self.log_expo.size:
            r_pow, t_pow = g.radius[:, None] ** self.log_expo, g.t ** self.log_expo[:, None]
            radial = np.concatenate([radial, r_pow * _log(g.radius)[:, None], r_pow], axis=1)
            axial = np.concatenate([axial, t_pow, t_pow * _log(g.t)])
        return radial, axial


def concat(*parts: PolarBasis) -> PolarBasis:
    """One table holding the terms of ``parts`` in order."""
    columns = ("powers", "freqs", "kinds", "logs")
    return PolarBasis(*(np.concatenate([getattr(p, c) for p in parts]) for c in columns))


# The named families are cached: a basis is a constant of its order, and
# solves at one truncation share it and the cell maps it keeps.


@cache
def harmonic_basis(order: int, include_constant: bool = False) -> PolarBasis:
    """Harmonic polynomials r^k cos/sin(k theta) up to degree ``order``."""
    terms = [(0, 0, COS)] * include_constant
    terms += [(k, k, kind) for k in range(1, order + 1) for kind in (COS, SIN)]
    return PolarBasis(*np.reshape(terms, (-1, 3)).T)


@cache
def full_basis(order: int, include_constant: bool = False) -> PolarBasis:
    """All parity-admissible r^m trig(k theta) with m <= order."""
    terms = [(0, 0, COS)] * include_constant
    for m in range(1, order + 1):
        for k in range(m % 2, m + 1, 2):
            terms += [(m, k, kind) for kind in ((COS,) if k == 0 else (COS, SIN))]
    return PolarBasis(*np.reshape(terms, (-1, 3)).T)


# The three constructors below name the term families of ``cascade_basis``;
# perfbench/spans.py also looks them up by name.


def LoosePolarBasis(powers, freqs, kinds) -> PolarBasis:
    """Terms r^m trig(k theta) whose frequency is unrestricted from m = 2 on."""
    return PolarBasis(powers, freqs, kinds)


def LogPolarBasis(powers, freqs, kinds) -> PolarBasis:
    """Terms r^m log(r) trig(k theta) with m >= 2."""
    return PolarBasis(powers, freqs, kinds, np.ones(len(powers)))


CompositeBasis = concat


@cache
def cascade_basis(order: int) -> PolarBasis:
    """Polynomial family closed under angle-coupled corrections.

    An interior operator whose coefficients depend on the polar angle
    couples a polynomial datum to frequencies outside the polynomial
    parity class and resonates on the pairs m = k, whose Poisson
    preimages carry a log weight.  Per frequency k this basis therefore
    extends ``full_basis(order)`` with the powers m = k - 2 and m = k - 4,
    the parity-breaking shells m in {k - 7, k - 5, k - 1, k + 1} that
    boundaries with odd harmonics excite, and the log-weighted powers
    m in {k - 2, k, k + 2}.  Powers inside each family stay two apart,
    which keeps the collocation Gram matrices away from the ill
    conditioning of consecutive-power sets.
    """
    if order < 2:
        raise ValueError(f"cascade basis needs order >= 2, got {order}")
    loose, logged = [], []

    def add(store, m: int, k: int) -> None:
        if 2 <= m <= order and k <= order:
            store += [(m, k, kind) for kind in ((COS,) if k == 0 else (COS, SIN))]

    for k in range(0, order + 1):
        add(loose, k - 2, k)
        for shift in (-2, 0, 2):
            add(logged, k + shift, k)
        add(loose, k - 4, k)
        for offset in (-7, -5, -1, 1):
            add(loose, k + offset, k)
    return CompositeBasis(
        full_basis(order),
        LoosePolarBasis(*np.reshape(loose, (-1, 3)).T),
        LogPolarBasis(*np.reshape(logged, (-1, 3)).T),
    )


def _cartesian(g: PolarGrid, *frame):
    """Polar-frame components, (n_theta, ...) arrays with one row per ray,
    rotated to Cartesian axes with the row's cos/sin pair: (v_r, v_theta)
    to (2, n_theta, ...) vectors, (H_rr, H_rtheta, H_thetatheta) to
    (2, 2, n_theta, ...) symmetric matrices."""
    ct, st = (c.reshape((-1,) + (1,) * (frame[0].ndim - 1)) for c in g.directions)
    if len(frame) == 2:
        vr, vt = frame
        return np.stack([vr * ct - vt * st, vr * st + vt * ct])
    hrr, hrt, htt = frame
    hxx = ct * ct * hrr - 2.0 * ct * st * hrt + st * st * htt
    hxy = ct * st * (hrr - htt) + (ct * ct - st * st) * hrt
    hyy = st * st * hrr + 2.0 * ct * st * hrt + ct * ct * htt
    return np.stack([hxx, hxy, hxy, hyy]).reshape((2, 2) + hrr.shape)


def fit(rows, rhs) -> tuple[np.ndarray, float]:
    """Column-equilibrated least squares rows @ coeffs ~ rhs, with rhs (M,)
    or (M, q).  Returns the coefficients and the condition number of the
    equilibrated matrix; raises IllConditioned above COND_GATE.  A wide
    system (M < N) is missing N - M zero singular values: condition inf."""
    norms = np.linalg.norm(rows, axis=0)
    norms[norms == 0.0] = 1.0
    sol, _, _, svals = np.linalg.lstsq(rows / norms, rhs, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 and svals.size == norms.size else math.inf
    if cond > COND_GATE:
        raise IllConditioned(f"least-squares condition {cond:.3g} > {COND_GATE:g}")
    return (sol.T / norms).T, cond


def fit_normal(rows, rhs) -> tuple[np.ndarray, float]:
    """``fit`` for rows well conditioned by construction: the equilibrated
    normal equations, solved when the condition read from the Gram
    eigenvalues is at most NORMAL_COND = 1e3.  Above that the rows go
    to ``fit``, whose gate and message then apply; so do the rows of a wide
    system, whose singular Gram matrix reads a condition far above it.
    Its callers are ``oblique.solve_oblique_kernel_variant`` and
    ``stein.stein_kernel_solve``."""
    gram = rows.T @ rows
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0.0] = 1.0
    gram /= np.multiply.outer(norms, norms)
    eigs = np.linalg.eigvalsh(gram)
    cond = math.sqrt(eigs[-1] / eigs[0]) if eigs[0] > 0.0 else math.inf
    if cond > NORMAL_COND:
        return fit(rows, rhs)
    sol = np.linalg.solve(gram, ((rhs.T @ rows) / norms).T)
    return (sol.T / norms).T, cond


@dataclass(frozen=True)
class PolarField:
    """A fixed linear combination over a PolarBasis; (n, q) coefficients
    hold q fields, evaluated together."""

    basis: PolarBasis
    coeffs: np.ndarray

    def _contract(self, g: PolarGrid, names, combine=None):
        """The named polar-frame components, which share one shift, one
        coefficient column at a time: per column, each component is an
        (n_theta, width) array, radial factor included; ``combine`` maps
        them to one (*comp, n_theta, width) array (without it, the one
        component is taken) for the product with the axial rows.  Returns
        (N, *comp) for (n,) coefficients and (N, q, *comp) for (n, q)."""
        b = self.basis
        maps = [b._cells(name) for name in names]
        cs, (radial, axial) = maps[0].trig(g), maps[0].powers(g)
        n_cells = cs.shape[1] * axial.shape[0]
        columns = self.coeffs.reshape(b.n, -1).T
        out = None
        for j, c in enumerate(columns):
            entries, angular = c[maps[0].terms], []
            for m in maps:
                cell_sums = np.bincount(m.flat, m.weights * entries, n_cells)
                ang = cs @ cell_sums.reshape(cs.shape[1], -1)
                ang *= radial
                angular.append(ang)
            block = combine(g, *angular) if combine else angular[0]
            if out is None:
                out = np.empty((len(columns),) + block.shape[:-1] + (g.t.size,))
            np.matmul(block, axial, out=out[j])
        # (q, *comp, n_theta, n_t) to (N, q, *comp)
        out = np.moveaxis(out.reshape(out.shape[:-2] + (-1,)), -1, 0)
        return np.ascontiguousarray(out if self.coeffs.ndim == 2 else out[:, 0])

    def value(self, g: PolarGrid):
        return self._contract(g, ("value",))

    def gradient(self, g: PolarGrid):
        return self._contract(g, GRADIENT, _cartesian)

    def hessian(self, g: PolarGrid):
        return self._contract(g, HESSIAN, _cartesian)

    def laplacian(self, g: PolarGrid):
        return self._contract(g, ("laplacian",))

    def radial_derivative(self, g: PolarGrid):
        return self._contract(g, ("f_r",))

    def normal_derivative(self, g: PolarGrid, nu_r, nu_theta):
        """f_r nu_r + (f_theta / r) nu_theta against a normal given by its
        polar components at each point."""
        frame = self._contract(g, GRADIENT, lambda g, *frame: np.stack(frame))
        axes = (-1,) + (1,) * (frame.ndim - 2)
        nu_r, nu_theta = np.reshape(nu_r, axes), np.reshape(nu_theta, axes)
        return frame[..., 0] * nu_r + frame[..., 1] * nu_theta

    def hessian_rtheta(self, g: PolarGrid):
        return self._contract(g, ("H_rtheta",))

    def area_primitive(self, g: PolarGrid):
        """P(r, theta) = int_0^r s f(s, theta) ds, the area row of the table."""
        return self._contract(g, ("area",))

    def __add__(self, other: "PolarField") -> "PolarField":
        """The terms of self, then those of other."""
        return PolarField(
            concat(self.basis, other.basis), np.concatenate([self.coeffs, other.coeffs])
        )

    def poisson_preimage(self) -> "PolarField":
        """F with Laplacian F = self: each r^m T maps to r^{m+2} T / ((m+2)^2 - k^2).
        Log terms and resonant ones (k = m + 2) have no such preimage."""
        b = self.basis
        if b.logs.any():
            raise InputError("Poisson preimages of log terms are not tabled")
        powers = b.powers + 2.0
        factor = powers * powers - b.freqs * b.freqs
        if np.any(factor == 0.0):
            raise InputError("resonant terms (k = m + 2) have no polynomial preimage")
        return PolarField(PolarBasis(powers, b.freqs, b.kinds), (self.coeffs.T / factor).T)
