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

Polynomial terms have m >= k and m - k even.  Terms with m >= 2 may drop
that parity rule ("loose" terms, the low-power, high-frequency pairs that an
angle-dependent coefficient excites) or carry the log weight.  The plain
power family cannot produce a Laplacian proportional to r^{k-2} T: the
factor m^2 - k^2 vanishes on the needed power m = k.  The log term fills
that hole, since its resonant members (m = k) have the purely polynomial
Laplacian 2k r^{k-2} T.

Every evaluation runs on a ``PolarGrid``: angles theta (n_theta,) and
radii r (n_theta, n_r), point i n_r + j at radius r[i, j] on the ray at
theta[i].  Grids keep the polar coordinates they are built from: recovering
them from Cartesian points costs a hypot and an arctan per point and gives
one ray different angle bits at different radii.  ``PolarGrid.at`` takes
arbitrary points as one-point rays.  Transcendentals are computed once per
distinct value: cos and sin of k theta once per row and frequency, r^p once
per exponent, log r once per point.  Gather indices spread them over the
columns and each trig row is broadcast over its n_r points, so every entry
is the same floating point product as a point-by-point evaluation.

Negative exponents only occur where the prefactor vanishes (m <= 1 with
the parity rule), so powers are clipped at zero and the zero multiplier
keeps the arithmetic exact, including at r = 0.  Every term with m >= 2
has a continuous gradient at the origin; the Hessian components of the
m = 2 log terms diverge like log r there, which stays square integrable on
the disk, and are evaluated with a finite stand-in for log 0.

A basis evaluates polar-frame components only, one (N, n) block each; a
field contracts its coefficients first and rotates the results to
Cartesian axes with one cos/sin pair per row.  Coefficients are (n,) for
one field or (n, q) for q fields over one basis, evaluated from one block
into (N, q, ...) results.  The q columns are contracted one at a time, so
each equals its own (n,) field bit for bit; one (N, n) @ (n, q) matmul would reorder
the sums and, through the BLAS gemm buffers, raise the peak memory of a
Stein-kernel verification by about 6 MB.  Outside this module a term
table is read only as least-squares rows (``fit``, the equilibrated least
squares with its condition gate) and as a flux cancellation bound: every
field value, including the normal derivative against a normal given in
the polar frame, comes from a ``PolarField`` method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IllConditioned

COS, SIN = 0, 1
COND_GATE = 1e12


class PolarGrid:
    """Points on rays: point i n_r + j lies at radius r[i, j] on the ray at
    angle theta[i]; an (n_theta,) r is one point per ray.  ``weights`` (N,)
    are quadrature weights, when the grid is a quadrature."""

    def __init__(self, theta, r, weights=None):
        self.theta = np.asarray(theta, dtype=float)
        self.r = np.asarray(r, dtype=float).reshape(self.theta.size, -1)
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
        return self.r.size

    @cached_property
    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """cos theta and sin theta, one per row."""
        return np.cos(self.theta), np.sin(self.theta)

    @cached_property
    def points(self) -> np.ndarray:
        """(N, 2) Cartesian points r (cos theta, sin theta)."""
        ct, st = self.directions
        return np.stack([self.r * ct[:, None], self.r * st[:, None]], axis=-1).reshape(-1, 2)


class PolarBasis:
    """Table of r^m [log r] trig(k theta) terms with vectorized evaluation.

    ``logs`` holds the log weight w of each term, 0 or 1 (all 0 when
    omitted).  Evaluations have one row per point and one column per term.
    """

    def __init__(self, powers, freqs, kinds, logs=None):
        self.powers = np.asarray(powers, dtype=float)
        self.freqs = np.asarray(freqs, dtype=float)
        self.kinds = np.asarray(kinds, dtype=int)
        if logs is None:
            logs = np.zeros(self.powers.shape)
        self.logs = np.asarray(logs, dtype=float)
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
        # gather tables: the distinct frequencies, the columns of the
        # [cos | sin] table holding each term's T and T', and the scale of T'
        self._ks, k_col = np.unique(self.freqs, return_inverse=True)
        on_cos = self.kinds == COS
        sin_col = k_col + self._ks.size
        self._t_cols = np.where(on_cos, k_col, sin_col)
        self._td_cols = np.where(on_cos, sin_col, k_col)
        self._td_scale = np.where(on_cos, -self.freqs, self.freqs)
        # distinct exponents of r^{m - shift} and their columns, by shift
        self._expos = tuple(
            np.unique(np.maximum(self.powers - shift, 0.0), return_inverse=True)
            for shift in (0, 1, 2)
        )

    @property
    def n(self) -> int:
        return self.powers.size

    # -- radial and angular factors -------------------------------------------

    def _pow(self, g: PolarGrid, shift: int):
        expo, cols = self._expos[shift]
        return np.take(g.r.reshape(-1, 1) ** expo, cols, axis=1)

    def _log(self, g: PolarGrid):
        """log r per point; None for tables without log terms."""
        if not self.logs.any():
            return None
        # finite stand-in at r = 0; every use is multiplied by r^{m-2} >= r^0
        return np.log(np.maximum(g.r.reshape(-1), np.finfo(float).tiny))

    def _trig(self, g: PolarGrid, value: bool = True, derivative: bool = False):
        """T, T' or (T, T') per angle row, (n_theta, n), gathered from one
        cos/sin table of the distinct frequencies; T' = -k sin(k theta) on
        cos terms, k cos(k theta) on sin."""
        ang = np.multiply.outer(g.theta, self._ks)
        cs = np.concatenate([np.cos(ang), np.sin(ang)], axis=1)
        if not derivative:
            return np.take(cs, self._t_cols, axis=1)
        td = np.take(cs, self._td_cols, axis=1)
        td *= self._td_scale
        return (np.take(cs, self._t_cols, axis=1), td) if value else td

    def _closed_form(self, power, trig, lg, a, *addends):
        """power (a l + addends) trig, summed left to right, in one temporary.

        ``a`` and ``addends`` are per-term coefficient vectors of the formula
        table.  l is log r on log terms and 1 elsewhere, folded in as
        a w log r + a (1 - w); without log terms the sum stays a vector.
        """
        if lg is None:
            coeff = a * 1.0  # a copy: the addends accumulate in place
        else:
            coeff = lg[:, None] * (a * self.logs)
            coeff += a * (1.0 - self.logs)
        for b in addends:
            coeff += b
        out = power * coeff
        rows = out.reshape(trig.shape[0], -1, trig.shape[1])  # a view, by angle row
        rows *= trig[:, None, :]
        return out

    # -- evaluations ------------------------------------------------------------

    def values(self, g: PolarGrid):
        t = self._trig(g)
        return self._closed_form(self._pow(g, 0), t, self._log(g), 1.0)

    def radial_derivative(self, g: PolarGrid):
        t = self._trig(g)
        return self._closed_form(self._pow(g, 1), t, self._log(g), self.powers, self.logs)

    def gradients(self, g: PolarGrid):
        """Polar-frame gradient components (f_r, f_theta / r), each (N, n)."""
        t, td = self._trig(g, derivative=True)
        p1, lg = self._pow(g, 1), self._log(g)
        return (
            self._closed_form(p1, t, lg, self.powers, self.logs),
            self._closed_form(p1, td, lg, 1.0),
        )

    def normal_derivative(self, g: PolarGrid, nu_r, nu_theta):
        """f_r nu_r + (f_theta / r) nu_theta, (N, n), against a normal given
        by its polar components at each point."""
        fr, ftr = self.gradients(g)
        return fr * nu_r[:, None] + ftr * nu_theta[:, None]

    def hessian_rtheta(self, g: PolarGrid):
        """H_rtheta alone, (N, n): the middle component of ``hessian_frame``."""
        td = self._trig(g, value=False, derivative=True)
        return self._closed_form(
            self._pow(g, 2), td, self._log(g), self.powers - 1.0, self.logs
        )

    def hessian_frame(self, g: PolarGrid):
        """(H_rr, H_rtheta, H_thetatheta), each (N, n)."""
        hrt = self.hessian_rtheta(g)
        t = self._trig(g)
        m, k, w = self.powers, self.freqs, self.logs
        p2, lg = self._pow(g, 2), self._log(g)
        return (
            self._closed_form(p2, t, lg, m * (m - 1.0), 2.0 * m * w, -w),
            hrt,
            self._closed_form(p2, t, lg, m - k * k, w),
        )

    def laplacians(self, g: PolarGrid):
        t = self._trig(g)
        m, k = self.powers, self.freqs
        return self._closed_form(
            self._pow(g, 2), t, self._log(g), m * m - k * k, 2.0 * m * self.logs
        )


def concat(*parts: PolarBasis) -> PolarBasis:
    """One table holding the terms of ``parts`` in order."""
    return PolarBasis(
        *(
            np.concatenate([getattr(p, col) for p in parts])
            for col in ("powers", "freqs", "kinds", "logs")
        )
    )


def harmonic_basis(order: int, include_constant: bool = False) -> PolarBasis:
    """Harmonic polynomials r^k cos/sin(k theta) up to degree ``order``."""
    powers, freqs, kinds = [], [], []
    if include_constant:
        powers.append(0)
        freqs.append(0)
        kinds.append(COS)
    for k in range(1, order + 1):
        powers.extend([k, k])
        freqs.extend([k, k])
        kinds.extend([COS, SIN])
    return PolarBasis(powers, freqs, kinds)


def full_basis(order: int, include_constant: bool = False) -> PolarBasis:
    """All parity-admissible r^m trig(k theta) with m <= order."""
    powers, freqs, kinds = [], [], []
    if include_constant:
        powers.append(0)
        freqs.append(0)
        kinds.append(COS)
    for m in range(1, order + 1):
        for k in range(m % 2, m + 1, 2):
            if k == 0:
                powers.append(m)
                freqs.append(0)
                kinds.append(COS)
            else:
                powers.extend([m, m])
                freqs.extend([k, k])
                kinds.extend([COS, SIN])
    return PolarBasis(powers, freqs, kinds)


# The three constructors below name the term families of ``cascade_basis``;
# perfbench/spans.py also looks them up by name.


def LoosePolarBasis(powers, freqs, kinds) -> PolarBasis:
    """Terms r^m trig(k theta) whose frequency is unrestricted from m = 2 on."""
    return PolarBasis(powers, freqs, kinds)


def LogPolarBasis(powers, freqs, kinds) -> PolarBasis:
    """Terms r^m log(r) trig(k theta) with m >= 2."""
    return PolarBasis(powers, freqs, kinds, np.ones(len(powers)))


CompositeBasis = concat


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
    loose = ([], [], [])
    logged = ([], [], [])

    def add(store, m: int, k: int) -> None:
        if m < 2 or m > order or k > order:
            return
        for kind in (COS,) if k == 0 else (COS, SIN):
            store[0].append(m)
            store[1].append(k)
            store[2].append(kind)

    for k in range(0, order + 1):
        add(loose, k - 2, k)
        for shift in (-2, 0, 2):
            add(logged, k + shift, k)
        add(loose, k - 4, k)
        for offset in (-7, -5, -1, 1):
            add(loose, k + offset, k)
    return CompositeBasis(
        full_basis(order),
        LoosePolarBasis(*loose),
        LogPolarBasis(*logged),
    )


def _cartesian(g: PolarGrid, *frame):
    """Polar-frame components, one (N,) or (N, q) array each, rotated to
    Cartesian axes: (v_r, v_theta) to (..., 2) vectors, (H_rr, H_rtheta,
    H_thetatheta) to (..., 2, 2) symmetric matrices.  Each row's cos/sin
    pair is broadcast over its points."""
    shape = frame[0].shape
    ct, st = (c.reshape((-1,) + (1,) * len(shape)) for c in g.directions)
    frame = [f.reshape((ct.shape[0], -1) + shape[1:]) for f in frame]
    if len(frame) == 2:
        vr, vt = frame
        out = np.stack([vr * ct - vt * st, vr * st + vt * ct], axis=-1)
        return out.reshape(shape + (2,))
    hrr, hrt, htt = frame
    hxx = ct * ct * hrr - 2.0 * ct * st * hrt + st * st * htt
    hxy = ct * st * (hrr - htt) + (ct * ct - st * st) * hrt
    hyy = st * st * hrr + 2.0 * ct * st * hrt + ct * ct * htt
    return np.stack([hxx, hxy, hxy, hyy], axis=-1).reshape(shape + (2, 2))


def fit(rows, rhs) -> tuple[np.ndarray, float]:
    """Column-equilibrated least squares rows @ coeffs ~ rhs, with rhs (M,)
    or (M, q).  Returns the coefficients and the condition number of the
    equilibrated matrix; raises IllConditioned above COND_GATE = 1e12."""
    norms = np.linalg.norm(rows, axis=0)
    norms[norms == 0.0] = 1.0
    sol, _, _, svals = np.linalg.lstsq(rows / norms, rhs, rcond=None)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if cond > COND_GATE:
        raise IllConditioned(f"least-squares condition {cond:.3g} > 1e12")
    return (sol.T / norms).T, cond


@dataclass(frozen=True)
class PolarField:
    """A fixed linear combination over a PolarBasis; (n, q) coefficients
    hold q fields, evaluated together."""

    basis: PolarBasis
    coeffs: np.ndarray

    def _dot(self, table):
        """table @ coeffs, a column of (n, q) coefficients at a time."""
        if self.coeffs.ndim == 1:
            return table @ self.coeffs
        return np.stack([table @ np.ascontiguousarray(c) for c in self.coeffs.T], axis=-1)

    def value(self, g: PolarGrid):
        return self._dot(self.basis.values(g))

    def gradient(self, g: PolarGrid):
        return _cartesian(g, *map(self._dot, self.basis.gradients(g)))

    def hessian(self, g: PolarGrid):
        return _cartesian(g, *map(self._dot, self.basis.hessian_frame(g)))

    def laplacian(self, g: PolarGrid):
        return self._dot(self.basis.laplacians(g))

    def radial_derivative(self, g: PolarGrid):
        return self._dot(self.basis.radial_derivative(g))

    def normal_derivative(self, g: PolarGrid, nu_r, nu_theta):
        return self._dot(self.basis.normal_derivative(g, nu_r, nu_theta))

    def hessian_rtheta(self, g: PolarGrid):
        return self._dot(self.basis.hessian_rtheta(g))

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
            raise ValueError("Poisson preimages of log terms are not tabled")
        powers = b.powers + 2.0
        factor = powers * powers - b.freqs * b.freqs
        if np.any(factor == 0.0):
            raise ValueError("resonant terms (k = m + 2) have no polynomial preimage")
        return PolarField(PolarBasis(powers, b.freqs, b.kinds), (self.coeffs.T / factor).T)
