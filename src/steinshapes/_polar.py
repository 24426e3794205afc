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

Transcendentals are computed once per distinct value, not per column:
cos and sin of k theta over the distinct frequencies of the table, r^p
over its distinct exponents, and log r once per point.  Precomputed gather
indices spread them over the columns, so every entry is the same floating
point product as a column-by-column evaluation.

Negative exponents only occur where the prefactor vanishes (m <= 1 with
the parity rule), so powers are clipped at zero and the zero multiplier
keeps the arithmetic exact, including at r = 0.  Every term with m >= 2
has a continuous gradient at the origin; the Hessian components of the
m = 2 log terms diverge like log r there, which stays square integrable on
the disk, and are evaluated with a finite stand-in for log 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COS, SIN = 0, 1


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

    def _pow(self, r, shift: int):
        expo, cols = self._expos[shift]
        return np.take(np.asarray(r, dtype=float)[:, None] ** expo, cols, axis=1)

    def _log(self, r):
        """log r per point; None for tables without log terms."""
        if not self.logs.any():
            return None
        # finite stand-in at r = 0; every use is multiplied by r^{m-2} >= r^0
        return np.log(np.maximum(np.asarray(r, dtype=float), np.finfo(float).tiny))

    def _trig(self, theta, value: bool = True, derivative: bool = False):
        """T, T' or (T, T'), gathered from one cos/sin table of the distinct
        frequencies; T' = -k sin(k theta) on cos terms, k cos(k theta) on sin."""
        ang = np.multiply.outer(theta, self._ks)
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
        out *= trig
        return out

    # -- evaluations ------------------------------------------------------------

    def values(self, r, theta):
        t = self._trig(theta)
        return self._closed_form(self._pow(r, 0), t, self._log(r), 1.0)

    def radial_derivative(self, r, theta):
        t = self._trig(theta)
        p1, lg = self._pow(r, 1), self._log(r)
        return self._closed_form(p1, t, lg, self.powers, self.logs)

    def angular_over_r(self, r, theta):
        """(1/r) d/dtheta, the thetahat gradient component."""
        td = self._trig(theta, value=False, derivative=True)
        return self._closed_form(self._pow(r, 1), td, self._log(r), 1.0)

    def gradients(self, r, theta):
        """Cartesian gradients, shape (N, n, 2)."""
        t, td = self._trig(theta, derivative=True)
        p1, lg = self._pow(r, 1), self._log(r)
        fr = self._closed_form(p1, t, lg, self.powers, self.logs)
        ftr = self._closed_form(p1, td, lg, 1.0)
        ct = np.cos(theta)[:, None]
        st = np.sin(theta)[:, None]
        out = np.empty(fr.shape + (2,))
        a, b = fr * ct, ftr * st
        np.subtract(a, b, out=out[..., 0])
        np.multiply(fr, st, out=a)
        np.multiply(ftr, ct, out=b)
        np.add(a, b, out=out[..., 1])
        return out

    def hessian_rtheta(self, r, theta):
        """H_rtheta alone, (N, n): the middle component of ``hessian_frame``."""
        td = self._trig(theta, value=False, derivative=True)
        return self._closed_form(
            self._pow(r, 2), td, self._log(r), self.powers - 1.0, self.logs
        )

    def hessian_frame(self, r, theta):
        """(H_rr, H_rtheta, H_thetatheta), each (N, n)."""
        hrt = self.hessian_rtheta(r, theta)
        t = self._trig(theta)
        m, k, w = self.powers, self.freqs, self.logs
        p2, lg = self._pow(r, 2), self._log(r)
        return (
            self._closed_form(p2, t, lg, m * (m - 1.0), 2.0 * m * w, -w),
            hrt,
            self._closed_form(p2, t, lg, m - k * k, w),
        )

    def hessians(self, r, theta):
        """Cartesian Hessians, shape (N, n, 2, 2)."""
        hrr, hrt, htt = self.hessian_frame(r, theta)
        ct = np.cos(theta)[:, None]
        st = np.sin(theta)[:, None]
        hxx = ct * ct * hrr - 2.0 * ct * st * hrt + st * st * htt
        hxy = ct * st * (hrr - htt) + (ct * ct - st * st) * hrt
        hyy = st * st * hrr + 2.0 * ct * st * hrt + ct * ct * htt
        out = np.empty(hrr.shape + (2, 2))
        out[..., 0, 0] = hxx
        out[..., 0, 1] = hxy
        out[..., 1, 0] = hxy
        out[..., 1, 1] = hyy
        return out

    def laplacians(self, r, theta):
        t = self._trig(theta)
        m, k = self.powers, self.freqs
        return self._closed_form(
            self._pow(r, 2), t, self._log(r), m * m - k * k, 2.0 * m * self.logs
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


def to_polar(points) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(points, dtype=float)
    return np.hypot(p[..., 0], p[..., 1]), np.arctan2(p[..., 1], p[..., 0])


def gradients_of(fields, points) -> list[np.ndarray]:
    """Gradients of fields over one shared basis, from a single evaluation of
    that basis; each equals ``field.gradient(points)`` bit for bit."""
    basis = fields[0].basis
    if any(f.basis is not basis for f in fields):
        raise ValueError("fields must share one basis")
    grads = basis.gradients(*to_polar(points))
    return [np.einsum("njd,j->nd", grads, f.coeffs) for f in fields]


@dataclass(frozen=True)
class PolarField:
    """A fixed linear combination over a PolarBasis."""

    basis: PolarBasis
    coeffs: np.ndarray

    def value_polar(self, r, theta):
        return self.basis.values(r, theta) @ self.coeffs

    def value(self, points):
        return self.value_polar(*to_polar(points))

    def gradient_polar(self, r, theta):
        return np.einsum("njd,j->nd", self.basis.gradients(r, theta), self.coeffs)

    def gradient(self, points):
        return self.gradient_polar(*to_polar(points))

    def hessian_polar(self, r, theta):
        return np.einsum("njab,j->nab", self.basis.hessians(r, theta), self.coeffs)

    def hessian(self, points):
        return self.hessian_polar(*to_polar(points))

    def laplacian_polar(self, r, theta):
        return self.basis.laplacians(r, theta) @ self.coeffs

    def laplacian(self, points):
        return self.laplacian_polar(*to_polar(points))

    def radial_derivative(self, r, theta):
        return self.basis.radial_derivative(r, theta) @ self.coeffs
