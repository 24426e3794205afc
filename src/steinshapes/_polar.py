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

Every evaluation runs on a ``PolarGrid``, a tensor product of its factors:
angles theta (n_theta,), ray radii R (n_theta,) and radial fractions t
(n_t,), point i n_t + j at radius r = R[i] t[j] on the ray at theta[i].
Bulk and disk quadratures are such products; ``PolarGrid.at`` takes
arbitrary points, and circles and boundary frames their angles, as
one-point rays (t = (1,)).  Grids keep the polar coordinates they are built
from: recovering them from Cartesian points costs a hypot and an arctan per
point and gives one ray different angle bits at different radii.

Negative exponents only occur where the prefactor vanishes (m <= 1 with
the parity rule), so powers are clipped at zero and the zero multiplier
keeps the arithmetic exact, including at r = 0.  Every term with m >= 2
has a continuous gradient at the origin; the Hessian components of the
m = 2 log terms diverge like log r there, which stays square integrable on
the disk, and are evaluated with a finite stand-in for log 0.

A basis evaluates (N, n) term tables, one per polar-frame component: cos
and sin of k theta once per row and frequency, r^p once per exponent and
log r once per point, spread over the columns by gather indices, each trig
row broadcast over its n_t points, so every entry is the same floating
point product as a point-by-point evaluation.  A term table is read only as
least-squares rows (``fit``, the equilibrated least squares with its
condition gate) and, outside this module, as a flux cancellation bound.

A field never builds a term table.  On the tensor grid each component is a
sum over the E distinct exponents of r (a few dozen, against hundreds of
terms):

    f[i, j] = sum_e R_i^e A[i, e] t_j^e,    A = cs @ C,

with cs the (n_theta, 2K) [cos | sin] table of the K distinct frequencies
and C (2K, E) the formula coefficients times the field's coefficients,
summed over the terms of each (frequency, exponent) cell.  A log term
splits as log r = log R + log t into two more such columns: R^e log R
against t^e, and R^e against t^e log t.  Each component then costs one
(n_theta, 2K) @ (2K, E) and one (n_theta, E) @ (E, n_t) product per
coefficient column; gradients and Hessians rotate A to Cartesian axes with
each row's cos/sin pair between the two.  Coefficients are (n,) for one
field or (n, q) for q fields over one basis, contracted one column at a
time, so each column equals its own (n,) field bit for bit.  Field values
agree with the term tables to round-off, not bit for bit: R^e t^e is not
(R t)^e, and the sums run in another order.  Every field value, including
the normal derivative against a normal given in the polar frame, comes
from a ``PolarField`` method.
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
    """Points on rays, a tensor product of ray radii and radial fractions:
    point i n_t + j lies at radius r[i, j] = radius[i] t[j] on the ray at
    angle theta[i].  One-point rays have t = (1,), so r = radius.
    ``weights`` (N,) are quadrature weights, when the grid is a quadrature."""

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
        # distinct exponents of r^{m - shift} and their columns, by shift;
        # then the same over the log terms alone (all have m >= 2)
        self._expos = tuple(
            np.unique(np.maximum(self.powers - shift, 0.0), return_inverse=True)
            for shift in (0, 1, 2)
        )
        self._log_terms = np.flatnonzero(self.logs)
        self._log_expos = tuple(
            np.unique(self.powers[self._log_terms] - shift, return_inverse=True)
            for shift in (0, 1, 2)
        )

    @property
    def n(self) -> int:
        return self.powers.size

    @cached_property
    def _forms(self):
        """The closed form of each polar-frame component, the module
        docstring's table, as (shift, derivative, a, addends): r^{m - shift}
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
        }

    # -- radial and angular factors -------------------------------------------

    def _cos_sin(self, g: PolarGrid):
        """[cos | sin](k theta) of the distinct frequencies, (n_theta, 2K)."""
        ang = np.multiply.outer(g.theta, self._ks)
        return np.concatenate([np.cos(ang), np.sin(ang)], axis=1)

    def _trig(self, cs, derivative: bool):
        """T or T' per angle row, (n_theta, n), gathered from the cos/sin
        table; T' = -k sin(k theta) on cos terms, k cos(k theta) on sin."""
        if not derivative:
            return np.take(cs, self._t_cols, axis=1)
        td = np.take(cs, self._td_cols, axis=1)
        td *= self._td_scale
        return td

    def _pow(self, g: PolarGrid, shift: int):
        expo, cols = self._expos[shift]
        return np.take(g.r.reshape(-1, 1) ** expo, cols, axis=1)

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

    def _tables(self, g: PolarGrid, *names):
        """(N, n) term tables of the named components, which share one shift."""
        cs, power = self._cos_sin(g), self._pow(g, self._forms[names[0]][0])
        lg = _log(g.r.reshape(-1)) if self.logs.any() else None
        out = []
        for name in names:
            _, derivative, a, addends = self._forms[name]
            out.append(self._closed_form(power, self._trig(cs, derivative), lg, a, *addends))
        return out

    # -- term tables ------------------------------------------------------------

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
        fr, ftr = self.gradients(g)
        return fr * nu_r[:, None] + ftr * nu_theta[:, None]

    def hessian_rtheta(self, g: PolarGrid):
        """H_rtheta alone, (N, n): the middle component of ``hessian_frame``."""
        return self._tables(g, "H_rtheta")[0]

    def hessian_frame(self, g: PolarGrid):
        """(H_rr, H_rtheta, H_thetatheta), each (N, n)."""
        return tuple(self._tables(g, *HESSIAN))

    def laplacians(self, g: PolarGrid):
        return self._tables(g, "laplacian")[0]


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

    def _contract(self, g: PolarGrid, names, combine=None):
        """The named polar-frame components, which share one shift, by
        exponent contraction, one coefficient column at a time.

        Per column, each component is an angular array A (n_theta, width)
        over exponent columns, radial factor included; ``combine`` maps
        them to one (*comp, n_theta, width) array (without it, the one
        component is taken), and the axial factor (width, n_t) contracts
        that to the grid's points.  Returns (N, *comp) for (n,)
        coefficients and (N, q, *comp) for (n, q).
        """
        b = self.basis
        cs = b._cos_sin(g)
        shift = b._forms[names[0]][0]
        expo, e_col = b._expos[shift]
        log_expo, l_col = b._log_expos[shift]
        # radial and axial factors of the plain part r^e = R^e t^e and of
        # the log part r^e log r = R^e log R t^e + R^e t^e log t
        r_pow, t_pow = g.radius[:, None] ** log_expo, g.t ** log_expo[:, None]
        radial = np.concatenate(
            [g.radius[:, None] ** expo, r_pow * _log(g.radius)[:, None], r_pow], axis=1
        )
        axial = np.concatenate([g.t ** expo[:, None], t_pow, t_pow * _log(g.t)])
        width = axial.shape[0]
        # each entry's cell in the (2K, width) grid of [cos | sin] columns by
        # exponent columns, and its formula weight: one entry per term for
        # the plain part, two more per log term for the log part
        logs = b._log_terms
        terms = np.concatenate([np.arange(b.n), logs, logs])
        e_cells = np.concatenate([e_col, expo.size + l_col, expo.size + log_expo.size + l_col])
        forms = []
        for name in names:
            _, derivative, a, addends = b._forms[name]
            rows, scale = (b._td_cols, b._td_scale) if derivative else (b._t_cols, 1.0)
            plain = (a * (1.0 - b.logs) + sum(addends)) * scale
            logged = (a * b.logs * scale)[logs]
            forms.append(
                (rows[terms] * width + e_cells, np.concatenate([plain, logged, logged]))
            )
        columns = self.coeffs.reshape(b.n, -1).T
        out = None
        for j, c in enumerate(columns):
            entries, angular = c[terms], []
            for cells, weights in forms:
                cell_sums = np.bincount(cells, weights * entries, cs.shape[1] * width)
                ang = cs @ cell_sums.reshape(cs.shape[1], width)
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
