"""The polar term-table engine against its own calculus and its term rules."""

from __future__ import annotations

import numpy as np
import pytest

from steinshapes import _polar, oblique
from steinshapes._polar import COS, SIN, PolarBasis, PolarGrid
from steinshapes.errors import IllConditioned, InputError
from steinshapes.shapes import StarDomain, bulk_grid, circle_grid, disk_grid

STEP = 1e-5
METHODS = (
    "values",
    "radial_derivative",
    "gradients",
    "hessian_rtheta",
    "laplacians",
)


FIELD_METHODS = ("value", "gradient", "hessian", "laplacian", "radial_derivative")


@pytest.fixture(scope="module")
def basis():
    # polynomial, loose and log terms in one table, constant included
    return _polar.concat(_polar.cascade_basis(12), _polar.full_basis(6, True))


@pytest.fixture(scope="module")
def field(basis):
    return _polar.PolarField(basis, np.random.default_rng(5).standard_normal(basis.n))


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(11)
    r = rng.uniform(0.05, 1.0, 200)
    theta = rng.uniform(-np.pi, np.pi, 200)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


@pytest.fixture(scope="module")
def grid(points):
    return PolarGrid.at(points)


@pytest.fixture(scope="module")
def bulk():
    return bulk_grid(StarDomain(1.0, (0.05, 0.1), (0.02, -0.03)), 32, 8)


def blocks(out):
    """The (N, n) blocks of a basis evaluation: one, or a tuple of them."""
    return out if isinstance(out, tuple) else (out,)


def central_difference(fn, pts):
    """Partial derivatives of fn in x and y, stacked on a new last axis."""
    parts = []
    for axis in (0, 1):
        shift = np.zeros(2)
        shift[axis] = STEP
        ahead, behind = PolarGrid.at(pts + shift), PolarGrid.at(pts - shift)
        parts.append((fn(ahead) - fn(behind)) / (2.0 * STEP))
    return np.stack(parts, axis=-1)


def test_table_holds_every_term_family(basis):
    assert basis.logs.any()
    loose = (basis.freqs > basis.powers) | ((basis.powers - basis.freqs) % 2 != 0)
    assert loose.any()
    assert basis.n == _polar.cascade_basis(12).n + _polar.full_basis(6, True).n


def test_gradients_match_central_differences(field, points, grid):
    exact = field.gradient(grid)
    approx = central_difference(field.value, points)
    assert np.abs(exact - approx).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_hessians_match_central_differences(field, points, grid):
    exact = field.hessian(grid)
    approx = central_difference(field.gradient, points)
    assert np.abs(exact - approx).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_hessian_trace_is_the_laplacian(field, grid):
    hess = field.hessian(grid)
    lap = field.laplacian(grid)
    trace = hess[..., 0, 0] + hess[..., 1, 1]
    assert np.abs(trace - lap).max() <= 1e-12 * max(1.0, np.abs(lap).max())


def test_radial_and_angular_parts_rebuild_the_gradient(field, grid):
    fr, ftr = field.basis.gradients(grid)
    np.testing.assert_array_equal(fr, field.basis.radial_derivative(grid))
    # the Cartesian gradient projects back onto rhat and thetahat
    ct, st = grid.directions
    grad = field.gradient(grid)
    want = (fr @ field.coeffs, ftr @ field.coeffs)
    scale = np.abs(grad).max()
    back = (grad[:, 0] * ct + grad[:, 1] * st, grad[:, 1] * ct - grad[:, 0] * st)
    for got, w in zip(back, want):
        assert np.abs(got - w).max() <= 1e-13 * scale


def test_normal_derivative_is_the_cartesian_gradient_along_the_normal(field, grid):
    rng = np.random.default_rng(7)
    theta = grid.theta
    phi = rng.uniform(-np.pi, np.pi, theta.size)
    nu = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    # polar components of nu: its projections on rhat and thetahat
    nu_r = nu[:, 0] * np.cos(theta) + nu[:, 1] * np.sin(theta)
    nu_t = -nu[:, 0] * np.sin(theta) + nu[:, 1] * np.cos(theta)
    got = field.basis.normal_derivative(grid, nu_r, nu_t) @ field.coeffs
    want = np.sum(field.gradient(grid) * nu, axis=1)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", [COS, SIN], ids=["cos", "sin"])
def test_resonant_log_terms_have_polynomial_laplacians(grid, kind):
    r, theta = grid.r[:, 0], grid.theta
    ks = np.arange(2, 13)
    resonant = PolarBasis(ks, ks, np.full(ks.size, kind), np.ones(ks.size))
    trig = np.cos(np.outer(theta, ks)) if kind == COS else np.sin(np.outer(theta, ks))
    expected = r[:, None] ** (ks - 2.0) * 2.0 * ks * trig
    np.testing.assert_allclose(
        resonant.laplacians(grid), expected, rtol=1e-13, atol=1e-14
    )


def test_every_method_is_finite_at_the_origin(basis):
    origin = PolarGrid(np.linspace(-np.pi, np.pi, 9), np.zeros((9, 1)))
    for method in METHODS:
        for block in blocks(getattr(basis, method)(origin)):
            assert np.isfinite(block).all(), method


def test_concat_keeps_each_part_columnwise(basis, grid):
    parts = (_polar.cascade_basis(12), _polar.full_basis(6, True))
    for method in ("values", "laplacians", "gradients"):
        pieces = zip(*(blocks(getattr(p, method)(grid)) for p in parts))
        for got, want in zip(blocks(getattr(basis, method)(grid)), pieces):
            np.testing.assert_array_equal(got, np.concatenate(want, axis=1))


def test_concat_with_itself_duplicates_every_column(basis, grid):
    # the doubled table repeats every frequency and exponent, so this checks
    # that the gather indices send each column its own transcendentals
    doubled = _polar.concat(basis, basis)
    for method in METHODS:
        once = blocks(getattr(basis, method)(grid))
        twice = blocks(getattr(doubled, method)(grid))
        for a, b in zip(once, twice):
            assert np.array_equal(np.concatenate([a, a], axis=1), b), method


def test_multi_column_field_matches_its_columns(basis, grid, bulk):
    # (n, q) coefficients are q fields on one basis evaluation, each column
    # bit for bit its own (n,) field, on one-point rays and on a tensor grid
    coeffs = np.random.default_rng(3).standard_normal((basis.n, 3))
    joint = _polar.PolarField(basis, coeffs)
    single = [_polar.PolarField(basis, coeffs[:, j].copy()) for j in range(3)]
    for g in (grid, bulk):
        for method in FIELD_METHODS + ("hessian_rtheta",):
            got = getattr(joint, method)(g)
            assert got.shape[:2] == (g.size, 3), method
            for j, field in enumerate(single):
                assert np.array_equal(got[:, j], getattr(field, method)(g)), method


@pytest.mark.parametrize(
    "terms, message",
    [
        pytest.param(([2], [0], [SIN]), "sin terms", id="sin-k0"),
        pytest.param(([1], [1], [COS], [1]), "log terms", id="log-m1"),
        pytest.param(([0], [0], [COS], [1]), "log terms", id="log-m0"),
        pytest.param(([2], [2], [COS], [0.5]), "log weights", id="log-weight-half"),
        pytest.param(([1], [3], [COS]), "m < 2", id="loose-m1"),
        pytest.param(([0], [2], [SIN]), "m < 2", id="loose-m0"),
        pytest.param(([1], [0], [COS]), "m < 2", id="odd-parity-m1"),
        pytest.param(([0], [1], [COS]), "m < 2", id="odd-parity-m0"),
        pytest.param(([2, 3], [0], [COS]), "shape", id="ragged"),
    ],
)
def test_invalid_terms_are_rejected(terms, message):
    with pytest.raises(ValueError, match=message):
        PolarBasis(*terms)


def test_loose_terms_need_no_parity_from_m_two_on():
    loose = PolarBasis([2, 2, 3], [5, 1, 0], [COS, SIN, COS])
    assert loose.n == 3
    assert not loose.logs.any()


@pytest.mark.parametrize("solve", [_polar.fit, _polar.fit_normal], ids=["fit", "fit_normal"])
def test_fit_gates_the_condition_and_solves_two_right_hand_sides(solve):
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((40, 3))
    with pytest.raises(IllConditioned, match="condition"):
        solve(np.column_stack([rows, rows[:, 0]]), rng.standard_normal(40))
    # columns two orders of magnitude apart: the equilibration removes that
    rows *= [10.0, 1.0, 0.1]
    coeffs = rng.standard_normal((3, 2))
    got, cond = solve(rows, rows @ coeffs)
    assert cond < 10.0
    np.testing.assert_allclose(got, coeffs, rtol=1e-12)


@pytest.mark.parametrize("solve", [_polar.fit, _polar.fit_normal], ids=["fit", "fit_normal"])
def test_fit_gates_a_wide_system(solve):
    # more unknowns than rows: a null space, which the min(M, N) singular
    # values of lstsq do not show
    rng = np.random.default_rng(3)
    with pytest.raises(IllConditioned, match="condition inf"):
        solve(rng.standard_normal((5, 8)), rng.standard_normal(5))


@pytest.mark.parametrize(
    "tokens",
    [["x1"], ["x2"], ["r2"], ["one"], ["quadrupole"], ["x1", "r2", "quadrupole"]],
    ids="+".join,
)
def test_poisson_preimage_inverts_the_laplacian(tokens, grid):
    h = sum((oblique.parse_rhs(t) for t in tokens[1:]), oblique.parse_rhs(tokens[0]))
    got = h.poisson_preimage().laplacian(grid)
    want = h.value(grid)
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "basis, message",
    [
        pytest.param(_polar.LogPolarBasis([2], [2], [COS]), "log terms", id="log"),
        pytest.param(_polar.LoosePolarBasis([2], [4], [SIN]), "resonant", id="resonant"),
    ],
)
def test_poisson_preimage_rejects_untabled_terms(basis, message):
    with pytest.raises(InputError, match=message):
        _polar.PolarField(basis, np.ones(1)).poisson_preimage()


# -- the grid contract -----------------------------------------------------------


@pytest.mark.parametrize("q", [None, 3], ids=["one-field", "three-fields"])
def test_rows_broadcast_like_one_point_rays(basis, bulk, q):
    # each of the 32 angle rows carries 8 points; the same points as 256
    # one-point rays give the same values up to round-off (the contraction
    # factors r^e as R^e t^e on the tensor grid), while the same rays with
    # their angles rolled by one row miss that by orders of magnitude, so a
    # misaligned row broadcast (trig factors or rotations sent to the wrong
    # points) fails here
    shape = (basis.n,) if q is None else (basis.n, q)
    field = _polar.PolarField(basis, np.random.default_rng(4).standard_normal(shape))
    rays = PolarGrid(np.repeat(bulk.theta, 8), bulk.r.reshape(-1, 1))
    rolled = PolarGrid(np.repeat(np.roll(bulk.theta, 1), 8), bulk.r.reshape(-1, 1))
    for method in FIELD_METHODS:
        got, want = getattr(field, method)(bulk), getattr(field, method)(rays)
        assert got.shape == want.shape and got.shape[0] == bulk.size, method
        bound = 1e-13 * np.abs(want).max()
        assert np.abs(got - want).max() <= bound, method
        assert np.abs(getattr(field, method)(rolled) - want).max() > 1e6 * bound, method


ALL_FIELD_METHODS = FIELD_METHODS + ("hessian_rtheta", "normal_derivative")
TABLES = (
    "values",
    "radial_derivative",
    "gradients",
    "normal_derivative",
    "hessian_rtheta",
    "laplacians",
)
LAYOUTS = ("bulk", "disk", "sup-disk", "rays")


def layout_grid(layout, bulk, grid):
    """The grid of a layout.  The sup-disk layout has t = 0, where the log
    terms' Hessians take the finite stand-in for log 0."""
    return {
        "bulk": bulk,
        "disk": disk_grid(32, 8),
        "sup-disk": PolarGrid(circle_grid(32)[0], np.ones(32), np.linspace(0.0, 1.0, 65)),
        "rays": grid,
    }[layout]


def closed_forms(basis, g):
    """The module docstring's eight closed forms, evaluated term by term at
    each point from r = R t, (N, n) each, with log r taking the same finite
    stand-in at r = 0 and negative powers clipped at zero."""
    theta = np.repeat(g.theta, g.t.size)[:, None]
    r = g.r.reshape(-1, 1)
    m, k, w = basis.powers, basis.freqs, basis.logs
    on_cos = basis.kinds == COS
    trig = np.where(on_cos, np.cos(k * theta), np.sin(k * theta))
    trig_d = np.where(on_cos, -k * np.sin(k * theta), k * np.cos(k * theta))
    log_r = np.log(np.maximum(r, np.finfo(float).tiny))
    lg = np.where(w == 1.0, log_r, 1.0)

    def power(shift):
        return r ** np.maximum(m - shift, 0.0)

    return {
        "value": power(0) * lg * trig,
        "f_r": power(1) * (m * lg + w) * trig,
        "f_theta/r": power(1) * lg * trig_d,
        "H_rr": power(2) * (m * (m - 1) * lg + w * (2 * m - 1)) * trig,
        "H_rtheta": power(2) * ((m - 1) * lg + w) * trig_d,
        "H_thetatheta": power(2) * ((m - k * k) * lg + w) * trig,
        "laplacian": power(2) * ((m * m - k * k) * lg + 2 * m * w) * trig,
        "area": power(-2) * (lg / (m + 2) - w / (m + 2) ** 2) * trig,
    }


def cartesian(g, *frame):
    """Polar-frame gradients (v_r, v_theta) or Hessians (H_rr, H_rtheta,
    H_thetatheta), (N, ...) each, rotated to Cartesian axes point by point."""
    theta = np.repeat(g.theta, g.t.size)
    ct, st = np.cos(theta), np.sin(theta)
    rot = np.moveaxis(np.array([[ct, -st], [st, ct]]), -1, 0)  # (N, 2, 2)
    if len(frame) == 2:
        return np.einsum("nab,n...b->n...a", rot, np.stack(frame, axis=-1))
    hrr, hrt, htt = frame
    polar = np.stack([np.stack([hrr, hrt], -1), np.stack([hrt, htt], -1)], -2)
    return np.einsum("nab,n...bc,ndc->n...ad", rot, polar, rot)


def table_route(field, method, g, nu):
    """A field method other than the Hessian, evaluated from the basis term
    tables, the gradient rotated to Cartesian axes point by point."""
    b, c = field.basis, field.coeffs
    if method == "normal_derivative":
        return b.normal_derivative(g, *nu) @ c
    if method == "gradient":
        return cartesian(g, *(t @ c for t in b.gradients(g)))
    table = {"value": "values", "laplacian": "laplacians"}.get(method, method)
    return getattr(b, table)(g) @ c


def reference_route(field, method, g, nu):
    """A field method from the closed forms at each point."""
    forms = {name: f @ field.coeffs for name, f in closed_forms(field.basis, g).items()}
    if method == "normal_derivative":
        nu_r, nu_t = (np.reshape(x, (-1,) + (1,) * (field.coeffs.ndim - 1)) for x in nu)
        return forms["f_r"] * nu_r + forms["f_theta/r"] * nu_t
    if method == "gradient":
        return cartesian(g, forms["f_r"], forms["f_theta/r"])
    if method == "hessian":
        return cartesian(g, forms["H_rr"], forms["H_rtheta"], forms["H_thetatheta"])
    name = {"radial_derivative": "f_r", "hessian_rtheta": "H_rtheta"}.get(method, method)
    return forms[name]


def field_route(field, method, g, nu):
    if method == "normal_derivative":
        return field.normal_derivative(g, *nu)
    return getattr(field, method)(g)


@pytest.mark.parametrize("q", [None, 3], ids=["one-field", "three-fields"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_contraction_matches_the_term_tables(basis, bulk, grid, layout, q):
    # the two readers of one cell map: fields scatter coefficients into it,
    # term tables gather from it; the Hessian has no term table and is held
    # to the closed forms below
    g = layout_grid(layout, bulk, grid)
    rng = np.random.default_rng(9)
    shape = (basis.n,) if q is None else (basis.n, q)
    field = _polar.PolarField(basis, rng.standard_normal(shape))
    phi = rng.uniform(-np.pi, np.pi, g.size)
    nu = (np.cos(phi), np.sin(phi))
    for method in ALL_FIELD_METHODS:
        if method == "hessian":
            continue
        got = field_route(field, method, g, nu)
        want = table_route(field, method, g, nu)
        assert got.shape == want.shape, method
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), method


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tables_match_the_closed_forms(basis, bulk, grid, layout):
    # each term table against the docstring's formulas evaluated point by
    # point, an implementation that shares nothing with the cell map
    g = layout_grid(layout, bulk, grid)
    forms = closed_forms(basis, g)
    phi = np.random.default_rng(8).uniform(-np.pi, np.pi, g.size)
    nu_r, nu_t = np.cos(phi), np.sin(phi)
    pairs = [
        (basis.values(g), forms["value"]),
        (basis.radial_derivative(g), forms["f_r"]),
        *zip(basis.gradients(g), (forms["f_r"], forms["f_theta/r"])),
        (
            basis.normal_derivative(g, nu_r, nu_t),
            forms["f_r"] * nu_r[:, None] + forms["f_theta/r"] * nu_t[:, None],
        ),
        (basis.hessian_rtheta(g), forms["H_rtheta"]),
        (basis.laplacians(g), forms["laplacian"]),
    ]
    for i, (got, want) in enumerate(pairs):
        assert got.shape == want.shape == (g.size, basis.n), i
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), i


@pytest.mark.parametrize("layout", LAYOUTS)
def test_values_and_normal_derivative_equal_the_two_tables(basis, bulk, grid, layout):
    # one cs table serves both shifts: the tables are those of the two
    # separate calls bit for bit, log terms and multi-point rays included
    g = layout_grid(layout, bulk, grid)
    phi = np.random.default_rng(9).uniform(-np.pi, np.pi, g.size)
    nu_r, nu_t = np.cos(phi), np.sin(phi)
    vals, dnu = basis.values_and_normal_derivative(g, nu_r, nu_t)
    assert np.array_equal(vals, basis.values(g))
    assert np.array_equal(dnu, basis.normal_derivative(g, nu_r, nu_t))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_fields_match_the_closed_forms(basis, bulk, grid, layout):
    g = layout_grid(layout, bulk, grid)
    rng = np.random.default_rng(10)
    field = _polar.PolarField(basis, rng.standard_normal((basis.n, 2)))
    phi = rng.uniform(-np.pi, np.pi, g.size)
    nu = (np.cos(phi), np.sin(phi))
    for method in ALL_FIELD_METHODS:
        got = field_route(field, method, g, nu)
        want = reference_route(field, method, g, nu)
        assert got.shape == want.shape, method
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), method


def test_area_primitive_matches_its_closed_form(basis):
    # one field column per term, at random points and on the unit circle
    rng = np.random.default_rng(12)
    theta = rng.uniform(-np.pi, np.pi, 200)
    r = np.concatenate([rng.uniform(0.0, 1.0, 150), np.ones(50)])
    g = PolarGrid(theta, r)
    got = _polar.PolarField(basis, np.eye(basis.n)).area_primitive(g)
    want = closed_forms(basis, g)["area"]
    assert got.shape == want.shape == (g.size, basis.n)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_area_primitive_integrates_each_term_over_the_disk(basis):
    # int_{B_1} r^m [log r] T = int P(1, theta) dtheta: 2 pi / (m + 2), or
    # -2 pi / (m + 2)^2 with the log, on k = 0 cos terms, and 0 otherwise
    theta, dtheta = circle_grid(int(basis.freqs.max()) + 1)
    got = dtheta * _polar.PolarField(basis, np.eye(basis.n)).area_primitive(
        PolarGrid.circle(theta)
    ).sum(axis=0)
    m, w = basis.powers, basis.logs
    radial = (basis.freqs == 0) & (basis.kinds == COS)
    want = np.where(radial, 2.0 * np.pi * np.where(w == 1.0, -1.0 / (m + 2), 1.0) / (m + 2), 0.0)
    assert np.abs(got - want).max() <= 1e-14


def test_field_methods_build_no_term_table(monkeypatch):
    # a field evaluates by exponent contraction alone: with the table reader
    # and every term-table method of the basis disabled, each field method
    # still returns, so no (N, n) table is built behind a field value
    # (8192 x 379 here)
    basis = _polar.cascade_basis(16)
    field = _polar.PolarField(basis, np.random.default_rng(6).standard_normal(basis.n))
    g = disk_grid(256, 32)

    def refuse(*args, **kwargs):
        raise AssertionError("a field evaluation built a term table")

    for name in TABLES + ("_tables",):
        monkeypatch.setattr(PolarBasis, name, refuse)
    nu = (np.ones(g.size), np.zeros(g.size))
    for method in ALL_FIELD_METHODS:
        got = field_route(field, method, g, nu)
        assert got.shape[0] == g.size and np.isfinite(got).all(), method


def test_at_recovers_the_grid_from_its_points(field, bulk):
    again = PolarGrid.at(bulk.points)
    np.testing.assert_allclose(again.r[:, 0], bulk.r.ravel(), rtol=1e-13)
    assert np.abs(again.points - bulk.points).max() <= 1e-13 * np.abs(bulk.points).max()
    for method in FIELD_METHODS:
        want = getattr(field, method)(bulk)
        got = getattr(field, method)(again)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), method


def test_grid_size_is_its_point_count(bulk):
    # the benchmark's point counter reads np.size of an evaluation's first
    # argument, which for a grid is its size
    assert np.size(bulk) == bulk.size == len(bulk.points) == 256
    assert bulk.weights.shape == (bulk.size,)
