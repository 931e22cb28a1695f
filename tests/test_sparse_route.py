"""The sparse route: a problem whose operator has at most 1 % nonzero
entries grows its bases through one sparse LU of the shifted operator,
and its residuals multiply by the sparse form.  Test operators are
five-point heat operators built with ``scipy.sparse``; on a coarser
grid the same operators take the dense route, which the operator and
init checks cover too."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from dsda import decoupled, matkit
from dsda.decoupled import (
    MatrixPropagator,
    ResolventPropagator,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
)
from dsda.driver import SolveConfig, solve_driver
from dsda.errors import SingularMatrixError
from dsda.matkit import SPARSE_MAX_DENSITY
from dsda.problems import (
    BsepProblem,
    CareProblem,
    DareProblem,
    MareProblem,
    gen_random_care,
    gen_random_mare,
)
from dsda.residuals import care_residual, dare_residual, mare_residual

#: n = 576 with 0.84 % of the entries nonzero.
GRID = 24
#: n = 256 with 1.9 % nonzero: the same operators take the dense route.
DENSE_GRID = 16
#: Transport strength: off-diagonals of -heat(GRID, WIND) stay <= 0,
#: so it remains an M-matrix.
WIND = 2.0


def heat(grid: int, wind: float = 0.0) -> np.ndarray:
    """Dense five-point heat operator, scaled by h^-2/100 (stable).

    ``wind`` adds a central-difference transport term along one axis
    on the same stencil, which makes the operator nonsymmetric (its
    symmetric part, and so its stability, is unchanged).
    """
    h = 1.0 / (grid + 1)
    line = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(grid, grid))
    skew = sp.diags([-1.0, 1.0], [-1, 1], shape=(grid, grid))
    eye = sp.identity(grid)
    return ((sp.kron(eye, line) + sp.kron(line, eye)) * (h ** -2 / 100.0)
            + wind * sp.kron(eye, skew)).toarray()


def rel(x, y) -> float:
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def factors(n: int, *widths, seed: int = 0, complex_=False):
    rng = np.random.default_rng(seed)
    out = [rng.uniform(0.0, 1.0, (n, w)) / n for w in widths]
    if complex_:
        out = [f + 1j * rng.uniform(0.0, 1.0, f.shape) / n for f in out]
    return out


def heat_care(grid=GRID, gamma=1.0, wind=WIND) -> CareProblem:
    a = heat(grid, wind)
    b, c = factors(a.shape[0], 2, 2, seed=1)
    return CareProblem(a, b, c.T, gamma=gamma)


def heat_dare(grid=GRID) -> DareProblem:
    a = 0.01 * heat(grid, WIND)
    b, c = factors(a.shape[0], 2, 2, seed=2)
    return DareProblem(a, b, c.T)


def heat_mare(grid=GRID, wind=WIND, **shifts) -> MareProblem:
    a = -heat(grid, wind)                  # an M-matrix
    n = a.shape[0]
    b_l, b_r, c_l, c_r = factors(n, 2, 2, 1, 1, seed=3)
    return MareProblem(a, 2.0 * a, b_l, b_r, c_l, c_r, **shifts)


def heat_bsep(grid=GRID) -> BsepProblem:
    a = heat(grid).astype(complex)
    (l_b,) = factors(a.shape[0], 2, seed=4, complex_=True)
    return BsepProblem(a, l_b, alpha=2.0)


def dense_inverse(m: np.ndarray) -> np.ndarray:
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=m.dtype))


def propagators(grid=GRID):
    """(label, operator, dense propagator P) on the route ``grid`` takes;
    labels on the dense route end in ``-dense``."""
    care, dare, bsep = heat_care(grid), heat_dare(grid), heat_bsep(grid)
    eye = np.eye(care.n)
    out = [
        ("care", dsda_sym_init(care).chains["v"].op,
         eye + 2.0 * care.gamma * dense_inverse(care.a - care.gamma * eye)),
        ("dare", dsda_sym_init(dare).chains["v"].op, dare.a),
        ("bsep", dsda_sym_init(bsep).chains["v"].op,
         (eye - 2.0 * bsep.alpha * dense_inverse(bsep.alpha * eye - bsep.a))
         .conj()),
    ]
    mare = heat_mare(grid)
    floors = mare.shift_floors()
    for mode, (alpha, beta) in (("sda", (floors["gamma"],) * 2),
                                ("adda", (floors["alpha"], floors["beta"]))):
        s = dsda_mare_init(mare, mode)
        shift_sum = alpha + beta
        out += [
            (f"mare-{mode}-A", s.chains["u"].op,
             eye - shift_sum * dense_inverse(mare.a + beta * eye)),
            (f"mare-{mode}-D", s.chains["w"].op,
             eye - shift_sum * dense_inverse(mare.d + alpha * eye)),
        ]
    suffix = "" if grid == GRID else "-dense"
    return [(label + suffix, op, dense) for label, op, dense in out]


PROPAGATORS = propagators() + propagators(DENSE_GRID)


@pytest.mark.parametrize("label,op,dense", PROPAGATORS,
                         ids=[label for label, _, _ in PROPAGATORS])
def test_operator_matches_dense_propagator(label, op, dense):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((dense.shape[0], 3))
    if np.iscomplexobj(dense):
        x = x + 1j * rng.standard_normal(x.shape)
    sparse = label != "dare" and not label.endswith("-dense")
    assert type(op) is (ResolventPropagator if sparse else MatrixPropagator)
    assert op.shape == dense.shape and op.dtype == dense.dtype
    assert rel(op.apply(x), dense @ x) <= 1e-13
    assert rel(op.apply_t(x), dense.T @ x) <= 1e-13
    assert rel(op.apply(np.eye(dense.shape[0], dtype=op.dtype)),
               dense) <= 1e-13


def test_init_blocks_match_dense_solves():
    solve = np.linalg.solve
    checks = []
    for grid in (GRID, DENSE_GRID):
        care, bsep, mare = heat_care(grid), heat_bsep(grid), heat_mare(grid)
        eye = np.eye(care.n)
        chains = dsda_sym_init(care).chains
        m = care.a - care.gamma * eye
        checks += [(chains["u"].first, solve(m, care.b)),
                   (chains["v"].first, solve(m.T, care.c.T))]
        chains = dsda_sym_init(bsep).chains
        checks.append((chains["v"].first,
                       solve(bsep.alpha * eye - bsep.a.conj(),
                             bsep.l_b.conj())))
        for mode in ("sda", "adda"):
            alpha, beta = mare.shifts(mode)
            a_b, d_a = mare.a + beta * eye, mare.d + alpha * eye
            chains = dsda_mare_init(mare, mode).chains
            checks += [(chains["u"].first, solve(a_b, mare.b_l)),
                       (chains["v"].first, solve(a_b.T, mare.c_r)),
                       (chains["w"].first, solve(d_a, mare.c_l)),
                       (chains["q"].first, solve(d_a.T, mare.b_r))]
    for got, want in checks:
        assert rel(got, want) <= 1e-13


@pytest.mark.parametrize("grid,factor", [(DENSE_GRID, "lu_factor_checked"),
                                         (GRID, "splu_shifted")],
                         ids=["dense", "sparse"])
def test_one_factorization_per_shifted_operator(monkeypatch, grid, factor):
    # The first blocks and the propagator come from the same factor.
    calls = []
    original = getattr(matkit, factor)

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    for module in (matkit, decoupled):
        monkeypatch.setattr(module, factor, spy)
    inits = [(heat_care, dsda_sym_init, 1), (heat_bsep, dsda_sym_init, 1),
             (heat_dare, dsda_sym_init, 0),
             (heat_mare, dsda_mare_init, 2),
             (heat_mare, functools.partial(dsda_mare_init, mode="adda"), 2)]
    for make, init, operators in inits:
        p = make(grid)
        calls.clear()
        init(p)
        assert len(calls) == operators, (make.__name__, calls)


def upwind(grid: int) -> np.ndarray:
    """The heat operator with a second-order upwind transport term along
    one axis: offsets 0, 1 and 2 only, so its structure is not
    symmetric."""
    h = 1.0 / (grid + 1)
    line = sp.diags([-3.0, 4.0, -1.0], [0, 1, 2], shape=(grid, grid))
    return heat(grid) + WIND * h / 2.0 * sp.kron(sp.identity(grid),
                                                 line).toarray()


def _fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("a,order", [
    (heat(GRID), "MMD_AT_PLUS_A"),
    (heat(GRID, WIND), "MMD_AT_PLUS_A"),
    (upwind(GRID), "COLAMD")], ids=["symmetric", "transport", "upwind"])
def test_structurally_symmetric_shifts_take_the_symmetric_order(a, order):
    # A - gamma I with symmetric structure is ordered by minimum degree
    # on its own graph, with less fill than COLAMD; any other keeps
    # COLAMD.
    from scipy.sparse.linalg import splu
    n = a.shape[0]
    m = sp.csc_array(a) - sp.identity(n, format="csc")
    lu = matkit.splu_shifted(sp.csr_array(a), -1.0)
    assert _fill(lu) == _fill(splu(m, permc_spec=order))
    if order == "COLAMD":
        assert _fill(lu) == _fill(splu(m))
    else:
        assert _fill(lu) < 0.7 * _fill(splu(m, permc_spec="COLAMD"))
    x = np.random.default_rng(9).standard_normal((n, 3))
    assert rel(m @ lu.solve(x), x) <= 1e-13


@pytest.mark.parametrize("grid,sparse", [(16, False), (21, False),
                                         (22, True), (GRID, True)])
def test_route_follows_the_density(grid, sparse):
    a = heat(grid, WIND)
    density = np.count_nonzero(a) / a.size
    assert (density <= SPARSE_MAX_DENSITY) == sparse
    p = heat_care(grid)
    assert (p.a_sparse is not None) == sparse
    op = dsda_sym_init(p).chains["v"].op
    assert isinstance(op, ResolventPropagator if sparse else MatrixPropagator)


def test_dense_inputs_take_the_dense_route():
    care = gen_random_care(32, 2, 2, seed=0)
    mare = gen_random_mare(32, 24, 2, 2, seed=0)
    assert care.a_sparse is None
    assert mare.a_sparse is None and mare.d_sparse is None
    for op in (dsda_sym_init(care).chains["v"].op,
               *(dsda_mare_init(mare).chains[name].op for name in ("u", "w"))):
        assert isinstance(op, MatrixPropagator)
        assert isinstance(op.matrix, np.ndarray)


def _n_by_n_arrays(obj, n: int, path: str = "") -> list[str]:
    """Paths of the n x n arrays reachable from a state (or from its
    chains, spans and propagators) through fields, dicts and tuples."""
    if isinstance(obj, np.ndarray):
        return [path] if obj.shape == (n, n) else []
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, tuple):
        items = enumerate(obj)
    elif dataclasses.is_dataclass(obj):
        items = ((f.name, getattr(obj, f.name))
                 for f in dataclasses.fields(obj))
    else:
        return []
    return [found for key, value in items
            for found in _n_by_n_arrays(value, n, f"{path}.{key}")]


@pytest.mark.parametrize("make", [heat_care, heat_dare, heat_bsep, heat_mare],
                         ids=["care", "dare", "bsep", "mare"])
def test_sparse_state_holds_no_n_by_n_array(make):
    p = make()
    if isinstance(p, MareProblem):
        init, step = dsda_mare_init, dsda_mare_step
    else:
        init, step = dsda_sym_init, dsda_sym_step
    s = init(p)
    for _ in range(3):
        assert _n_by_n_arrays(s, p.n) == []
        s = step(s)


def test_heat_care_matches_sda():
    p = heat_care(gamma=2.0)
    cfg = dict(tol=1e-13, max_iter=12)
    sda = solve_driver(p, SolveConfig(method="sda", **cfg))
    dsda = solve_driver(p, SolveConfig(method="dsda", **cfg))
    assert isinstance(dsda_sym_init(p).chains["v"].op, ResolventPropagator)
    assert sda.status == dsda.status == "Converged"
    assert len(sda.iterations) == len(dsda.iterations)
    assert max(abs(a.residual - b.residual) for a, b in
               zip(sda.iterations, dsda.iterations)) <= 1e-12
    assert rel(dsda.final_solution, sda.final_solution) <= 1e-12


@pytest.mark.parametrize("offset", [0.0, 2.0 ** -52], ids=["exact", "floor"])
@pytest.mark.parametrize("method", ["sda", "dsda"])
def test_singular_shift_ends_the_run(method, offset):
    # A - gamma I has one zero pivot, or one below the pivot floor.
    n, gamma = 200, 1.0
    d = -1.0 - np.arange(n) / n
    d[0] = gamma * (1.0 + offset)
    b, c = factors(n, 2, 2, seed=6)
    p = CareProblem(np.diag(d), b, c.T, gamma=gamma)
    assert p.a_sparse is not None
    if method == "dsda":
        with pytest.raises(SingularMatrixError):
            dsda_sym_init(p)
    report = solve_driver(p, SolveConfig(method=method))
    assert report.status == "SingularEncountered"
    assert report.iterations == () and report.final_solution is None


def test_bsep_singular_start_retries_on_the_sparse_route():
    # alpha I - A vanishes at alpha = 2; the driver retries at alpha = 4
    # under both methods, which then take the same first step.
    n = 200
    (l_b,) = factors(n, 1, seed=7, complex_=True)
    p = BsepProblem(2.0 * np.eye(n), l_b, alpha=2.0)
    assert p.a_sparse is not None
    with pytest.raises(SingularMatrixError):
        dsda_sym_init(p)
    first = [solve_driver(p, SolveConfig(method=method, max_iter=1))
             for method in ("sda", "dsda")]
    assert [r.status for r in first] == ["MaxIter", "MaxIter"]
    assert rel(first[1].final_solution, first[0].final_solution) <= 1e-12


def test_residuals_use_the_sparse_form():
    rng = np.random.default_rng(8)
    care, dare, mare = heat_care(), heat_dare(), heat_mare()
    n = care.n
    q = rng.standard_normal((n, 5)) / n
    h = q @ q.T
    x = rng.uniform(0.0, 1.0, (n, n)) / n ** 2
    assert all(p.a_sparse is not None for p in (care, dare, mare))

    a = care.a
    at_h = a.T @ h
    hbbh = h @ care.b @ care.b.T @ h
    ctc = care.c.T @ care.c
    expected = (np.linalg.norm(at_h + at_h.T - hbbh + ctc)
                / (2 * np.linalg.norm(at_h) + np.linalg.norm(hbbh)
                   + np.linalg.norm(ctc)))
    assert care_residual(care, h) == pytest.approx(expected, rel=1e-13)

    a = dare.a
    middle = a.T @ h @ np.linalg.solve(np.eye(n) + dare.b @ dare.b.T @ h, a)
    h0 = dare.c.T @ dare.c
    expected = (np.linalg.norm(-h + middle + h0)
                / (np.linalg.norm(h) + np.linalg.norm(middle)
                   + np.linalg.norm(h0)))
    assert dare_residual(dare, h) == pytest.approx(expected, rel=1e-13)

    b, c = mare.b_dense(), mare.c_dense()
    terms = (x @ c @ x, x @ mare.d, mare.a @ x, b)
    expected = (np.linalg.norm(terms[0] - terms[1] - terms[2] + terms[3])
                / sum(np.linalg.norm(t) for t in terms))
    assert mare_residual(mare, x) == pytest.approx(expected, rel=1e-13)
