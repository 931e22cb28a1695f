"""What a decoupled state and its iterates hold.

A state holds no basis: of each Krylov chain it keeps the first and the
last block, and of each basis an iterate is built on its span and
coordinates, which every doubling extends from the new blocks a chunk at
a time.  ``validate.chain_basis`` replays a chain's Krylov recursion from
its first block.  An iterate of every family holds its spans and
core and nothing of its kernel; a CARE/DARE evaluation never forms the
cols x cols kernel, and ``dense()`` forms no n x n temporary.
"""

import dataclasses
import functools
import inspect
import tracemalloc

import numpy as np
import pytest
from test_decoupled import LAYOUT, PARTNER
from test_residuals import RANK_ROUTE_CASES
from test_sparse_route import (
    DENSE_GRID,
    GRID,
    heat_bsep,
    heat_care,
    heat_dare,
    heat_mare,
)

from dsda import decoupled, validate
from dsda.decoupled import (
    PANEL_COLS,
    Chain,
    LowRankSolution,
    bsep_eval_F,
    dsda_eval_H,
    dsda_mare_eval,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
    extend_span,
)
from dsda.driver import SolveConfig, solve_driver
from dsda.errors import SingularMatrixError
from dsda.matkit import EPS
from dsda.problems import (
    MareProblem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
)
from dsda.validate import chain_basis, dsda_eval_G, gram_bases, span_of

STEPS = 3

#: Doublings after which every span in CASES is narrower than its basis.
DEFLATING = 6

#: (label, problem builder, init, step) of each family, on the sparse
#: route (GRID) and the dense one (DENSE_GRID), and a CARE and a MARE
#: without transport on the sparse route, whose shifted operators are
#: symmetric entrywise, as the steel model's are.
CASES = [
    (f"{label}-{route}", functools.partial(make, grid), init, step)
    for grid, route in ((GRID, "sparse"), (DENSE_GRID, "dense"))
    for label, make, init, step in (
        ("care", heat_care, dsda_sym_init, dsda_sym_step),
        ("dare", heat_dare, dsda_sym_init, dsda_sym_step),
        ("bsep", heat_bsep, dsda_sym_init, dsda_sym_step),
        ("mare-sda", heat_mare, dsda_mare_init, dsda_mare_step),
        ("mare-adda", heat_mare,
         functools.partial(dsda_mare_init, mode="adda"), dsda_mare_step),
    )
] + [
    (f"{label}-symmetric-sparse", functools.partial(make, GRID, wind=0.0),
     init, step)
    for label, make, init, step in (
        ("care", heat_care, dsda_sym_init, dsda_sym_step),
        ("mare-sda", heat_mare, dsda_mare_init, dsda_mare_step),
    )
]
IDS = [label for label, *_ in CASES]

#: The same for the decoupled methods of RANK_ROUTE_CASES, whose bases
#: outgrow their order within five doublings.
RANK_CASES = [
    (f"{family}-{method}-rank", functools.partial(lambda p: p, p),
     (functools.partial(dsda_mare_init,
                        mode="adda" if method == "adda" else "sda")
      if family == "mare" else dsda_sym_init),
     dsda_mare_step if family == "mare" else dsda_sym_step)
    for family, p, methods in RANK_ROUTE_CASES
    for method in methods if method != "sda"]

#: The evaluator of each family's iterate.
EVALUATE = {"care": dsda_eval_H, "dare": dsda_eval_H, "bsep": bsep_eval_F,
            "mare": dsda_mare_eval}


def _run(make, init, step, steps=STEPS):
    """The initial state and the state after ``steps`` doublings."""
    first = init(make())
    s = first
    for _ in range(steps):
        s = step(s)
    return first, s


def _chunk_widths(monkeypatch):
    """Set each chunk width a doubling streams its chains in, in turn:
    the default, and one block at a time, so that every step pairs
    moments and extends spans across chunk boundaries."""
    for width in (decoupled.STREAM_COLS, 1):
        monkeypatch.setattr(decoupled, "STREAM_COLS", width)
        yield width


def _krylov(first, apply, blocks):
    """``[first, P first, ..., P^(blocks-1) first]``, one block at a time."""
    out = [first]
    for _ in range(blocks - 1):
        out.append(apply(out[-1]))
    return np.hstack(out)


def _arrays(obj, path=""):
    """(path, array) of every array reachable from a state or an
    iterate, through fields, dicts and tuples.  A chain's ``op``, the
    propagator it grows by, is not walked."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, tuple):
        for i, value in enumerate(obj):
            yield from _arrays(value, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(value, f"{path}[{key!r}]")
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            if isinstance(obj, Chain) and field.name == "op":
                continue
            yield from _arrays(getattr(obj, field.name),
                               f"{path}.{field.name}")


@pytest.mark.parametrize("label,make,init,step", CASES, ids=IDS)
def test_state_holds_its_read_bases_in_full_and_single_blocks(
        label, make, init, step):
    # No basis is read in full, so none is held: after every step, no
    # array reachable from the state or its iterate has n rows and more
    # columns than its span or one block.  By k = DEFLATING every span
    # is narrower than its basis, so a held basis would show.
    p = make()
    family = label.partition("-")[0]
    s = init(p)
    for k in range(DEFLATING + 1):
        if k:
            s = step(s)
        spans = [q.shape[1] for q in s.spans.values()]
        limits = [(s, max(*s.seeds["Y"].shape, *spans))]
        try:
            sol = EVALUATE[family](s)
        except SingularMatrixError:
            # The sparse adda kernel turns singular at k = 6; its state
            # is still checked.
            assert (label, k) == ("mare-adda-sparse", DEFLATING)
        else:
            limits.append((sol, max(*s.seeds["Y"].shape, sol.q_left.shape[1],
                                    sol.q_right.shape[1])))
        for obj, limit in limits:
            wide = [name for name, a in _arrays(obj) if a.ndim == 2
                    and a.shape[0] == p.n and a.shape[1] > limit]
            assert wide == [], (k, wide)
    assert max(spans) < s.basis_cols
    assert s.basis_cols == 2 ** DEFLATING * (
        s.seeds["Y"].shape[0] if family == "mare" else s.seeds["Y"].shape[1])


def _chains(s):
    """(name, replayed basis, last block kept, apply) of each chain.
    ``apply`` is the operator of the chain's partner (of its own for
    BSEP), transposed when the test's own table gives the two chains
    opposite orientations, so the orientation is not the state's."""
    grows = LAYOUT[s.family][0]
    out = []
    for name, transpose in grows.items():
        partner = PARTNER[name] if PARTNER[name] in grows else name
        op = s.chains[partner].op
        if grows[partner] != transpose:
            op = op.T
        out.append((name, chain_basis(s, name), s.chains[name].last,
                    op.__matmul__))
    return out


@pytest.mark.parametrize("label,make,init,step", CASES, ids=IDS)
def test_bases_are_the_explicit_krylov_bases(label, make, init, step,
                                             monkeypatch):
    # Replayed, each basis is its first block and the propagator applied
    # to it block by block, bit for bit; the last block a state keeps,
    # which its next step grows from, is that basis's last block.
    for width in _chunk_widths(monkeypatch):
        first, s = _run(make, init, step)
        blocks = 2 ** s.k
        for (name, _, block, apply), (_, basis, last, _) in zip(
                _chains(first), _chains(s)):
            want = _krylov(block, apply, blocks)
            assert np.array_equal(basis, want), (width, name)
            assert np.array_equal(
                last, want[:, want.shape[1] - block.shape[1]:]), (width, name)
        if label.startswith("bsep"):
            assert np.array_equal(gram_bases(s, "Y")[0], want.conj())
    # A replayed basis is not cached: each read forms it again.
    assert chain_basis(s, "v") is not chain_basis(s, "v")


@pytest.mark.parametrize("label,make,init,step", CASES + RANK_CASES,
                         ids=IDS + [label for label, *_ in RANK_CASES])
def test_moments_are_products_of_the_replayed_bases(label, make, init,
                                                    step, monkeypatch):
    # Each doubling forms its moments from pairs of fresh blocks; they
    # are the explicit Krylov products to within 1e-13 relative.
    for width in _chunk_widths(monkeypatch):
        _, s = _run(make, init, step, steps=5)
        for which, kernel in (("T", "Y"), ("S", "Z")):
            if kernel not in s.moments:
                continue
            left, right = gram_bases(s, kernel)
            full = left.T @ right
            got = validate.dsda_assemble(s, which)
            assert np.allclose(got, full, rtol=0.0,
                               atol=1e-13 * np.abs(full).max()), (width,
                                                                  which)


def _spans(s):
    """(basis, span, coordinates) of each evaluated basis of a state: the
    coordinates it holds (BSEP, MARE) or, where it holds none but the
    solved rows of CARE and DARE, those of the replayed basis."""
    out = []
    for name, q in s.spans.items():
        basis = chain_basis(s, name)
        r = (decoupled._stack_coordinates(s.rows[name], q.shape[1])
             if s.sigma < 0 else q.conj().T @ basis)
        out.append((basis, q, r))
    return out


@pytest.mark.parametrize("label,make,init,step", CASES, ids=IDS)
def test_coordinates_rebuild_the_basis_within_the_deflation_threshold(
        label, make, init, step, monkeypatch):
    # R holds each column's coordinates on the directions of the span up
    # to its own chunk; those a later chunk adds were within the
    # threshold of the span when the column was deflated.
    for width in _chunk_widths(monkeypatch):
        s = init(make())
        for _ in range(DEFLATING):
            s = step(s)
            for basis, q, r in _spans(s):
                n, cols = basis.shape
                assert r.shape == (q.shape[1], cols)
                bound = 2.0 * EPS * n * np.linalg.norm(basis, axis=0)
                outside = np.linalg.norm(basis - q @ r, axis=0)
                assert np.all(outside <= bound), (width, s.k)
                dropped = np.linalg.norm(r - q.conj().T @ basis, axis=0)
                assert np.all(dropped <= bound), (width, s.k)


def _sym_iterate(p, evaluate, steps=STEPS):
    s = dsda_sym_init(p)
    for _ in range(steps):
        s = dsda_sym_step(s)
    return evaluate(s)


def _widest(sol):
    """Most columns of any array an iterate holds."""
    return max(a.shape[-1] for _, a in _arrays(sol))


#: A CARE and a DARE instance whose bases outgrow their order (16) at
#: k = STEPS, so the span has fewer columns than the basis.
SYM = [pytest.param(gen_random_care(16, 3, 3, seed=3), id="care"),
       pytest.param(gen_random_dare(16, 3, 3, seed=4), id="dare")]


@pytest.mark.parametrize("evaluate", [dsda_eval_H, dsda_eval_G],
                         ids=["H", "G"])
@pytest.mark.parametrize("p", SYM)
def test_a_symmetric_iterate_holds_no_array_wider_than_its_span(p,
                                                               evaluate):
    sol = _sym_iterate(p, evaluate)
    r = sol.q_left.shape[1]
    assert sol.basis_cols > r
    assert _widest(sol) == r


@pytest.mark.parametrize("p", SYM)
def test_a_symmetric_report_holds_no_array_wider_than_its_span(p):
    report = solve_driver(p, SolveConfig(max_iter=STEPS, tol=1e-30))
    assert [rec.k for rec in report.iterations] == list(range(1, STEPS + 1))
    sol = report.final_lowrank
    assert sol.basis_cols > sol.q_left.shape[1]
    assert _widest(sol) == sol.q_left.shape[1]


@pytest.mark.parametrize("label,make,init,step", RANK_CASES,
                         ids=[label for label, *_ in RANK_CASES])
def test_an_iterate_holds_nothing_as_wide_as_its_basis(label, make, init,
                                                       step):
    # Every family's iterate is its spans and core: after each step, no
    # array it holds has cols rows or cols columns, neither a kernel
    # (factor) nor coordinates.  The check is made where cols differs
    # from the order and from the widths of the spans, which it does
    # once the bases outgrow the order (k = 5 for every case).
    family = label.partition("-")[0]
    s = init(make())
    checked = []
    for k in range(1, 6):
        s = step(s)
        sol = EVALUATE[family](s)
        cols = sol.basis_cols
        assert cols == s.basis_cols
        if cols in sol.q_left.shape + sol.q_right.shape:
            continue
        held = [(name, a.shape) for name, a in _arrays(sol)
                if cols in a.shape]
        assert held == [], (k, held)
        checked.append(k)
    assert checked[-1] == 5


def test_an_iterate_is_its_spans_and_core():
    assert [f.name for f in dataclasses.fields(LowRankSolution)] == [
        "q_left", "core", "q_right", "basis_cols"]


@pytest.mark.parametrize("p,method,routine", [
    (gen_random_care(24, 2, 3, seed=3), "dsda", "_schur_solve"),
    (gen_random_dare(24, 3, 2, seed=4), "dsda", "_schur_solve"),
    (gen_random_bsep(24, 2, seed=5), "dsda", "_hankel_kernel"),
    (gen_random_mare(20, 24, 2, 3, seed=1), "dsda", "_hankel_kernel"),
    (gen_random_mare(20, 24, 2, 3, seed=1), "adda", "_hankel_kernel"),
], ids=["care", "dare", "bsep", "mare-dsda", "mare-adda"])
def test_a_solve_factors_each_kernel_once(monkeypatch, p, method, routine):
    # The SPD kernels of CARE and DARE are factored from their
    # generators, by the init at k = 0 and by each step, the others
    # built and LU-factored.
    kernels = []
    factor = getattr(decoupled, routine)
    signature = inspect.signature(factor)

    def spy(*args):
        kernels.append(signature.bind(*args).arguments["blocks"])
        return factor(*args)

    monkeypatch.setattr(decoupled, routine, spy)
    report = solve_driver(p, SolveConfig(method=method))
    # BSEP measures increments from F_0, which the set-up evaluates; a
    # CARE or DARE init solves its k = 0 kernel.
    first = [] if isinstance(p, MareProblem) else [1]
    assert kernels == first + [2 ** rec.k for rec in report.iterations]
    assert np.array_equal(report.final_lowrank.dense(),
                          report.final_solution)


def test_extend_span_allocates_only_what_it_adds():
    # 1024 new columns, all but two directions inside a 1000-column span
    # at n = 2048: the call needs working copies of the new columns, the
    # coordinates Q^T new before and after the extension and the
    # result, not room for the 1048 directions the span could still
    # take.
    n, r, cols, added = 2048, 1000, 1024, 2
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((n, r)))[0]
    new = (q @ rng.standard_normal((r, cols))
           + rng.standard_normal((n, added))
           @ rng.standard_normal((added, cols)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        span, coords = extend_span(q, new)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert span.shape == (n, r + added)
    assert np.array_equal(span[:, :r], q)
    assert coords.shape == (r + added, cols)
    assert np.allclose(span @ coords, new, rtol=0.0,
                       atol=1e-12 * np.abs(new).max())
    item = q.itemsize
    allowed = item * (2 * n * cols + (2 * r + added) * cols
                      + n * (r + added) + 4 * n * 32)
    assert peak <= allowed, (peak, allowed)


@pytest.mark.parametrize("p", [
    pytest.param(gen_random_care(32, 4, 4, seed=3), id="care"),
    pytest.param(gen_random_dare(32, 4, 4, seed=4), id="dare")])
def test_a_step_solves_only_its_new_rows(p):
    # k = 8 -> 9: 2048 columns at n = 32, a 32 MiB kernel I + Y^T Y.  The
    # step holds the coordinates R_new^T of its 1024 new columns
    # (c_new x r), one panel of the factor's rows below the old ones
    # (c_new x PANEL_COLS), the generator and its room with one more of
    # their size for a product's transients (4 cols x alpha), and the
    # new moments, their stack and the kernel's edges (3 x the moments).
    # Neither the kernel, nor the cols x r coordinates of the whole
    # basis, nor a panel of all its rows; the evaluation after it only
    # scales the core.
    s = dsda_sym_init(p)
    for _ in range(8):
        s = dsda_sym_step(s)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = dsda_sym_step(s)
        sol = dsda_eval_H(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    cols, alpha = s.basis_cols, sum(s.seeds["Y"].shape)
    new, r = cols // 2, sol.q_left.shape[1]
    assert cols >= 8 * p.n
    assert [len(w) for w in s.rows["v"]][-2:] == [new // 2, new]
    item = sol.core.itemsize
    allowed = (item * (new * (r + PANEL_COLS) + 4 * cols * alpha)
               + 3 * s.moments["Y"].nbytes)
    # Tighter than a whole-basis evaluation: its coordinates, their
    # update and a panel of every row of the factor.
    assert peak <= allowed < 2 * item * cols * (r + alpha + PANEL_COLS), (
        peak, allowed)


#: The CARE and DARE cases, whose states solve their own rows.
SPD_CASES = [case for case in CASES if case[0].split("-")[0] in ("care",
                                                                  "dare")]


@pytest.mark.parametrize("label,make,init,step", SPD_CASES,
                         ids=[label for label, *_ in SPD_CASES])
def test_the_core_is_the_solve_of_the_whole_span(label, make, init, step,
                                                  monkeypatch):
    # At every k the core the steps built row block by row block is
    # scale * w^T w, w = L^-1 R^T solved in one go on the span and
    # coordinates of the replayed basis, to 1e-13 relative.  That span
    # is found in other chunks, so it is compared in the state's span,
    # which holds it.
    for width in _chunk_widths(monkeypatch):
        s = init(make())
        for k in range(DEFLATING + 1):
            if k:
                s = step(s)
            q, r = span_of(chain_basis(s, "v"))
            w = decoupled._schur_solve(decoupled._edges(s, "Y")[1].T,
                                       2 ** s.k, r.T.copy())
            proj = s.spans["v"].T @ q
            want = s.multiplier * (proj @ (w.T @ w) @ proj.T)
            got = dsda_eval_H(s).core
            assert np.array_equal(got, got.T), (width, k)
            assert (np.linalg.norm(got - want)
                    <= 1e-13 * np.linalg.norm(want)), (width, k)
            assert sum(len(w) for w in s.rows["v"]) == s.basis_cols


def test_schur_update_adds_below_each_panel_in_place(monkeypatch):
    # Eight panels: each adds its product into the rows of the
    # right-hand side below it, with no (cols - stop) x r temporary.
    blocks, d, m, r = 1024, 2, 3, 256
    cols, alpha = blocks * d, d + m
    rng = np.random.default_rng(10)
    x = rng.standard_normal((cols, m)) / np.sqrt(blocks)
    rhs = rng.standard_normal((cols, r))
    decoupled._schur_solve(x, blocks, rhs.copy())
    got = rhs.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decoupled._schur_solve(x, blocks, got)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # The documented room, with a few columns of slack for the pivots.
    allowed = got.itemsize * cols * (2 * alpha + PANEL_COLS + 4)
    assert peak <= allowed < got.itemsize * (
        cols * (2 * alpha + PANEL_COLS) + (cols - PANEL_COLS) * r), (
            peak, allowed)

    # The update below panel p writes into rows p * PANEL_COLS onwards of
    # the very array it was given; the subtractions inside the panels'
    # own forward solves write into views of it too.
    subtract = decoupled._subtract_product
    starts = []

    def spy(out, a, b, spare):
        assert out.base is got
        offset = (out.ctypes.data - got.ctypes.data) // got.strides[0]
        if offset % PANEL_COLS == 0 and offset + out.shape[0] == cols:
            starts.append(offset)
        return subtract(out, a, b, spare)

    monkeypatch.setattr(decoupled, "_subtract_product", spy)
    got = rhs.copy()
    assert decoupled._schur_solve(x, blocks, got) is got
    assert starts == list(range(PANEL_COLS, cols, PANEL_COLS))


#: Per family on the dense route: a problem builder, its init, the
#: chains that grow by P itself (the others grow by ``P.T``) and the
#: most n x n buffers the init may peak at.  Each P has its LU factor
#: beside it; MARE makes two of each.
DENSE_INITS = {
    "care": (lambda n: gen_random_care(n, 2, 2, seed=3), dsda_sym_init,
             ("u",), 2.5),
    "bsep": (lambda n: gen_random_bsep(n, 2, seed=3), dsda_sym_init,
             ("v",), 2.5),
    "mare": (lambda n: gen_random_mare(n, n, 2, 2, seed=3), dsda_mare_init,
             ("u", "w"), 4.5),
}


@pytest.mark.parametrize("n", [48, 200])
@pytest.mark.parametrize("family", DENSE_INITS)
def test_a_dense_propagator_is_one_fortran_ordered_buffer(family, n):
    # The init solves M^-1 into a Fortran-ordered identity and finishes
    # P in that buffer: no identity and no sum beside it, and one layout
    # at every n, so that GEMM rounds each chain alike whatever n is.
    make, init, by_p, buffers = DENSE_INITS[family]
    p = make(n)
    ops = [p.a_op] + ([p.d_op] if isinstance(p, MareProblem) else [])
    assert all(isinstance(op, np.ndarray) for op in ops)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = init(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    for name in by_p:
        prop = s.chains[name].op
        assert prop.shape == (n, n) and prop.flags.f_contiguous
    if n == 200:
        allowed = buffers * n * n * p.a.itemsize
        assert peak <= allowed, (peak / (n * n * p.a.itemsize), buffers)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_symmetrizes_without_an_n_by_n_temporary(dtype):
    # Three panels at n = 600.  The result is the sum of the halved
    # product and its transpose, bit for bit, formed on the product's own
    # buffer with at most a panel of rows as scratch.
    n, r = 600, 7
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.standard_normal((n, r)).astype(dtype))[0]
    core = rng.standard_normal((r, r)).astype(dtype)
    sol = LowRankSolution(q, core, q, basis_cols=r)
    want = q @ (core @ q.T)
    want *= 0.5
    want += want.T
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = sol.dense()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    allowed = want.itemsize * (n * n + r * n + PANEL_COLS * n)
    assert peak <= allowed < 2 * want.nbytes, (peak, allowed)
