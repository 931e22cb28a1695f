"""What a decoupled state and its iterates hold.

A state keeps in full only the bases that a step, a measurement or
``dense()`` reads in full: ``vhat`` for CARE, DARE and BSEP, and
``uhat``, ``what`` and ``qhat`` for MARE.  Every other basis is a
property that replays its Krylov recursion from the first block.  A
CARE/DARE iterate holds only its span and core, and its evaluation
never forms the cols x cols kernel.
"""

import dataclasses
import functools
import inspect
import tracemalloc

import numpy as np
import pytest
from test_sparse_route import (
    DENSE_GRID,
    GRID,
    heat_bsep,
    heat_care,
    heat_dare,
    heat_mare,
)

from dsda import decoupled
from dsda.decoupled import (
    PANEL_COLS,
    SWEEP_COLS,
    bsep_eval_F,
    dsda_eval_G,
    dsda_eval_H,
    dsda_mare_eval,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
    extend_span,
)
from dsda.driver import SolveConfig, solve_driver
from dsda.problems import (
    BsepProblem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
)

STEPS = 3

#: (label, problem builder, init, step) of each family, on the sparse
#: route (GRID) and the dense one (DENSE_GRID).
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
]
IDS = [label for label, *_ in CASES]

#: The bases a state keeps in full; the others are replayed.
HELD = {"care": ("vhat",), "dare": ("vhat",), "bsep": ("vhat",),
        "mare": ("qhat", "uhat", "what")}


def _run(make, init, step, steps=STEPS):
    """The initial state and the state after ``steps`` doublings."""
    first = init(make())
    s = first
    for _ in range(steps):
        s = step(s)
    return first, s


def _krylov(first, apply, blocks):
    """``[first, P first, ..., P^(blocks-1) first]``, one block at a time."""
    out = [first]
    for _ in range(blocks - 1):
        out.append(apply(out[-1]))
    return np.hstack(out)


@pytest.mark.parametrize("label,make,init,step", CASES, ids=IDS)
def test_state_holds_its_read_bases_in_full_and_single_blocks(
        label, make, init, step):
    _, s = _run(make, init, step)
    width = max(s.y0.shape)
    arrays = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)
              if isinstance(getattr(s, f.name), np.ndarray)
              and not f.name.endswith("_span")}
    full = sorted(name for name, a in arrays.items()
                  if a.ndim == 2 and a.shape[1] > width)
    assert full == sorted(HELD[label.partition("-")[0]])
    assert s.basis_cols == 2 ** STEPS * (s.y0.shape[0] if "mare" in label
                                         else s.y0.shape[1])


@pytest.mark.parametrize("label,make,init,step", CASES, ids=IDS)
def test_bases_are_the_explicit_krylov_bases(label, make, init, step):
    # Held or replayed, each basis is its first block and the propagator
    # applied to it block by block, bit for bit.
    first, s = _run(make, init, step)
    blocks = 2 ** s.k
    if label.startswith("mare"):
        grown = {"uhat": s.prop_a.apply, "vhat": s.prop_a.apply_t,
                 "what": s.prop_d.apply, "qhat": s.prop_d.apply_t}
    elif label.startswith("bsep"):
        grown = {"vhat": s.propagator.apply}
    else:
        grown = {"uhat": s.propagator.apply, "vhat": s.propagator.apply_t}
    for name, apply in grown.items():
        want = _krylov(getattr(first, name), apply, blocks)
        assert np.array_equal(getattr(s, name), want), name
    if label.startswith("bsep"):
        assert np.array_equal(s.uhat, want.conj())
    # A replayed basis is not cached: each read forms it again.
    replayed = "vhat" if label.startswith("mare") else "uhat"
    assert getattr(s, replayed) is not getattr(s, replayed)


@pytest.mark.parametrize("label,make,init,step", CASES, ids=IDS)
def test_moments_are_products_of_the_replayed_bases(label, make, init,
                                                    step):
    _, s = _run(make, init, step)
    pairs = ((("T", "qhat", "what"), ("S", "vhat", "uhat"))
             if label.startswith("mare") else (("T", "uhat", "vhat"),))
    for which, left, right in pairs:
        full = getattr(s, left).T @ getattr(s, right)
        got = decoupled.dsda_assemble(s, which)
        assert np.allclose(got, full, rtol=0.0,
                           atol=1e-13 * np.abs(full).max()), which


def _sym_iterate(p, evaluate, steps=STEPS):
    s = dsda_sym_init(p)
    for _ in range(steps):
        s = dsda_sym_step(s)
    return evaluate(s)


def _mare_iterate(steps=STEPS):
    s = dsda_mare_init(gen_random_mare(14, 18, 2, 3, seed=1))
    for _ in range(steps):
        s = dsda_mare_step(s)
    return dsda_mare_eval(s, "H")


def _widest(sol):
    """Most columns of any array an iterate holds, in a tuple or not."""
    return max(a.shape[-1] for value in vars(sol).values()
               for a in (value if isinstance(value, tuple) else (value,))
               if isinstance(a, np.ndarray))


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
    assert sol.factor is None and sol.bases is None


@pytest.mark.parametrize("p", SYM)
def test_a_symmetric_report_holds_no_array_wider_than_its_span(p):
    report = solve_driver(p, SolveConfig(max_iter=STEPS, tol=1e-30))
    assert [rec.k for rec in report.iterations] == list(range(1, STEPS + 1))
    sol = report.final_lowrank
    assert sol.basis_cols > sol.q_left.shape[1]
    assert _widest(sol) == sol.q_left.shape[1]


@pytest.mark.parametrize("make", [
    lambda: _sym_iterate(gen_random_bsep(16, 2, seed=5), bsep_eval_F),
    _mare_iterate], ids=["bsep", "mare"])
def test_lu_factors_are_kept(make):
    # The next BSEP increment (nested_core) and a MARE dense() solve
    # with the kernel's LU factor.
    sol = make()
    lu, piv = sol.factor
    assert lu.shape == (sol.basis_cols, sol.basis_cols)
    assert piv.shape == (sol.basis_cols,)


@pytest.mark.parametrize("p,method,routine", [
    (gen_random_care(24, 2, 3, seed=3), "dsda", "_schur_solve"),
    (gen_random_dare(24, 3, 2, seed=4), "dsda", "_schur_solve"),
    (gen_random_bsep(24, 2, seed=5), "dsda", "_kernel_factor"),
    (gen_random_mare(20, 24, 2, 3, seed=1), "dsda", "_kernel_factor"),
    (gen_random_mare(20, 24, 2, 3, seed=1), "adda", "_kernel_factor"),
], ids=["care", "dare", "bsep", "mare-dsda", "mare-adda"])
def test_a_solve_factors_each_kernel_once(monkeypatch, p, method, routine):
    # The SPD kernels of CARE and DARE are factored from their
    # generators, the others built and LU-factored.
    kernels = []
    factor = getattr(decoupled, routine)
    signature = inspect.signature(factor)

    def spy(*args):
        kernels.append(signature.bind(*args).arguments["blocks"])
        return factor(*args)

    monkeypatch.setattr(decoupled, routine, spy)
    report = solve_driver(p, SolveConfig(method=method))
    # BSEP measures increments from F_0, which the set-up evaluates.
    first = [1] if isinstance(p, BsepProblem) else []
    assert kernels == first + [2 ** rec.k for rec in report.iterations]
    assert np.array_equal(report.final_lowrank.dense(),
                          report.final_solution)


def test_extend_span_allocates_only_what_it_adds():
    # 1024 new columns, all but two directions inside a 1000-column span
    # at n = 2048: the call needs working copies of the new columns, the
    # coordinates Q^T new and the result, not room for the 1048
    # directions the span could still take.
    n, r, cols, added = 2048, 1000, 1024, 2
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((n, r)))[0]
    new = (q @ rng.standard_normal((r, cols))
           + rng.standard_normal((n, added))
           @ rng.standard_normal((added, cols)))
    basis = np.hstack([q, new])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        span = extend_span(q, basis, r)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert span.shape == (n, r + added)
    assert np.array_equal(span[:, :r], q)
    item = q.itemsize
    allowed = item * (2 * n * cols + r * cols + n * (r + added)
                      + 4 * n * SWEEP_COLS)
    assert peak <= allowed, (peak, allowed)


@pytest.mark.parametrize("p", [
    pytest.param(gen_random_care(32, 4, 4, seed=3), id="care"),
    pytest.param(gen_random_dare(32, 4, 4, seed=4), id="dare")])
def test_an_spd_kernel_is_never_formed(p):
    # k = 9: 2048 columns at n = 32, a 32 MiB kernel I + Y^T Y.  The
    # evaluation needs the coordinates R^T (cols x r) and one update of
    # them, the cols x (l + m) generator twice and one panel of the
    # kernel's factor, not the kernel.
    s = dsda_sym_init(p)
    for _ in range(9):
        s = dsda_sym_step(s)
    cols, alpha = s.basis_cols, sum(s.y0.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = dsda_eval_H(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    r = sol.q_left.shape[1]
    assert cols >= 8 * p.n
    item = sol.core.itemsize
    allowed = 2 * item * cols * (r + alpha + PANEL_COLS)
    assert peak <= allowed < item * cols ** 2 / 3, (peak, allowed)
