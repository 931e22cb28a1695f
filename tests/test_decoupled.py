import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsda
from dsda import decoupled, validate
from dsda.classical import (
    bsep_init,
    bsep_sda_step,
    care_init,
    dare_init,
    mare_init,
    mare_sda_step,
    sym_sda_step,
)
from dsda.decoupled import (
    LEAF_ROWS,
    PANEL_COLS,
    _edges,
    _forward_solve,
    _hankel_kernel,
    _schur_solve,
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
from dsda.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    SingularMatrixError,
)
from dsda.matkit import EPS
from dsda.problems import (
    BsepProblem,
    CareProblem,
    DareProblem,
    MareProblem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
)
from dsda.validate import (
    bsep_eigen_extract,
    chain_basis,
    dsda_assemble,
    dsda_eval_A,
    dsda_eval_G,
    dsda_mare_dense,
    dsda_mare_eval_G,
    gram_bases,
    subspace_angle,
)
from test_sparse_route import heat_bsep, heat_care, heat_dare, heat_mare

SCALAR_CARE = CareProblem([[-1.0]], [[1.0]], [[1.0]], gamma=1.0)
SCALAR_DARE = DareProblem([[0.5]], [[1.0]], [[1.0]])
SCALAR_MARE = MareProblem([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]],
                          [[1.0]], gamma=3.0)
SCALAR_BSEP = BsepProblem([[2.0]], [[1.0]], alpha=4.0)


def rel_err(got, want):
    denom = np.linalg.norm(want)
    gap = np.linalg.norm(got - want)
    return gap / denom if denom > 0 else gap


#: Per family: each chain and whether it grows by the transpose of its
#: propagator, the kernels and the chains with a span.
LAYOUT = {
    "care": ({"u": False, "v": True}, ["Y"], ["v"]),
    "dare": ({"u": False, "v": True}, ["Y"], ["v"]),
    "bsep": ({"v": False}, ["Y"], ["v"]),
    "mare": ({"u": False, "v": True, "w": False, "q": True}, ["Y", "Z"],
             ["q", "u"]),
}

#: The chain that grows by the transpose of each chain's propagator.
PARTNER = {"u": "v", "v": "u", "w": "q", "q": "w"}


def _dense_propagators(p, mode):
    """The dense propagator P each chain of ``p``'s state grows by (or by
    its transpose), by chain name, from explicit inverses."""
    def resolvent(m, shift, scale):
        """I + scale (m + shift I)^-1."""
        eye = np.eye(m.shape[0])
        return eye + scale * np.linalg.inv(m + shift * eye)

    if isinstance(p, MareProblem):
        alpha, beta = p.shifts(mode)
        p_a = resolvent(p.a, beta, -(alpha + beta))
        p_d = resolvent(p.d, alpha, -(alpha + beta))
        return {"u": p_a, "v": p_a, "w": p_d, "q": p_d}
    if isinstance(p, DareProblem):
        prop = p.a
    elif isinstance(p, CareProblem):
        prop = resolvent(p.a, -p.gamma, 2.0 * p.gamma)
    else:
        prop = resolvent(-p.a.conj(), p.alpha, -2.0 * p.alpha)
    return {"u": prop, "v": prop}


class TestStateLayout:
    @pytest.mark.parametrize("case", ["care", "dare", "bsep", "mare-sda",
                                      "mare-adda"])
    def test_init_lays_out_the_family(self, case):
        family, _, mode = case.partition("-")
        if family == "mare":
            p = gen_random_mare(6, 5, 2, 2, seed=13)
            s = dsda_mare_init(p, mode=mode)
        else:
            # The random CARE and DARE operators are symmetric, so these
            # two take a 3 x 3 heat grid with transport.
            p = {"care": heat_care(3), "dare": heat_dare(3),
                 "bsep": gen_random_bsep(6, 2, seed=13)}[family]
            s = dsda_sym_init(p)
        chains, kernels, spans = LAYOUT[family]
        assert (s.family, s.k) == (family, 0)
        assert sorted(s.chains) == sorted(chains)
        assert sorted(s.seeds) == sorted(s.moments) == kernels
        assert sorted(s.spans) == spans
        # Each chain grows by its propagator P, or by P^T where the table
        # says so, and each pair of chains by the one operator and its
        # transpose, bit for bit.  No P here is symmetric.
        props = _dense_propagators(p, mode)
        rng = np.random.default_rng(0)
        for name, transpose in chains.items():
            op, prop = s.chains[name].op, props[name]
            assert not np.allclose(prop, prop.T)
            x = rng.standard_normal((prop.shape[0], 2))
            want = (prop.T if transpose else prop) @ x
            assert rel_err(op @ x, want) <= 1e-12, name
            partner = PARTNER.get(name)
            if partner in chains:
                assert chains[partner] != transpose
                assert np.array_equal(op @ x, s.chains[partner].op.T @ x)

    def test_each_dense_propagator_is_held_once(self):
        # The chains that grow by P and P^T share one array, and a DARE
        # grows by the problem's A itself when that is C-ordered; a
        # Fortran-ordered A is copied to C order once.
        care = dsda_sym_init(gen_random_care(6, 2, 2, seed=13)).chains
        assert np.shares_memory(care["v"].op, care["u"].op)
        mare = dsda_mare_init(gen_random_mare(6, 5, 2, 2, seed=13)).chains
        assert np.shares_memory(mare["v"].op, mare["u"].op)
        assert np.shares_memory(mare["q"].op, mare["w"].op)
        p = gen_random_dare(6, 2, 2, seed=13)
        assert p.a.flags.c_contiguous
        assert dsda_sym_init(p).chains["u"].op is p.a
        fortran = DareProblem(np.asfortranarray(p.a), p.b, p.c)
        assert not fortran.a.flags.c_contiguous
        op = dsda_sym_init(fortran).chains["u"].op
        assert op.flags.c_contiguous and np.array_equal(op, p.a)

    def test_one_kernel_evaluators_refuse_a_mare_state(self):
        s = dsda_mare_init(gen_random_mare(6, 5, 2, 2, seed=13))
        for evaluate in (dsda_eval_H, dsda_eval_G, bsep_eval_F, dsda_eval_A):
            with pytest.raises(DimensionMismatchError):
                evaluate(s)

    @pytest.mark.parametrize("family", ["care", "dare", "bsep"])
    def test_mare_evaluators_refuse_a_one_kernel_state(self, family):
        p = {"care": gen_random_care(6, 2, 2, seed=1),
             "dare": gen_random_dare(6, 2, 2, seed=1),
             "bsep": gen_random_bsep(6, 2, seed=1)}[family]
        s = dsda_sym_step(dsda_sym_init(p))
        for evaluate in (dsda_mare_eval, dsda_mare_eval_G):
            with pytest.raises(DimensionMismatchError, match="MARE"):
                evaluate(s)
        for which in ("F", "E"):
            with pytest.raises(DimensionMismatchError, match="MARE"):
                dsda_mare_dense(s, which)

    def test_one_state_type_and_one_step_serve_every_family(self):
        assert dsda.DsdaSymState is dsda.DsdaMareState is decoupled.DsdaState
        assert dsda_sym_step is dsda_mare_step


class TestSymInit:
    def test_dare_k0_reproduces_h0(self):
        p = gen_random_dare(5, 2, 2, seed=1)
        s = dsda_sym_init(p)
        assert np.array_equal(dsda_assemble(s, "Y"), np.zeros((2, 2)))
        assert rel_err(dsda_eval_H(s).dense(), p.c.T @ p.c) <= 1e-14
        assert rel_err(dsda_eval_G(s).dense(), p.b @ p.b.T) <= 1e-14
        assert np.allclose(dsda_eval_A(s), p.a)

    def test_care_scalar(self):
        s = dsda_sym_init(SCALAR_CARE)
        assert dsda_assemble(s, "Y") == pytest.approx(np.array([[-0.5]]))
        assert dsda_eval_H(s).dense() == pytest.approx(np.array([[0.4]]))
        # Cayley image of a = -1 at gamma = 1 vanishes; the starting
        # iterate A_0 itself carries the rank-one correction on top.
        assert s.chains["u"].op @ np.eye(1) == pytest.approx(
            np.array([[0.0]]))
        assert dsda_eval_A(s) == pytest.approx(
            care_init(SCALAR_CARE).a_k)  # = 0.2

    def test_bsep_zero_b(self):
        p = BsepProblem(np.diag([-1.0, -2.0]).astype(complex),
                        np.zeros((2, 0)), alpha=1.0)
        s = dsda_sym_init(p)
        assert dsda_assemble(s, "Y").shape == (0, 0)
        assert np.array_equal(bsep_eval_F(s).dense(),
                              np.zeros((2, 2), dtype=complex))


class TestSymStep:
    def test_scalar_dare_first_step(self):
        s = dsda_sym_step(dsda_sym_init(SCALAR_DARE))
        assert np.array_equal(dsda_assemble(s, "Y"),
                              np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(chain_basis(s, "v"), np.array([[1.0, 0.5]]))
        assert dsda_eval_H(s).dense() == pytest.approx(np.array([[1.125]]))

    def test_scalar_care_first_step(self):
        s = dsda_sym_step(dsda_sym_init(SCALAR_CARE))
        assert np.allclose(dsda_assemble(s, "Y"),
                           np.array([[0.0, -0.5], [-0.5, 0.5]]))
        # 2 gamma * Vhat (I + Y^T Y)^-1 Vhat^T = 0.75 / 1.8125
        assert dsda_eval_H(s).dense() == pytest.approx(
            np.array([[0.41379310344827586]]))

    def test_dare_zero_c_stays_zero(self):
        p = DareProblem(np.eye(3) * 0.5, np.ones((3, 1)), np.zeros((1, 3)))
        s = dsda_sym_init(p)
        for _ in range(3):
            s = dsda_sym_step(s)
            assert np.array_equal(dsda_eval_H(s).dense(), np.zeros((3, 3)))

    def test_budget_refusal(self):
        s = dsda_sym_init(gen_random_dare(8, 2, 2, seed=0))
        s = dsda_sym_step(s, column_budget=16)   # 4 columns
        s = dsda_sym_step(s, column_budget=16)   # 8 columns
        s = dsda_sym_step(s, column_budget=16)   # 16 columns
        with pytest.raises(BudgetExceededError):
            dsda_sym_step(s, column_budget=16)   # would need 32

    def test_y_structure_is_shared_exactly(self):
        s = dsda_sym_init(gen_random_care(6, 2, 1, seed=9))
        for _ in range(3):
            prev_y = dsda_assemble(s, "Y")
            prev_t = dsda_assemble(s, "T")
            s = dsda_sym_step(s)
            y = dsda_assemble(s, "Y")
            hw = prev_y.shape[0]
            hl = prev_y.shape[1]
            assert np.array_equal(y[:hw, hl:], prev_y)
            assert np.array_equal(y[hw:, :hl], prev_y)
            assert np.array_equal(y[:hw, :hl], np.zeros_like(prev_y))
            assert np.array_equal(y[hw:, hl:], s.multiplier * prev_t)
            # Old Gram block reused verbatim
            assert np.array_equal(dsda_assemble(s, "T")[:hw, :hl], prev_t)

    @pytest.mark.parametrize("case", ["care", "dare", "bsep", "mare-sda",
                                      "mare-adda"])
    def test_gram_cache_matches_full_product(self, case):
        family, _, mode = case.partition("-")
        if family == "mare":
            s = dsda_mare_init(gen_random_mare(6, 5, 2, 2, seed=13), mode=mode)
            step = dsda_mare_step
            products = {"T": ("q", "w"), "S": ("v", "u")}
        else:
            s = dsda_sym_init({"care": gen_random_care(6, 2, 2, seed=13),
                               "dare": gen_random_dare(6, 2, 2, seed=13),
                               "bsep": gen_random_bsep(6, 2, seed=13)}[family])
            step = dsda_sym_step
            products = {"T": ("u", "v")}

        def replay(name):
            # The BSEP left basis is conj(vhat).
            if (family, name) == ("bsep", "u"):
                return replay("v").conj()
            return chain_basis(s, name)

        for _ in range(3):
            s = step(s)
            for which, (left, right) in products.items():
                full = replay(left).T @ replay(right)
                assert rel_err(dsda_assemble(s, which), full) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestOracleEquivalenceSym:
    def test_dare(self, seed):
        p = gen_random_dare(8, 2, 2, seed=seed)
        oracle = dare_init(p)
        s = dsda_sym_init(p)
        for _ in range(3):
            oracle = sym_sda_step(oracle)
            s = dsda_sym_step(s)
            assert rel_err(dsda_eval_H(s).dense(), oracle.h_k) <= 1e-10
            assert rel_err(dsda_eval_G(s).dense(), oracle.g_k) <= 1e-10
            assert rel_err(dsda_eval_A(s), oracle.a_k) <= 1e-10

    def test_care(self, seed):
        p = gen_random_care(8, 2, 2, seed=seed)
        oracle = care_init(p)
        s = dsda_sym_init(p)
        for _ in range(3):
            oracle = sym_sda_step(oracle)
            s = dsda_sym_step(s)
            assert rel_err(dsda_eval_H(s).dense(), oracle.h_k) <= 1e-10
            assert rel_err(dsda_eval_G(s).dense(), oracle.g_k) <= 1e-10
            assert rel_err(dsda_eval_A(s), oracle.a_k) <= 1e-10

    def test_bsep(self, seed):
        p = gen_random_bsep(6, 2, seed=seed)
        oracle = bsep_init(p)
        s = dsda_sym_init(p)
        for _ in range(3):
            oracle = bsep_sda_step(oracle)
            s = dsda_sym_step(s)
            assert rel_err(bsep_eval_F(s).dense(), oracle.f_k) <= 1e-10
            assert rel_err(dsda_eval_A(s), oracle.e_k) <= 1e-10


class TestBsepDecoupled:
    def test_scalar_matches_oracle_each_step(self):
        oracle = bsep_init(SCALAR_BSEP)
        s = dsda_sym_init(SCALAR_BSEP)
        for _ in range(4):
            oracle = bsep_sda_step(oracle)
            s = dsda_sym_step(s)
            assert rel_err(bsep_eval_F(s).dense(), oracle.f_k) <= 1e-10

    def test_scalar_kernel_degrades_past_k4(self):
        # a = 2 > 0 puts the basis propagator at modulus 3, so the
        # untruncated kernel norm reaches ~1e14 by k = 5 and the solve
        # is refused as numerically singular.  The k = 4 iterate is
        # already converged to ~1e-12, so this is the documented
        # conditioning limit, not a correctness loss.
        s = dsda_sym_init(SCALAR_BSEP)
        for _ in range(5):
            s = dsda_sym_step(s)
        with pytest.raises(SingularMatrixError):
            bsep_eval_F(s)

    def test_uhat_is_conjugate_of_vhat(self):
        s = dsda_sym_init(gen_random_bsep(5, 2, seed=3))
        for _ in range(3):
            s = dsda_sym_step(s)
            uhat, vhat = gram_bases(s, "Y")
            assert np.array_equal(uhat, vhat.conj())

    def test_f_complex_symmetric(self):
        s = dsda_sym_init(gen_random_bsep(5, 2, seed=8))
        for _ in range(3):
            s = dsda_sym_step(s)
        f = bsep_eval_F(s).dense()
        assert np.linalg.norm(f - f.T) <= 1e-10 * np.linalg.norm(f)


class TestKernels:
    def test_sym_kernel_positive_definite(self):
        s = dsda_sym_init(gen_random_care(8, 2, 2, seed=2))
        for _ in range(4):
            s = dsda_sym_step(s)
            row = _edges(s, "Y")[1]
            w = np.linalg.eigvalsh(_hankel_kernel(-row.T, row, 2 ** s.k))
            assert w[0] >= 1.0 - 1e-12   # I + Y^T Y has spectrum >= 1

    def test_derivation_identity_second_step(self):
        # Explicit middle factors of the first two steps: with
        # M1_G = I (+) E0^-1, M1_H = I (+) F0^-1, M1_A = 0 (+) K0 and
        # E1, F1 the second-step kernels, the assembled M2_G, M2_H obey
        # (M2_G)^-1 - Y2 Y2^T = I and (M2_H)^-1 - Y2^T Y2 = I.
        rng = np.random.default_rng(17)
        for n, m, l in ((4, 1, 1), (6, 2, 2), (8, 2, 3)):
            a = rng.standard_normal((n, n)) * 0.4
            b = rng.standard_normal((n, m)) / math.sqrt(n)
            c = rng.standard_normal((l, n)) / math.sqrt(n)
            y0 = b.T @ c.T
            e0 = np.eye(m) + y0 @ y0.T
            f0 = np.eye(l) + y0.T @ y0
            k0 = np.linalg.solve(e0, y0)
            m1_a = np.zeros((2 * m, 2 * l))
            m1_a[m:, l:] = k0
            m1_g = np.block([[np.eye(m), np.zeros((m, m))],
                             [np.zeros((m, m)), np.linalg.inv(e0)]])
            m1_h = np.block([[np.eye(l), np.zeros((l, l))],
                             [np.zeros((l, l)), np.linalg.inv(f0)]])
            u1 = np.hstack([b, a @ b])
            v1 = np.hstack([c.T, a.T @ c.T])
            t1 = u1.T @ v1
            e1 = np.linalg.inv(m1_g) + t1 @ m1_h @ t1.T
            f1 = np.linalg.inv(m1_h) + t1.T @ m1_g @ t1
            i2m = np.eye(2 * m)
            i2l = np.eye(2 * l)
            m2_g = (np.block([[i2m, -m1_a @ t1.T], [np.zeros_like(i2m), i2m]])
                    @ np.block([[m1_g, np.zeros_like(i2m)],
                                [np.zeros_like(i2m), np.linalg.inv(e1)]])
                    @ np.block([[i2m, np.zeros_like(i2m)],
                                [-t1 @ m1_a.T, i2m]]))
            m2_h = (np.block([[i2l, -m1_a.T @ t1], [np.zeros_like(i2l), i2l]])
                    @ np.block([[m1_h, np.zeros_like(i2l)],
                                [np.zeros_like(i2l), np.linalg.inv(f1)]])
                    @ np.block([[i2l, np.zeros_like(i2l)],
                                [-t1.T @ m1_a, i2l]]))
            y1 = np.zeros((2 * m, 2 * l))
            y1[m:, l:] = y0
            y2 = np.block([[np.zeros_like(y1), y1], [y1, t1]])
            lhs_g = np.linalg.inv(m2_g) - y2 @ y2.T
            lhs_h = np.linalg.inv(m2_h) - y2.T @ y2
            assert np.linalg.norm(lhs_g - np.eye(4 * m)) <= 1e-12
            assert np.linalg.norm(lhs_h - np.eye(4 * l)) <= 1e-12

    def test_krylov_span(self):
        for seed in (0, 1):
            p = gen_random_dare(10, 2, 2, seed=seed)
            s = dsda_sym_init(p)
            for k in (1, 2, 3):
                s = dsda_sym_step(s)
                krylov = np.hstack([
                    np.linalg.matrix_power(p.a.T, j) @ p.c.T
                    for j in range(2 ** k)])
                vhat = chain_basis(s, "v")
                joint = np.hstack([vhat, krylov])
                r_v = np.linalg.matrix_rank(vhat)
                assert np.linalg.matrix_rank(joint) == r_v
                assert np.linalg.matrix_rank(krylov) == r_v


class TestEigenExtract:
    def test_zero_f_returns_spectrum_of_a(self):
        a = np.diag([-1.0, -2.0]).astype(complex)
        eigs = bsep_eigen_extract(np.zeros((2, 2)), a, np.zeros((2, 2)))
        assert np.allclose(eigs, [-2.0, -1.0])

    def test_scalar_bsep(self):
        s = dsda_sym_init(SCALAR_BSEP)
        for _ in range(4):
            s = dsda_sym_step(s)
        f = bsep_eval_F(s).dense()
        eigs = bsep_eigen_extract(f, SCALAR_BSEP.a, SCALAR_BSEP.b_dense())
        assert abs(eigs[0] - (-math.sqrt(3.0))) <= 1e-8

    def test_random_matches_dense_eig_oracle(self):
        p = gen_random_bsep(6, 2, seed=5)
        s = dsda_sym_init(p)
        for _ in range(5):
            s = dsda_sym_step(s)
        f = bsep_eval_F(s).dense()
        got = bsep_eigen_extract(f, p.a, p.b_dense())
        full = np.linalg.eigvals(p.hamiltonian())
        stable = np.sort_complex(full[full.real < 0.0])
        assert stable.size == 6
        assert np.max(np.abs(got - stable)) <= 1e-8


class TestSubspaceAngle:
    def test_opposite_arguments_give_zero(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 3))
        w = w + w.T  # complex-symmetric (real symmetric) argument
        theta = subspace_angle(w, -w)
        assert np.linalg.norm(theta) <= 1e-7

    def test_scalar_quarter_turn(self):
        theta = subspace_angle(np.zeros((1, 1)), np.ones((1, 1)))
        assert theta[0, 0] == pytest.approx(math.pi / 4.0)

    def test_eigenvalues_within_quarter_range(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = rng.standard_normal((3, 3))
            z = rng.standard_normal((3, 3))
            w, z = w + w.T, z + z.T
            vals = np.linalg.eigvalsh(subspace_angle(w, z))
            assert np.min(vals) >= -1e-12
            assert np.max(vals) <= math.pi / 2.0 + 1e-12

    def test_tracks_bsep_convergence(self):
        p = gen_random_bsep(5, 2, seed=11)
        ham = p.hamiltonian()
        w, v = np.linalg.eig(ham)
        stable = v[:, w.real < 0.0]
        x1, x2 = stable[:5, :], stable[5:, :]
        target = x2 @ np.linalg.inv(x1)
        s = dsda_sym_init(p)
        for _ in range(6):
            s = dsda_sym_step(s)
        f = bsep_eval_F(s).dense()
        assert np.linalg.norm(f + target) <= 1e-12
        theta = subspace_angle(target, f)
        # Angles recovered through their cosines floor out near sqrt(eps).
        assert np.linalg.norm(np.sin(np.linalg.eigvalsh(theta.real))) <= 1e-7


class TestMareDecoupled:
    def test_scalar_init(self):
        s = dsda_mare_init(SCALAR_MARE)
        assert dsda_mare_eval(s).dense() == pytest.approx(
            np.array([[6.0 / 29.0]]))

    def test_zero_b_gives_zero_h(self):
        a = np.array([[2.0, -0.5], [-0.25, 3.0]])
        d = np.array([[4.0, -1.0], [0.0, 5.0]])
        p = MareProblem(a, d, np.zeros((2, 0)), np.zeros((2, 0)),
                        np.zeros((2, 0)), np.zeros((2, 0)))
        s = dsda_mare_init(p)
        assert dsda_assemble(s, "Y").shape == (0, 0)
        assert np.array_equal(dsda_mare_eval(s).dense(), np.zeros((2, 2)))
        s = dsda_mare_step(s)
        assert np.array_equal(dsda_mare_eval(s).dense(), np.zeros((2, 2)))

    def test_zero_c_gives_zero_g(self):
        a = np.array([[2.0, -0.5], [-0.25, 3.0]])
        d = np.array([[4.0, -1.0], [0.0, 5.0]])
        p = MareProblem(a, d, np.ones((2, 1)), np.ones((2, 1)),
                        np.zeros((2, 0)), np.zeros((2, 0)))
        s = dsda_mare_step(dsda_mare_init(p))
        assert np.array_equal(dsda_mare_eval_G(s).dense(), np.zeros((2, 2)))

    def test_zero_coupling_dense_evals_match_oracle_exactly(self):
        a = np.array([[2.0, -0.5], [-0.25, 3.0]])
        d = np.array([[4.0, -1.0], [0.0, 5.0]])
        p = MareProblem(a, d, np.zeros((2, 0)), np.zeros((2, 0)),
                        np.zeros((2, 0)), np.zeros((2, 0)))
        s = dsda_mare_init(p)
        oracle = mare_init(p)
        for _ in range(3):
            s = dsda_mare_step(s)
            oracle = mare_sda_step(oracle)
            # With empty kernels both reduce to plain propagator squaring.
            assert np.array_equal(dsda_mare_dense(s, "E"), oracle.e_k)
            assert np.array_equal(dsda_mare_dense(s, "F"), oracle.f_k)

    def test_adda_equal_shifts_matches_sda_init(self):
        p = gen_random_mare(4, 3, 2, 1, seed=2)
        gamma = float(max(np.max(np.diag(p.a)), np.max(np.diag(p.d))))
        p_g = MareProblem(p.a, p.d, p.b_l, p.b_r, p.c_l, p.c_r,
                          gamma=gamma, alpha=gamma, beta=gamma)
        s_sda = dsda_mare_init(p_g, mode="sda")
        s_adda = dsda_mare_init(p_g, mode="adda")
        for name in ("u", "v", "w", "q"):
            assert np.array_equal(chain_basis(s_sda, name),
                                  chain_basis(s_adda, name))
        for kernel in ("Y", "Z"):
            assert np.array_equal(s_sda.seeds[kernel], s_adda.seeds[kernel])
            assert np.array_equal(s_sda.moments[kernel],
                                  s_adda.moments[kernel])

    def test_rank_deficient_factors_converge(self):
        # Rank-2 factors of the rank-1 B = f f^T: a deficient factor
        # only adds zero eigenvalues to Y Z, so I - Y Z stays invertible.
        f = [[0.1, 0.1], [0.1, 0.1]]
        p = MareProblem(10.0 * np.eye(2), 10.0 * np.eye(2), f, f,
                        [[0.1], [0.1]], [[0.1], [0.1]])
        oracle = solve_driver(p, SolveConfig(method="sda"))
        o = oracle.final_solution
        for method in ("sda", "dsda", "adda"):
            report = solve_driver(p, SolveConfig(method=method))
            assert report.status == "Converged"
            assert [rec.k for rec in report.iterations] == [1]
            x = report.final_solution
            if method == "sda":
                assert np.array_equal(x, o)
            else:
                # Q_l core Q_r^T, within one ulp of each entry.
                assert np.all(np.abs(x - o) <= np.spacing(np.abs(o)))

    def test_scalar_step_matches_oracle(self):
        oracle = mare_sda_step(mare_init(SCALAR_MARE))
        s = dsda_mare_step(dsda_mare_init(SCALAR_MARE))
        assert rel_err(dsda_mare_eval(s).dense(), oracle.h_k) <= 1e-12

    @pytest.mark.parametrize("mode", ["sda", "adda"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_equivalence_all_four(self, mode, seed):
        p = gen_random_mare(4, 4, 1, 1, seed=seed)
        oracle = mare_init(p, mode=mode)
        s = dsda_mare_init(p, mode=mode)
        for _ in range(3):
            oracle = mare_sda_step(oracle)
            s = dsda_mare_step(s)
            assert rel_err(dsda_mare_eval(s).dense(), oracle.h_k) <= 1e-10
            assert rel_err(dsda_mare_eval_G(s).dense(), oracle.g_k) <= 1e-10
            assert rel_err(dsda_mare_dense(s, "F"), oracle.f_k) <= 1e-10
            assert rel_err(dsda_mare_dense(s, "E"), oracle.e_k) <= 1e-10

    def test_budget_refusal(self):
        s = dsda_mare_init(gen_random_mare(6, 6, 2, 2, seed=4))
        with pytest.raises(BudgetExceededError):
            dsda_mare_step(s, column_budget=2)


@pytest.mark.parametrize("n", [validate.DENSE_EVAL_MAX_DIM,
                               validate.DENSE_EVAL_MAX_DIM + 1])
def test_dense_evaluations_are_guarded(n):
    """A_k and the MARE F_k and E_k are dense: refused above the guard."""
    ones = np.ones((n, 1))
    sym = dsda_sym_init(DareProblem(0.5 * np.eye(n), ones, ones.T))
    mare = dsda_mare_init(gen_random_mare(n, 2, 1, 1, seed=2))
    evaluations = [(lambda: dsda_eval_A(sym), (n, n)),
                   (lambda: dsda_mare_dense(mare, "F"), (n, n)),
                   (lambda: dsda_mare_dense(mare, "E"), (2, 2))]
    for evaluate, shape in evaluations:
        if n > validate.DENSE_EVAL_MAX_DIM:
            with pytest.raises(BudgetExceededError, match="guarded"):
                evaluate()
        else:
            assert evaluate().shape == shape


def _low_rank_iterates(steps):
    """(label, LowRankSolution) of each family after ``steps`` doublings."""
    def sym(p, evaluate):
        s = dsda_sym_init(p)
        for _ in range(steps):
            s = dsda_sym_step(s)
        return evaluate(s)

    s = dsda_mare_init(gen_random_mare(14, 18, 2, 3, seed=1), mode="adda")
    for _ in range(steps):
        s = dsda_mare_step(s)
    return [("care", sym(gen_random_care(16, 2, 3, seed=3), dsda_eval_H)),
            ("dare", sym(gen_random_dare(16, 3, 2, seed=4), dsda_eval_H)),
            ("bsep", sym(gen_random_bsep(16, 2, seed=5), bsep_eval_F)),
            ("mare-H", dsda_mare_eval(s)),
            ("mare-G", dsda_mare_eval_G(s))]


class TestLowRankCore:
    """The form ``Q_l core Q_r^T`` of each family's iterate."""

    @pytest.mark.parametrize("steps", [1, 3])   # narrow, then wider than n
    def test_core_has_the_nonzero_singular_values(self, steps):
        for label, sol in _low_rank_iterates(steps):
            dense = sol.dense()
            core = sol.core
            want = np.linalg.svd(dense, compute_uv=False)
            got = np.linalg.svd(core, compute_uv=False)
            r = min(len(want), len(got))
            assert np.max(np.abs(got[:r] - want[:r])) <= 1e-12 * want[0], label
            assert np.all(want[r:] <= 1e-12 * want[0]), label
            for q in (sol.q_left, sol.q_right):
                eye = np.eye(q.shape[1])
                assert np.max(np.abs(q.conj().T @ q - eye)) <= 1e-12, label
            rebuilt = sol.q_left @ core @ sol.q_right.T
            assert np.max(np.abs(rebuilt - dense)) <= 1e-12 * want[0], label

    def test_symmetric_core_has_the_eigenvalues(self):
        for label, sol in _low_rank_iterates(1)[:2]:
            core = sol.core
            assert np.allclose(core, core.T, rtol=0.0,
                               atol=1e-13 * np.abs(core).max()), label
            want = np.linalg.eigvalsh(sol.dense())
            got = np.linalg.eigvalsh(core)
            assert np.allclose(got, want[-len(got):], rtol=0.0,
                               atol=1e-12 * np.abs(want).max()), label


def _structured_kernels(s):
    """{label: (structured kernel, I + sigma X W from assembled X, W)}."""
    b = 2 ** s.k
    y = dsda_assemble(s, "Y")
    y_col, y_row = _edges(s, "Y")
    if "Z" in s.moments:
        z = dsda_assemble(s, "Z")
        z_col, z_row = _edges(s, "Z")
        return {"YZ": (_hankel_kernel(y_col, z_row, b),
                       np.eye(y.shape[0]) - y @ z),
                "ZY": (_hankel_kernel(z_col, y_row, b),
                       np.eye(z.shape[0]) - z @ y)}
    return {"YtY": (_hankel_kernel(-s.sigma * y_row.T, y_row, b),
                    np.eye(y.shape[1]) + s.sigma * (y.T @ y)),
            "YYt": (_hankel_kernel(-s.sigma * y_col, y_col.T, b),
                    np.eye(y.shape[0]) + s.sigma * (y @ y.T))}


def _hankel(seq, b):
    """Block-Hankel matrix with block (i, j) = seq[i + j], b x b blocks."""
    _, r, c = seq.shape
    blocks = seq[np.add.outer(np.arange(b), np.arange(b))]
    return blocks.transpose(0, 2, 1, 3).reshape(b * r, b * c)


class TestHankelKernel:
    @pytest.mark.parametrize("case", ["care", "dare", "bsep", "mare-sda",
                                      "mare-adda", "mare-zero-b",
                                      "mare-zero-c"])
    def test_matches_product_of_assembled_kernels(self, case):
        family, _, mode = case.partition("-")
        if family == "mare":
            p = gen_random_mare(6, 5, 2, 3, seed=21)
            if mode == "zero-b":
                p = MareProblem(p.a, p.d, np.zeros((6, 0)), np.zeros((5, 0)),
                                p.c_l, p.c_r)
            elif mode == "zero-c":
                p = MareProblem(p.a, p.d, p.b_l, p.b_r, np.zeros((5, 0)),
                                np.zeros((6, 0)))
            s = dsda_mare_init(p, mode="sda" if "zero" in mode else mode)
            step = dsda_mare_step
        else:
            s = dsda_sym_init({"care": gen_random_care(6, 2, 3, seed=21),
                               "dare": gen_random_dare(6, 3, 2, seed=21),
                               "bsep": gen_random_bsep(6, 2, seed=21)}[family])
            step = dsda_sym_step
        for k in range(6):
            if k:
                s = step(s)
            for label, (got, want) in _structured_kernels(s).items():
                assert got.shape == want.shape, (k, label)
                assert got.dtype == want.dtype, (k, label)
                assert rel_err(got, want) <= 1e-13, (k, label)
                if family in ("care", "dare"):
                    assert np.array_equal(got, got.T), (k, label)

    def test_zero_width_kernels(self):
        p0 = gen_random_mare(6, 5, 2, 3, seed=21)
        p = MareProblem(p0.a, p0.d, np.zeros((6, 0)), np.zeros((5, 0)),
                        np.zeros((5, 0)), np.zeros((6, 0)))
        s = dsda_mare_step(dsda_mare_step(dsda_mare_init(p)))
        for got, want in _structured_kernels(s).values():
            assert got.shape == want.shape == (0, 0)

    def test_evaluators_do_not_assemble(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluator assembled a kernel")

        sym = [dsda_sym_step(dsda_sym_step(dsda_sym_init(p))) for p in
               (gen_random_care(6, 2, 2, seed=1),
                gen_random_dare(6, 2, 2, seed=1),
                gen_random_bsep(6, 2, seed=1))]
        mare = dsda_mare_step(dsda_mare_init(gen_random_mare(5, 4, 2, 1,
                                                             seed=1)))
        monkeypatch.setattr(validate, "dsda_assemble", refuse)
        for s in sym[:2]:
            dsda_eval_H(s)
            dsda_eval_G(s)
        bsep_eval_F(sym[2])
        dsda_mare_eval(mare)
        dsda_mare_eval_G(mare)

    def test_a_kernel_over_the_cap_is_refused_before_it_is_built(self):
        # 24 576 columns (steel-care at a 32 768-column budget): a 4.8 GB
        # kernel, refused from its 1.2 MB edges.
        edge = np.zeros((24576, 6))
        assert 8 * 24576 ** 2 > decoupled.KERNEL_MAX_BYTES
        with pytest.raises(BudgetExceededError, match="over the cap"):
            _hankel_kernel(-edge, edge.T, 4096)

    @settings(max_examples=60, deadline=None)
    @given(log_b=st.integers(0, 6), r=st.integers(0, 4), c1=st.integers(0, 4),
           is_complex=st.booleans(), sigma=st.sampled_from([-1, 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_prefix_sum_identity(self, log_b, r, c1, is_complex, sigma, seed):
        # X is b r x b c1, W is b c1 x b r, both block Hankel with
        # sequences that vanish below index b - 1.
        b = 2 ** log_b
        rng = np.random.default_rng(seed)

        def sequence(rows, cols):
            seq = np.zeros((2 * b - 1, rows, cols),
                           dtype=complex if is_complex else float)
            seq[b - 1:] = rng.standard_normal((b, rows, cols))
            if is_complex:
                seq[b - 1:] += 1j * rng.standard_normal((b, rows, cols))
            return seq

        x = _hankel(sequence(r, c1), b)
        w = _hankel(sequence(c1, r), b)
        got = _hankel_kernel(-sigma * x[:, x.shape[1] - c1:],
                             w[w.shape[0] - c1:], b)
        want = np.eye(b * r) + sigma * (x @ w)
        assert rel_err(got, want) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(log_b=st.integers(0, 7), d=st.integers(1, 4), m=st.integers(0, 4),
           r=st.integers(0, 3), zero_first=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    # 384 columns, a panel of 255 and one of 129; no right-hand side.
    @example(log_b=7, d=3, m=4, r=3, zero_first=True, seed=0)
    @example(log_b=3, d=2, m=3, r=0, zero_first=False, seed=1)
    def test_schur_solve_matches_the_kernel_solve(self, log_b, d, m, r,
                                                  zero_first, seed):
        # (L^-1 R)^T (L^-1 R) = R^T K^-1 R for the SPD kernel
        # K = I + X X^T, b blocks of d rows, X's last block column x.  A
        # zero first block of x is DARE's zero seed.  x is scaled so that
        # X stays of unit order and K well conditioned, as the solver's
        # kernels are: both sides are then accurate to roundoff.
        b = 2 ** log_b
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b * d, m)) / math.sqrt(b)
        if zero_first:
            x[:d] = 0.0
        rhs = rng.standard_normal((b * d, r))
        kern = _hankel_kernel(-x, x.T, b)
        want = rhs.T @ np.linalg.solve(kern, rhs)
        w = _schur_solve(x, b, rhs.copy())
        assert w.shape == rhs.shape
        assert rel_err(w.T @ w, want) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(log_b=st.integers(1, 8), d=st.integers(1, 7), m=st.integers(0, 4),
           r=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    # 768 columns: the new rows start inside the second panel of 255.
    @example(log_b=8, d=3, m=2, r=5, seed=0)
    def test_schur_solve_of_the_new_rows_matches_the_full_solve(
            self, log_b, d, m, r, seed):
        # Rows solved as a doubling run solves them: row blocks of d, d,
        # 2d, 4d, ... rows, each with the kernel of the rows up to it (the
        # leading block of the next kernel) and the blocks before it, and
        # each as wide as the span was then (zero beyond).  Every block,
        # and the rows below the leading half solved on their own, is
        # the full solve to 1e-13.
        b = 2 ** log_b
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b * d, m)) / math.sqrt(b)
        rhs = rng.standard_normal((b * d, r))
        sizes = [d] + [d * 2 ** j for j in range(log_b - 1)]
        widths = np.sort(rng.integers(0, r + 1, len(sizes)))
        start = 0
        for size, width in zip(sizes, widths):
            rhs[start:start + size, width:] = 0.0
            start += size
        want = _schur_solve(x, b, rhs.copy())
        solved, start = (), 0
        for j, (size, width) in enumerate(zip(sizes, widths)):
            block = _schur_solve(x[:start + size], 2 ** j,
                                 rhs[start:start + size, :width].copy(),
                                 solved)
            assert rel_err(block, want[start:start + size, :width]) <= 1e-13
            solved += (block,)
            start += size
        got = _schur_solve(x, b, rhs[start:].copy(), solved)
        assert rel_err(got, want[start:]) <= 1e-13

    @pytest.mark.parametrize("rows", [1, LEAF_ROWS - 5, 75, PANEL_COLS],
                             ids=["one", "below-leaf", "odd", "panel"])
    @pytest.mark.parametrize("r", [0, 1, 7])
    def test_forward_solve_matches_the_triangular_solve(self, rows, r):
        # A panel's diagonal block holds earlier panels' entries above
        # its diagonal; NaN there must not reach the result.  The room
        # is the least the solve takes, so it works in column and row
        # chunks.
        rng = np.random.default_rng(rows + r)
        x = rng.standard_normal((rows, 3)) / math.sqrt(rows)
        chol = np.linalg.cholesky(np.eye(rows) + x @ x.T)
        panel = chol.copy()
        panel[np.triu_indices(rows, 1)] = np.nan
        rhs = rng.standard_normal((rows, r))
        want = scipy.linalg.solve_triangular(chol, rhs, lower=True)
        got = rhs.copy()
        _forward_solve(panel, got, np.empty(max(rows, r)))
        assert np.all(np.isfinite(got))
        assert rel_err(got, want) <= 1e-14

    def test_schur_solve_keeps_zero_leading_rows_exactly_zero(self):
        # A forward substitution reads no later row into an earlier one,
        # so rows that are zero in the right-hand side stay exactly zero
        # (21 of the first 2000 seeds leaked up to 4.9e-16 into them
        # while a leaf's inverse kept its roundoff above the diagonal).
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((10, 1)) / math.sqrt(2)
            rhs = rng.standard_normal((10, 1))
            rhs[:5] = 0.0
            w = _schur_solve(x, 2, rhs)
            assert np.all(w[:5] == 0.0), seed

    def test_schur_solve_refuses_a_non_finite_generator(self):
        x = np.ones((8, 2))
        x[5, 1] = np.nan
        with pytest.raises(SingularMatrixError, match="non-finite"):
            _schur_solve(x, 4, np.ones((8, 1)))


class TestCholeskyDense:
    def test_symmetric_iterates_match_the_general_product(self):
        for label, p in (("care", gen_random_care(16, 2, 3, seed=3)),
                         ("dare", gen_random_dare(16, 3, 2, seed=4))):
            s = dsda_sym_init(p)
            for _ in range(3):
                s = dsda_sym_step(s)
            got = dsda_eval_H(s).dense()
            assert np.array_equal(got, got.T), label
            # scale * V K^-1 V^T with K = I + Y^T Y from the assembled Y.
            y = dsda_assemble(s, "Y")
            kern = np.eye(y.shape[1]) + y.T @ y
            vhat = chain_basis(s, "v")
            want = s.multiplier * (vhat @ np.linalg.solve(kern, vhat.T))
            assert rel_err(got, want) <= 1e-13, label


def _random(rng, shape, dtype):
    out = rng.standard_normal(shape)
    if dtype is complex:
        out = out + 1j * rng.standard_normal(shape)
    return out


class TestExtendSpan:
    """The contract of ``extend_span`` on one chunk: ``q`` unchanged in
    front, orthonormal columns, every new column within the threshold
    of the span, coordinates that rebuild the chunk, and no direction
    beyond those the chunk has."""

    N, R = 300, 40

    def chunk(self, dtype, seed=0):
        # 96 columns: a part in q plus a part outside it, 24 columns each
        # at 1e-2, 1e-6 and 1e-10 (below the first round's floor, so
        # picked in a second round) and at 1e-16, within the threshold.
        # The columns' own norms span eight orders of magnitude.
        rng = np.random.default_rng(seed)
        n = self.N
        q = np.linalg.qr(_random(rng, (n, self.R), dtype))[0]
        scales = np.repeat([1e-2, 1e-6, 1e-10, 1e-16], 24)
        outside = _random(rng, (n, scales.size), dtype) * scales
        new = q @ _random(rng, (self.R, scales.size), dtype) + outside
        new *= 10.0 ** rng.uniform(-4.0, 4.0, scales.size)
        return q, new

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_extends_q_by_orthonormal_directions(self, dtype):
        q, new = self.chunk(dtype)
        span, coords = extend_span(q, new)
        # A direction for each column outside the span, none for those
        # within the threshold.
        r = span.shape[1]
        assert r == self.R + 72
        assert span.dtype == q.dtype
        assert np.array_equal(span[:, :self.R], q)
        gap = np.linalg.norm(span.conj().T @ span - np.eye(r), 2)
        assert gap <= 4.0 * EPS * math.sqrt(r), gap

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_every_column_lies_within_the_threshold_of_the_span(self,
                                                                dtype):
        q, new = self.chunk(dtype)
        span, coords = extend_span(q, new)
        tol = EPS * self.N
        norms = np.linalg.norm(new, axis=0)
        outside = np.linalg.norm(new - span @ (span.conj().T @ new), axis=0)
        assert np.all(outside <= tol * norms)
        assert coords.shape == (span.shape[1], new.shape[1])
        rebuilt = np.linalg.norm(new - span @ coords, axis=0)
        assert np.all(rebuilt <= tol * norms)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("rank", [1, 7, 30])
    def test_adds_exactly_the_rank_outside_the_span(self, dtype, rank):
        # A rank-rho part outside q, its directions at scales from 1 down
        # to 1e-8, plus noise at roundoff size: exactly rho directions.
        rng = np.random.default_rng(rank)
        n, cols = self.N, 200
        q = np.linalg.qr(_random(rng, (n, self.R), dtype))[0]
        part = (_random(rng, (n, rank), dtype)
                * np.logspace(0.0, -8.0, rank)) @ _random(rng, (rank, cols),
                                                          dtype)
        new = q @ _random(rng, (self.R, cols), dtype) + part
        new += EPS * _random(rng, new.shape, dtype) * (
            np.linalg.norm(new, axis=0) / math.sqrt(n))
        span, _ = extend_span(q, new)
        assert span.shape[1] == self.R + rank

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_deflates_at_eps_n_of_each_columns_norm(self, dtype):
        # Two unit columns whose parts outside q are 3 EPS n and EPS n / 3
        # of their norm, n the order: the first gets a direction, the
        # second is deflated.  The threshold reads only the order.
        rng = np.random.default_rng(5)
        n = self.N
        q = np.linalg.qr(_random(rng, (n, self.R), dtype))[0]
        outside = _random(rng, (n, 2), dtype)
        for _ in range(2):
            outside -= q @ (q.conj().T @ outside)
        outside /= np.linalg.norm(outside, axis=0)
        inside = q @ _random(rng, (self.R, 2), dtype)
        inside /= np.linalg.norm(inside, axis=0)
        ratios = EPS * n * np.array([3.0, 1.0 / 3.0])
        new = inside * np.sqrt(1.0 - ratios ** 2) + outside * ratios
        span, coords = extend_span(q, new)
        assert span.shape[1] == self.R + 1
        assert abs(np.vdot(span[:, -1], outside[:, 0])) >= 0.99
        rebuilt = np.linalg.norm(new - span @ coords, axis=0)
        assert np.all(rebuilt <= EPS * n)

    def test_stops_at_the_order(self):
        # More independent columns than room: the span fills the space.
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((30, 20)))[0]
        new = rng.standard_normal((30, 25))
        span, coords = extend_span(q, new)
        assert span.shape == (30, 30)
        assert np.allclose(span.T @ span, np.eye(30), rtol=0.0, atol=1e-14)
        assert np.allclose(span @ coords, new, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("make,widest", [
        (heat_care, (115, 115)),
        (heat_mare, (89, 79)),
        (heat_bsep, (107, 107)),
    ], ids=["care", "mare", "bsep"])
    def test_heat_spans_stay_narrow(self, make, widest, monkeypatch):
        # The sparse-route heat instances: final spans (left, right) no
        # wider than pivoting 32 columns at a time left them (CARE 137,
        # MARE 89 and 79, BSEP 107), the CARE one at most 115.  Every
        # round of the selection picks a direction: a group whose
        # remainders are all within the threshold forms no Gram matrix.
        pivots = decoupled._pivots
        rounds = []

        def spy(*args):
            picks = pivots(*args)
            rounds.append(len(picks))
            return picks

        monkeypatch.setattr(decoupled, "_pivots", spy)
        report = solve_driver(make(), SolveConfig(method="dsda"))
        assert report.status == "Converged"
        sol = report.final_lowrank
        widths = (sol.q_left.shape[1], sol.q_right.shape[1])
        assert all(w <= most for w, most in zip(widths, widest)), widths
        assert rounds and min(rounds) > 0, rounds


class TestPivots:
    """The contract of ``_pivots`` on the Gram matrix of some columns:
    picks in the order of the largest diagonal entry of the Schur
    complement, none at or below ``max(tol * max diag, tol**2)`` and at
    most ``most`` of them."""

    N = 40

    def gram(self, coords, dtype):
        # Columns with the coordinates ``coords`` in an orthonormal basis
        # of N rows: their Gram matrix is ``coords^H coords`` to roundoff.
        coords = np.asarray(coords, dtype=dtype)
        rng = np.random.default_rng(11)
        q = np.linalg.qr(_random(rng, (self.N, coords.shape[0]), dtype))[0]
        cols = q @ coords
        return cols.conj().T @ cols

    @staticmethod
    def greedy(cols, floor, most):
        # The reference: Gram-Schmidt on the columns themselves, each
        # time picking the one with the largest part outside the picks.
        rest = cols.copy()
        picks = []
        while len(picks) < most:
            d = np.linalg.norm(rest, axis=0) ** 2
            p = int(np.argmax(d))
            if not d[p] > floor:
                break
            u = rest[:, p] / math.sqrt(d[p])
            rest -= np.outer(u, u.conj() @ rest)
            rest[:, p] = 0.0
            picks.append(p)
        return picks

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_picks_the_largest_schur_complement_diagonal(self, dtype):
        # Squared norms 9, 8.42 and 0.25, but the second column is nearly
        # the first: once that is picked, 0.25 is left of the third and
        # 0.01 of the second.
        i = 1j if dtype is complex else 1.0
        gram = self.gram([[3.0, 2.9 * i, 0.0],
                          [0.0, 0.1, 0.0],
                          [0.0, 0.0, 0.5 * i]], dtype)
        assert decoupled._pivots(gram, 1e-10, 3) == [0, 2, 1]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_gram_schmidt_on_the_columns(self, dtype):
        # Twelve random columns at scales from 1 to 1e-5, nine apart in
        # squared norm, and two combinations of them, which lie within
        # roundoff of the picks: twelve picks, in the reference's order.
        rng = np.random.default_rng(4)
        cols = _random(rng, (self.N, 12), dtype) * rng.permutation(
            np.logspace(0.0, -5.0, 12))
        cols = np.hstack([cols, cols[:, :6] @ _random(rng, (6, 2), dtype)])
        gram = cols.conj().T @ cols
        tol = EPS * self.N
        floor = max(tol * gram.diagonal().real.max(), tol * tol)
        picks = decoupled._pivots(gram, tol, cols.shape[1])
        assert picks == self.greedy(cols, floor, cols.shape[1])
        assert len(picks) == 12
        assert decoupled._pivots(gram, tol, 5) == picks[:5]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stops_at_the_floor(self, dtype):
        # Orthogonal columns, so each diagonal entry is its own Schur
        # complement.  At tol = 1e-5 the floor is tol times the largest
        # entry, 4e-5: 1e-3 is picked, 1e-7 is not.
        gram = self.gram(np.diag(np.sqrt([1.0, 4.0, 1e-7, 1e-3])), dtype)
        assert decoupled._pivots(gram, 1e-5, 4) == [1, 0, 3]
        # At tol = 1e-4 and entries of at most 4e-8 the floor is tol**2,
        # 1e-8: 5e-9 is not picked.
        gram = self.gram(np.diag(np.sqrt([2e-8, 5e-9, 4e-8])), dtype)
        assert decoupled._pivots(gram, 1e-4, 3) == [2, 0]
        # Nothing above tol**2, not even the largest entry: no pick.
        gram = self.gram(np.diag(np.sqrt([1e-9, 5e-10])), dtype)
        assert decoupled._pivots(gram, 1e-4, 2) == []

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("most", [1, 2, 5])
    def test_at_most_most_picks(self, dtype, most):
        rng = np.random.default_rng(most)
        cols = _random(rng, (self.N, 5), dtype)
        gram = cols.conj().T @ cols
        picks = decoupled._pivots(gram, EPS * self.N, most)
        assert len(picks) == most
        assert picks == decoupled._pivots(gram, EPS * self.N, 5)[:most]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equal_columns_give_one_pick(self, dtype):
        rng = np.random.default_rng(6)
        col = _random(rng, (self.N, 1), dtype)
        cols = np.hstack([col, col])
        assert len(decoupled._pivots(cols.conj().T @ cols, EPS * self.N,
                                     2)) == 1
