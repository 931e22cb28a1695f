import dataclasses
import math

import numpy as np
import pytest

from dsda.errors import ConfigError, DimensionMismatchError, InvalidShiftError
from dsda.matkit import numerical_rank
from dsda.problems import (
    FAMILY_MATRIX_KEYS,
    FAMILY_TYPES,
    SHIFTS,
    BsepProblem,
    CareProblem,
    DareProblem,
    MareProblem,
    assemble_problem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
    gen_scalar_suite,
    reduce_control_weight,
)


class TestGenerators:
    def test_care_deterministic(self):
        p1 = gen_random_care(8, 2, 2, seed=4)
        p2 = gen_random_care(8, 2, 2, seed=4)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.c, p2.c)

    def test_care_stable(self):
        for seed in range(5):
            p = gen_random_care(10, 2, 3, seed=seed)
            assert np.max(np.linalg.eigvalsh(p.a)) < 0.0

    def test_care_full_rank_factors(self):
        p = gen_random_care(12, 3, 2, seed=7)
        assert numerical_rank(p.b) == 3
        assert numerical_rank(p.c.T) == 2

    def test_dare_spectrum_inside_stable_band(self):
        p = gen_random_dare(9, 2, 2, seed=3)
        mags = np.abs(np.linalg.eigvalsh(p.a))
        assert np.max(mags) <= 0.52 + 1e-12
        assert np.min(mags) >= 0.42 - 1e-12

    def test_mare_is_m_matrix(self):
        for seed in range(5):
            p = gen_random_mare(5, 4, 2, 2, seed=seed)
            m_block = np.block([[p.d, -p.c_dense()], [-p.b_dense(), p.a]])
            off = m_block - np.diag(np.diag(m_block))
            assert np.max(off) <= 0.0
            assert np.min(np.diag(m_block)) > 0.0
            # Strict diagonal dominance makes it a nonsingular M-matrix.
            gap = np.diag(m_block) - np.sum(np.abs(off), axis=1)
            assert np.min(gap) > 0.0

    def test_mare_deterministic(self):
        p1 = gen_random_mare(4, 5, 1, 2, seed=9)
        p2 = gen_random_mare(4, 5, 1, 2, seed=9)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.c_l, p2.c_l)

    def test_bsep_negative_definite_hermitian(self):
        p = gen_random_bsep(6, 2, seed=2)
        assert np.allclose(p.a, p.a.conj().T)
        assert np.max(np.linalg.eigvalsh(p.a)) < 0.0

    @pytest.mark.parametrize("make,args", [
        (gen_random_care, (4, -1, 1)), (gen_random_care, (4, 1, -1)),
        (gen_random_dare, (4, -1, 1)), (gen_random_dare, (4, 1, -1)),
        (gen_random_mare, (4, 4, -1, 1)), (gen_random_mare, (4, 4, 1, -1)),
        (gen_random_bsep, (4, -1))],
        ids=["care-m", "care-l", "dare-m", "dare-l", "mare-m1", "mare-n1",
             "bsep-p"])
    def test_negative_widths_rejected(self, make, args):
        # Refused next to the upper bound, before numpy sees the shape.
        with pytest.raises(DimensionMismatchError, match=r"in \[0, "):
            make(*args, seed=0)


class TestScalarSuite:
    def test_reference_values(self):
        cases = gen_scalar_suite()
        values = {type(p).__name__: v for p, v in cases}
        assert values["CareProblem"] == pytest.approx(0.4142135623730951)
        assert values["DareProblem"] == pytest.approx(1.1327822185373186)
        assert values["MareProblem"] == pytest.approx(0.20871215252208009)
        assert values["BsepProblem"] == pytest.approx(-1.7320508075688772)

    def test_references_satisfy_their_equations(self):
        for p, v in gen_scalar_suite():
            if isinstance(p, CareProblem):
                a, b, c = p.a[0, 0], p.b[0, 0], p.c[0, 0]
                assert 2 * a * v - b * b * v * v + c * c == pytest.approx(0.0)
            elif isinstance(p, DareProblem):
                a, g, h = p.a[0, 0], p.b[0, 0] ** 2, p.c[0, 0] ** 2
                assert -v + a * v / (1 + g * v) * a + h == pytest.approx(0.0)
            elif isinstance(p, MareProblem):
                a, d = p.a[0, 0], p.d[0, 0]
                b = p.b_dense()[0, 0]
                c = p.c_dense()[0, 0]
                assert v * c * v - v * d - a * v + b == pytest.approx(0.0)
            else:
                ham = p.hamiltonian()
                assert min(np.linalg.eigvals(ham).real) == pytest.approx(v)


class TestProblemValidation:
    def test_bsep_requires_hermitian(self):
        with pytest.raises(DimensionMismatchError):
            BsepProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)))

    def test_bsep_hermitian_test_does_not_overflow(self):
        with pytest.raises(DimensionMismatchError, match="Hermitian"):
            BsepProblem([[0.0, 1e200], [0.0, 0.0]], np.zeros((2, 1)))

    @pytest.mark.parametrize("field", ["a", "l_b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bsep_rejects_non_finite_entries(self, field, bad):
        data = {"a": -np.eye(2), "l_b": np.ones((2, 1))}
        data[field] = data[field].astype(complex)
        data[field][1, 0] = complex(0.0, bad)
        with pytest.raises(ValueError, match="non-finite"):
            BsepProblem(**data)

    @pytest.mark.parametrize("make", [
        lambda e: CareProblem(e(0, 0), e(0, 0), e(0, 0)),
        lambda e: DareProblem(e(0, 0), e(0, 1), e(1, 0)),
        lambda e: MareProblem(e(0, 0), e(0, 0), e(0, 0), e(0, 0), e(0, 0),
                              e(0, 0)),
        lambda e: MareProblem(-np.eye(2), e(0, 0), e(2, 0), e(0, 0),
                              e(0, 0), e(2, 0)),
        lambda e: BsepProblem(e(0, 0), e(0, 0)),
    ], ids=["care", "dare", "mare", "mare-d", "bsep"])
    def test_order_zero_rejected(self, make):
        # Refused when the problem is built, so that no solve meets one.
        with pytest.raises(DimensionMismatchError, match="order at least 1"):
            make(lambda *shape: np.zeros(shape))

    @pytest.mark.parametrize("family,key", [
        (family, key) for family in ("care", "dare", "mare")
        for key in FAMILY_MATRIX_KEYS[family]])
    def test_complex_data_rejected_for_real_family(self, family, key):
        # Refused when the problem is built, in the library as on the
        # command line, so that no solve casts the imaginary part away.
        problem_type = FAMILY_TYPES[family]
        source = next(p for p, _ in gen_scalar_suite()
                      if type(p) is problem_type)
        data = {k.lower(): getattr(source, k.lower())
                for k in FAMILY_MATRIX_KEYS[family]}
        data[key.lower()] = data[key.lower()] + 0.5j
        with pytest.raises(ConfigError, match=(
                f"(?i)matrix '{key}' is complex but "
                f"{problem_type.__name__} is real")):
            problem_type(**data)

    def test_bsep_takes_complex_data(self):
        p = BsepProblem([[-2.0 + 0.0j, 0.5j], [-0.5j, -2.0]],
                        [[1.0], [1.0j]])
        assert p.a.dtype == p.l_b.dtype == np.complex128
        assert p.a[0, 1] == 0.5j and p.l_b[1, 0] == 1.0j

    def test_wide_b_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DareProblem(np.eye(2), np.ones((2, 3)), np.ones((1, 2)))

    def test_mare_factor_shapes(self):
        with pytest.raises(DimensionMismatchError):
            MareProblem(np.eye(2), np.eye(3), np.ones((2, 1)),
                        np.ones((2, 1)), np.ones((3, 1)), np.ones((2, 1)))

    def test_mare_shift_checked_at_construction(self):
        # An inadmissible shift is refused when the problem is built, so
        # solve_driver never meets one.
        p = gen_random_mare(5, 4, 2, 2, seed=1)
        floors = p.shift_floors()
        with pytest.raises(InvalidShiftError, match="gamma = 0.1"):
            dataclasses.replace(p, gamma=0.1)
        with pytest.raises(InvalidShiftError, match="alpha"):
            dataclasses.replace(p, alpha=floors["alpha"] - 1e-9)
        with pytest.raises(InvalidShiftError, match="beta"):
            dataclasses.replace(p, beta=floors["beta"] - 1e-9)
        with pytest.raises(InvalidShiftError):
            dataclasses.replace(p, gamma=float("nan"))
        # Each floor is admissible, and is the shift an unset one takes.
        q = dataclasses.replace(p, **floors)
        assert q.shifts("sda") == p.shifts("sda")
        assert q.shifts("adda") == p.shifts("adda")


    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("family,shift", [
        ("care", "gamma"), ("mare", "gamma"), ("mare", "alpha"),
        ("mare", "beta"), ("bsep", "alpha")])
    def test_non_finite_shift_rejected(self, family, shift, bad):
        # A non-finite shift is refused when the problem is built, so a
        # solve never starts from one.
        p = {"care": gen_random_care(6, 1, 1, seed=0),
             "mare": gen_random_mare(5, 4, 2, 2, seed=1),
             "bsep": gen_random_bsep(6, 2, seed=2)}[family]
        with pytest.raises(InvalidShiftError, match=shift):
            dataclasses.replace(p, **{shift: bad})


class TestAssembleProblem:
    def test_care_roundtrip(self):
        p = gen_random_care(4, 1, 1, seed=0)
        q = assemble_problem("care", {"A": p.a, "B": p.b, "C": p.c}, gamma=2.0)
        assert isinstance(q, CareProblem)
        assert q.gamma == 2.0

    def test_missing_matrix(self):
        with pytest.raises(ConfigError):
            assemble_problem("mare", {"A": np.eye(2)})

    def test_complex_rejected_for_real_family(self):
        with pytest.raises(ConfigError):
            assemble_problem("dare", {"A": np.eye(2) * (1 + 0j),
                                      "B": np.ones((2, 1)),
                                      "C": np.ones((1, 2))})

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            assemble_problem("ricatti", {})

    @pytest.mark.parametrize("family,expected", [
        ("care", {"gamma": 5.0}),
        ("dare", {}),
        ("mare", {"gamma": 5.0, "alpha": 3.0, "beta": 4.0}),
        ("bsep", {"alpha": 3.0}),
    ], ids=["care", "dare", "mare", "bsep"])
    def test_each_family_takes_its_own_shifts(self, family, expected):
        problem_type = FAMILY_TYPES[family]
        source = next(p for p, _ in gen_scalar_suite()
                      if isinstance(p, problem_type))
        q = assemble_problem(family, {key: getattr(source, key.lower())
                                      for key in FAMILY_MATRIX_KEYS[family]},
                             gamma=5.0, alpha=3.0, beta=4.0)
        assert type(q) is problem_type
        assert {f.name: getattr(q, f.name) for f in dataclasses.fields(q)
                if f.name in SHIFTS} == expected


class TestReduceControlWeight:
    def test_identity_weight_is_noop(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.allclose(reduce_control_weight(b, np.eye(2)), b)

    def test_scalar_weight(self):
        out = reduce_control_weight(np.array([[2.0]]), np.array([[4.0]]))
        assert out == pytest.approx(np.array([[1.0]]))

    def test_recovers_weighted_quadratic_term(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((4, 2))
        w = rng.standard_normal((2, 2))
        r = w @ w.T + np.eye(2)
        bt = reduce_control_weight(b, r)
        assert np.allclose(bt @ bt.T, b @ np.linalg.inv(r) @ b.T)
