import math

import numpy as np
import pytest
from scipy.integrate import quad

from bridgescore import (
    DegenerateInputError,
    NotPositiveDefiniteError,
    SpdMatrix,
    ValidationError,
    average_ranks,
    chi_square_sf,
    log_det_spd,
    spd_solve,
    spearman_rho,
)
from conftest import brute_force_det, random_spd


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(SpdMatrix(np.eye(3)).chol, np.eye(3))

    def test_two_by_two(self):
        L = SpdMatrix([[4.0, 2.0], [2.0, 3.0]]).chol
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(L, expected, rtol=1e-14)
        np.testing.assert_allclose(L @ L.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError,
                           match="matrix of dim 2 is not positive-definite"):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_random_reconstruction(self, rng):
        for _ in range(20):
            m = random_spd(rng, int(rng.integers(1, 7)))
            L = SpdMatrix(m).chol
            err = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
            assert err <= 1e-10


class TestSpdMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            SpdMatrix([[1.0, 0.5], [0.4, 1.0]])

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        SpdMatrix(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            SpdMatrix([[bad, 0.0], [0.0, 1.0]])

    def test_factor_cached_and_consistent(self, rng):
        m = SpdMatrix(random_spd(rng, 5))
        err = np.linalg.norm(m.chol @ m.chol.T - m.entries) / np.linalg.norm(m.entries)
        assert err <= 1e-10
        assert m.dim == 5


    def test_inverse_factor_formed_at_first_use(self, rng):
        m = SpdMatrix(random_spd(rng, 6))
        assert m._inv_chol is None
        inv = m.inv_chol
        assert m.inv_chol is inv and not inv.flags.writeable
        np.testing.assert_allclose(inv @ m.chol, np.eye(6), atol=1e-13)


class TestSpdSolve:
    def test_identity(self, rng):
        b = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(spd_solve(SpdMatrix(np.eye(2)), b), b)

    def test_diagonal(self):
        x = spd_solve(SpdMatrix([[2.0, 0.0], [0.0, 4.0]]), np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(x, [[1.0], [1.0]], rtol=1e-14)

    def test_residual_bound(self, rng):
        m = random_spd(rng, 5)
        b = rng.standard_normal((5, 4))
        x = spd_solve(SpdMatrix(m), b)
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_quadratic_form_positive(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 8))
            m = SpdMatrix(random_spd(rng, d))
            v = rng.standard_normal(d)
            assert float(v @ spd_solve(m, v)) > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            spd_solve(SpdMatrix(np.eye(2)), np.zeros((3, 1)))

    def test_near_singular_agrees_with_cholesky_solve(self, rng):
        from scipy.linalg import cho_solve

        cond = 1e10
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (q * np.geomspace(1.0, 1.0 / cond, 8)) @ q.T
        m = SpdMatrix(0.5 * (a + a.T))
        b = rng.standard_normal((8, 3))
        x, ref = spd_solve(m, b), cho_solve((m.chol, True), b)
        eps = np.finfo(float).eps
        # both solves are backward stable; their forward errors are within cond * eps
        assert np.linalg.norm(x - ref) <= 10 * cond * eps * np.linalg.norm(ref)
        residual = np.linalg.norm(m.entries @ x - b)
        assert residual <= 10 * eps * np.linalg.norm(m.entries) * np.linalg.norm(x)


class TestLogDet:
    def test_identity(self):
        assert log_det_spd(SpdMatrix(np.eye(4))) == 0.0

    def test_diagonal(self):
        assert log_det_spd(SpdMatrix([[2.0, 0.0], [0.0, 8.0]])) == pytest.approx(
            math.log(16.0), abs=1e-12
        )

    def test_against_cofactor_expansion(self, rng):
        for _ in range(10):
            m = random_spd(rng, 4)
            assert log_det_spd(SpdMatrix(m)) == pytest.approx(
                math.log(brute_force_det(m)), rel=1e-10
            )

    def test_kronecker_factorization(self, rng):
        # log|a (x) b| = dim(b) log|a| + dim(a) log|b|
        for da in (1, 2, 3, 4):
            for db in (1, 2, 3):
                a, b = random_spd(rng, da), random_spd(rng, db)
                lhs = log_det_spd(SpdMatrix(np.kron(a, b)))
                rhs = db * log_det_spd(SpdMatrix(a)) + da * log_det_spd(SpdMatrix(b))
                assert lhs == pytest.approx(rhs, abs=1e-9)


def chi2_density(u, k):
    return math.exp((0.5 * k - 1.0) * math.log(u) - 0.5 * u
                    - math.lgamma(0.5 * k) - 0.5 * k * math.log(2.0))


def quadrature_sf(x, k):
    # Integrate over whichever side keeps the mass hump inside the interval.
    if x <= k:
        lower, est_err = quad(chi2_density, 0.0, x, args=(k,), limit=400,
                              epsabs=1e-12, epsrel=1e-12)
        value = 1.0 - lower
    else:
        value, est_err = quad(chi2_density, x, np.inf, args=(k,), limit=400,
                              epsabs=1e-12, epsrel=1e-12)
    assert est_err < 1e-9
    return value


class TestChiSquareSf:
    def test_at_zero(self):
        for k in (1, 2, 7, 100):
            assert chi_square_sf(0.0, k) == 1.0

    def test_two_dof_closed_form(self):
        # chi^2_2 survival is exp(-x/2)
        assert chi_square_sf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-14)

    def test_frozen_quadrature_value(self):
        # quadrature oracle gives 0.391625176271089 for SF(3.0, 3)
        assert chi_square_sf(3.0, 3) == pytest.approx(0.391625176271089, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 5, 50, 1000])
    def test_quadrature_grid(self, k):
        for frac in (0.1, 0.5, 1.0, 1.5, 3.0):
            x = max(k * frac, 1e-3)
            assert abs(chi_square_sf(x, k) - quadrature_sf(x, k)) <= 1e-8

    def test_extreme_arguments(self):
        from scipy.stats import chi2

        for x, k in [(1e7, 3), (1e7, 10**6), (10**6, 10**6), (999000.0, 10**6),
                     (5.0, 10**6), (150000.0, 10**5)]:
            assert abs(chi_square_sf(x, k) - float(chi2.sf(x, k))) <= 1e-10

    def test_monotone_in_x(self, rng):
        for k in (1, 4, 77):
            xs = np.sort(rng.uniform(0.0, 5.0 * k, size=200))
            vals = [chi_square_sf(float(x), k) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(ValidationError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValidationError):
            chi_square_sf(1.0, 2.5)
        with pytest.raises(ValidationError):
            chi_square_sf([1.0, np.inf], 3)
        with pytest.raises(ValidationError):
            chi_square_sf([1.0, 2.0], [3, 0])

    def test_array_matches_scalar_calls(self, rng):
        k = rng.integers(1, 10**6, size=200)
        x = k * rng.uniform(0.0, 2.0, size=200)
        x[:5] = 0.0
        values = chi_square_sf(x, k)
        assert isinstance(values, np.ndarray) and values.shape == (200,)
        scalar = [chi_square_sf(float(a), int(b)) for a, b in zip(x, k)]
        np.testing.assert_array_equal(values, scalar)
        np.testing.assert_array_equal(chi_square_sf(x[:7], 7),
                                      [chi_square_sf(float(a), 7) for a in x[:7]])
        assert isinstance(chi_square_sf(3.0, 3), float)


class TestAverageRanks:
    def test_rank_sum_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            values = rng.integers(0, 5, size=n).astype(float)  # many ties
            ranks = average_ranks(values)
            assert float(ranks.sum()) == pytest.approx(n * (n + 1) / 2.0, abs=1e-9)

    def test_tie_group_average(self):
        np.testing.assert_allclose(average_ranks([3.0, 1.0, 3.0, 2.0]), [3.5, 1.0, 3.5, 2.0])

    def test_matches_scipy_rankdata(self, rng):
        from scipy.stats import rankdata

        for _ in range(30):
            n = int(rng.integers(1, 60))
            values = rng.integers(0, int(rng.integers(1, 10)), size=n) * rng.choice([0.5, -1.0])
            np.testing.assert_array_equal(average_ranks(values), rankdata(values, method="average"))
        values = rng.standard_normal(50)
        np.testing.assert_array_equal(average_ranks(values), rankdata(values))

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValidationError):
            average_ranks(np.zeros((2, 2)))


class TestSpearman:
    def test_identical_ordering(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_ordering(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_monotone_transform_invariance(self, rng):
        for _ in range(15):
            a = rng.standard_normal(30)
            b = rng.standard_normal(30)
            base = spearman_rho(a, b)
            assert spearman_rho(np.exp(a), b) == pytest.approx(base, abs=1e-12)
            assert spearman_rho(a, 3.0 * b + 7.0) == pytest.approx(base, abs=1e-12)
            assert spearman_rho(a, np.tanh(b)) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=r"inputs have shapes \(2,\) and \(3,\)"):
            spearman_rho([1, 2], [1, 2, 3])

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            spearman_rho([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            spearman_rho([1.0], [2.0])
