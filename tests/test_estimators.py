from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssdr import estimators
from ssdr.datamodel import ClassSummary
from ssdr.errors import (
    ConvergenceError,
    DegeneracyError,
    InvalidInputError,
    NotSpdError,
    NumericalDomainError,
    SampleSizeError,
    SsdrError,
)
from ssdr.estimators import (
    PrecisionEstimate,
    PrecisionEstimatorSpec,
    bodnar,
    estimate,
    haff,
    mry,
    mry_batch,
    sample_inverse,
    wang,
)


def cs_from(cov, n=10, mean=None, class_id=0):
    cov = np.asarray(cov, dtype=float)
    p = cov.shape[0]
    mean = np.zeros(p) if mean is None else np.asarray(mean, dtype=float)
    return ClassSummary(class_id=class_id, n_i=n, mean=mean,
                        cov=(cov + cov.T) / 2, prior=1.0)


def random_spd(rng, p, floor=0.5):
    g = rng.normal(size=(p, p))
    s = g @ g.T / p + floor * np.eye(p)
    return (s + s.T) / 2


class TestSampleInverse:
    def test_identity(self):
        out = sample_inverse(cs_from(np.eye(3)))
        np.testing.assert_allclose(out.omega, np.eye(3))

    def test_closed_form_2x2(self):
        out = sample_inverse(cs_from([[1.0, 0.5], [0.5, 1.0]]))
        expected = np.array([[4.0, -2.0], [-2.0, 4.0]]) / 3.0
        np.testing.assert_allclose(out.omega, expected, rtol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(NotSpdError):
            sample_inverse(cs_from(np.diag([1.0, 0.0])))


class TestHaff:
    def test_identity_oracle(self):
        # p=2, n=10, S=I: disparity U=1, t=0.5, estimate = 3I + 4I = 7I
        out = haff(cs_from(np.eye(2), n=10))
        np.testing.assert_allclose(out.omega, 7.0 * np.eye(2), atol=1e-12)
        assert out.diagnostics.shrinkage_coefficients["t"] == pytest.approx(0.5)

    def test_equal_eigenvalues_give_unit_disparity(self):
        out = haff(cs_from(5.0 * np.eye(4), n=20))
        assert out.diagnostics.shrinkage_coefficients["disparity"] == \
            pytest.approx(1.0)

    def test_spread_eigenvalues_oracle(self):
        out = haff(cs_from(np.diag([1.0, 100.0]), n=10))
        coef = out.diagnostics.shrinkage_coefficients
        assert coef["disparity"] == pytest.approx(0.19801980198019806)
        assert coef["t"] == pytest.approx(0.22249707974499242)

    def test_small_sample_rejected(self):
        with pytest.raises(SampleSizeError):
            haff(cs_from(np.eye(3), n=5))  # needs n > p + 2

    def test_tu_in_unit_interval_and_spd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(2, 8))
            n = p + 3 + int(rng.integers(0, 40))
            out = haff(cs_from(random_spd(rng, p), n=n))
            t = out.diagnostics.shrinkage_coefficients["t"]
            assert 0.0 <= t <= 1.0
            assert np.linalg.eigvalsh(out.omega)[0] > 0


class TestWang:
    def test_identity_oracle(self):
        # interval degenerates to {1}; alpha = 1.8^3 / 3.2 = 1.8225
        out = wang(cs_from(np.eye(2), n=10))
        np.testing.assert_allclose(out.omega, 0.91125 * np.eye(2), atol=1e-9)
        coef = out.diagnostics.shrinkage_coefficients
        assert coef["beta"] == pytest.approx(1.0)
        assert coef["alpha"] == pytest.approx(1.8225)

    def test_scaling_consistency(self):
        # beta scales with S, and the estimate scales inversely
        rng = np.random.default_rng(1)
        s = random_spd(rng, 4)
        base = wang(cs_from(s, n=12)).omega
        scaled = wang(cs_from(3.7 * s, n=12)).omega
        np.testing.assert_allclose(scaled, base / 3.7, rtol=1e-6)

    def test_monotone_loss_grid_of_two_selects_endpoint(self):
        # for S=diag(1,2), n=10 the loss decreases across [1, 2]
        from ssdr.estimators import _wang_loss

        evals = np.array([1.0, 2.0])
        dense = np.geomspace(1.0, 2.0, 200)
        loss, _, _, _ = _wang_loss(dense, evals, 2, 10)
        assert np.all(np.diff(loss) < 0)
        out = wang(cs_from(np.diag([1.0, 2.0]), n=10), grid_size=2)
        assert out.diagnostics.shrinkage_coefficients["beta"] == \
            pytest.approx(2.0)

    def test_argmin_property_on_grid(self):
        from ssdr.estimators import _wang_loss

        rng = np.random.default_rng(2)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            n = p + 2 + int(rng.integers(0, 30))
            s = random_spd(rng, p)
            out = wang(cs_from(s, n=n))
            evals = np.linalg.eigvalsh(s)
            beta = out.diagnostics.shrinkage_coefficients["beta"]
            alpha = out.diagnostics.shrinkage_coefficients["alpha"]
            assert alpha > 0
            grid = np.geomspace(evals[0], evals[-1], 50)
            l_grid, _, _, bad = _wang_loss(grid, evals, p, n)
            l_beta, _, _, _ = _wang_loss(np.array([beta]), evals, p, n)
            assert l_beta[0] <= np.min(l_grid[~bad]) + 1e-12

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(NotSpdError):
            wang(cs_from(np.diag([1.0, 0.0]), n=10))


class TestBodnar:
    def test_diag_oracle(self):
        # p=2, n=10, S=diag(1,2), identity target: alpha=-1, beta=1.35
        out = bodnar(cs_from(np.diag([1.0, 2.0]), n=10))
        np.testing.assert_allclose(out.omega, np.diag([0.35, 0.85]),
                                   atol=1e-9)
        coef = out.diagnostics.shrinkage_coefficients
        assert coef["alpha"] == pytest.approx(-1.0)
        assert coef["beta"] == pytest.approx(1.35)
        assert not out.diagnostics.repaired

    def test_degenerate_target_rejected(self):
        # S^-1 proportional to the target: coefficient denominator is 0
        with pytest.raises(DegeneracyError):
            bodnar(cs_from(np.eye(2), n=10))

    def test_reconstruction_when_not_repaired(self):
        rng = np.random.default_rng(3)
        s = random_spd(rng, 3)
        out = bodnar(cs_from(s, n=25))
        if not out.diagnostics.repaired:
            coef = out.diagnostics.shrinkage_coefficients
            expected = coef["alpha"] * np.linalg.inv(s) + \
                coef["beta"] * np.eye(3)
            np.testing.assert_allclose(out.omega, (expected + expected.T) / 2,
                                       atol=1e-10)

    def test_repair_flagged_and_spd(self):
        s = np.array([[0.05434565, 0.16515845],
                      [0.16515845, 1.12953418]])
        out = bodnar(cs_from(s, n=3))
        assert out.diagnostics.repaired
        assert np.linalg.eigvalsh(out.omega)[0] > 0

    def test_diagonal_of_s_target(self):
        rng = np.random.default_rng(4)
        s = random_spd(rng, 3)
        out = bodnar(cs_from(s, n=20), target="diagonal_of_s")
        coef = out.diagnostics.shrinkage_coefficients
        expected = coef["alpha"] * np.linalg.inv(s) + \
            coef["beta"] * np.diag(np.diag(s))
        if not out.diagnostics.repaired:
            np.testing.assert_allclose(out.omega, (expected + expected.T) / 2,
                                       atol=1e-10)

    def test_explicit_target(self):
        rng = np.random.default_rng(5)
        s = random_spd(rng, 3)
        target = np.diag([1.0, 2.0, 3.0])
        out = bodnar(cs_from(s, n=20), target=target)
        assert out.omega.shape == (3, 3)

    def test_failed_trace_norm_is_typed(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        cs = cs_from(random_spd(np.random.default_rng(6), 3), n=20,
                     class_id=4)
        with pytest.raises(NumericalDomainError, match="did not converge"):
            bodnar(cs)
        with pytest.raises(NumericalDomainError) as info:
            estimate(cs, PrecisionEstimatorSpec(kind="bodnar"))
        assert info.value.class_id == 4


def offdiag_kkt_residual(s, omega, lam, zero_tol=1e-8):
    """Independent optimality check for the simple-penalty estimate.

    Gradient of the smooth part is S - Omega^-1; off-diagonal entries must
    equal -lam * sign(Omega_ij) where Omega_ij != 0 and lie within [-lam,
    lam] where Omega_ij == 0; diagonal entries must vanish.
    """
    g = s - np.linalg.inv(omega)
    p = s.shape[0]
    worst = np.max(np.abs(np.diag(g)))
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            if abs(omega[i, j]) > zero_tol:
                worst = max(worst, abs(g[i, j] + lam * np.sign(omega[i, j])))
            else:
                worst = max(worst, max(0.0, abs(g[i, j]) - lam))
    return worst


def qda_penalty_residuals(cs, gamma, fit):
    """Independent optimality check of a QDA-penalty estimate, from its
    Omega and final ADMM state alone, with B = (mean, gamma I).

    Returns (primal, stationarity, subgradient): ||B' Omega B - Z||_F;
    ||S - Omega^-1 + B Y B'||_F with the dual Y = rho U; and how far Y is
    from a subgradient of lambda |Z|_1 over the off-diagonal entries (zero
    diagonal, lambda sign(Z_ij) where Z_ij != 0, |Y_ij| <= lambda elsewhere).
    """
    b = np.column_stack([cs.mean, gamma * np.eye(cs.p)])
    z, lam, y = fit.state.z, fit.state.lam, fit.state.rho * fit.state.u
    primal = np.linalg.norm(b.T @ fit.omega @ b - z)
    stationarity = np.linalg.norm(
        cs.cov - np.linalg.inv(fit.omega) + b @ y @ b.T)
    off = ~np.eye(len(z), dtype=bool)
    nonzero, zero = off & (z != 0), off & (z == 0)
    subgradient = max(
        float(np.max(np.abs(np.diag(y)))),
        float(np.max(np.abs(y[nonzero] - lam * np.sign(z[nonzero])),
                     initial=0.0)),
        float(np.max(np.abs(y[zero]) - lam, initial=0.0)))
    return primal, stationarity, subgradient


class TestMry:
    def test_qda_penalty_solutions_are_optimal(self):
        # the solver stops once its primal and dual residuals are below
        # admm_tol; at the stop the stationarity residual equals the dual
        # one, and the Z-step makes rho U an exact subgradient
        rng = np.random.default_rng(31)
        tol = 1e-8
        for _ in range(12):
            p = int(rng.integers(3, 9))
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            n = int(rng.choice([p + 1, 3 * p]))
            x = rng.normal(size=(n, p)) * rng.uniform(0.3, 3.0, size=p)
            cs = cs_from(np.cov(x, rowvar=False, bias=True), n=n,
                         mean=x.mean(axis=0) + rng.normal(size=p))
            spec = PrecisionEstimatorSpec(
                kind="mry", mry_penalty="qda", mry_gamma=gamma, admm_tol=tol,
                mry_lambda=float(rng.uniform(0.01, 0.5)))
            cold = mry(cs, spec)
            warm = mry(cs, spec.with_lambda(float(rng.uniform(0.01, 0.5))),
                       warm_start=cold.state)
            for fit in (cold, warm):
                primal, stationarity, subgradient = qda_penalty_residuals(
                    cs, gamma, fit)
                assert primal <= 2 * tol
                assert stationarity <= 2 * tol
                assert subgradient <= 1e-12

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_rho_changes_and_rejected_steps_end_optimal(self, monkeypatch,
                                                        penalty):
        # residual balancing clears the acceleration history and the
        # safeguard throws extrapolated steps away; the solves that go
        # through both still stop at an optimal point
        rejected, rhos = [], []
        safeguard, prox = estimators._safeguard, estimators._logdet_prox

        def spy_safeguard(res, res_acc):
            accepted = safeguard(res, res_acc)
            rejected[-1] += accepted.count(False)
            return accepted

        def spy_prox(e, t):
            rhos[-1].add(float(t[0, 0]))
            return prox(e, t)

        monkeypatch.setattr(estimators, "_safeguard", spy_safeguard)
        monkeypatch.setattr(estimators, "_logdet_prox", spy_prox)
        tol = 1e-8
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.choice([6, 15]))
            x = rng.normal(size=(n, 5)) * rng.uniform(0.3, 3.0, size=5)
            cs = cs_from(np.cov(x, rowvar=False, bias=True), n=n,
                         mean=x.mean(axis=0) + rng.normal(size=5))
            spec = PrecisionEstimatorSpec(
                kind="mry", mry_penalty=penalty, admm_tol=tol,
                mry_lambda=float(rng.uniform(0.01, 0.5)))
            rejected.append(0)
            rhos.append(set())
            fit = mry(cs, spec)
            if penalty == "qda":
                primal, stationarity, _ = qda_penalty_residuals(cs, 1.0, fit)
            else:
                primal = fit.diagnostics.kkt_residual
                stationarity = offdiag_kkt_residual(cs.cov, fit.omega,
                                                    spec.mry_lambda)
            assert primal <= 2 * tol
            assert stationarity <= 2 * tol
        both = [r > 0 and len(t) > 1 for r, t in zip(rejected, rhos)]
        assert any(both)

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_non_finite_iterate_is_typed_error(self, monkeypatch, penalty):
        prox = estimators._logdet_prox

        def nan_prox(e, t):
            q, d = prox(e, t)
            return q, np.full_like(d, np.nan)

        monkeypatch.setattr(estimators, "_logdet_prox", nan_prox)
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                      mry_penalty=penalty)
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NumericalDomainError, match="not finite"):
            mry(cs_from(s, mean=[1.0, -1.0]), spec)

    def test_saturation_returns_diagonal(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.6)
        out = mry(cs_from(s), spec)
        np.testing.assert_allclose(out.omega, np.eye(2), atol=1e-6)

    def test_tiny_lambda_matches_sample_inverse(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=1e-10)
        out = mry(cs_from(s), spec)
        np.testing.assert_allclose(out.omega, np.linalg.inv(s), atol=1e-5)

    def test_kkt_residual_small_at_convergence(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_spd(rng, 5)
            lam = float(rng.uniform(0.02, 0.3))
            spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=lam)
            out = mry(cs_from(s, n=30), spec)
            assert out.diagnostics.kkt_residual <= 1e-4
            assert offdiag_kkt_residual(s, out.omega, lam) <= 1e-4

    def test_sparsity_monotone_in_lambda(self):
        rng = np.random.default_rng(7)
        for p in (2, 3):
            s = random_spd(rng, p, floor=0.3)
            lams = [0.01, 0.05, 0.1, 0.2, 0.5]
            patterns = []
            for lam in lams:
                spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=lam)
                omega = mry(cs_from(s, n=20), spec).omega
                off = np.abs(omega) <= 1e-8
                np.fill_diagonal(off, False)
                patterns.append(off)
            for a, b in zip(patterns, patterns[1:]):
                assert np.all(b[a])  # zeros only accumulate as lambda grows

    def test_singular_covariance_accepted(self):
        # n_i <= p leaves the sample covariance singular; the penalized
        # estimate must still exist and be SPD
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        cov = np.cov(x, rowvar=False, bias=True)
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.2)
        out = mry(cs_from(cov, n=4, mean=x.mean(axis=0)), spec)
        assert np.linalg.eigvalsh(out.omega)[0] > 0

    def test_qda_mode_diagnostics(self):
        rng = np.random.default_rng(9)
        s = random_spd(rng, 4)
        mean = rng.normal(size=4)
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                      mry_penalty="qda", mry_gamma=0.7)
        out = mry(cs_from(s, n=20, mean=mean), spec)
        assert out.diagnostics.mean_quadratic == \
            pytest.approx(mean @ out.omega @ mean)
        assert out.diagnostics.shrinkage_coefficients["gamma"] == 0.7
        assert out.diagnostics.iterations > 0

    def test_invalid_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            PrecisionEstimatorSpec(kind="mry", mry_lambda=0.0)

    def test_rho_is_lowered_while_the_primal_residual_is_zero(self):
        # the primal residual of this solve is exactly 0 on most iterations
        # while the dual decays slowly: residual balancing must still lower
        # rho, or the solve crawls (over 20,000 iterations at c = 1, 470 at
        # c = 8) where it takes a few dozen
        s = np.array([[0.5295, 0.0340], [0.0340, 0.0024]])
        for c in (1.0, 8.0):
            spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=c * 0.015625)
            out = mry(cs_from(c * s, n=5), spec)
            assert out.diagnostics.iterations <= 50


def _solo(cs, spec, warm_start=None):
    """One problem through ``mry``: its estimate or its typed error."""
    try:
        return mry(cs, spec, warm_start)
    except SsdrError as exc:
        return exc


def _outcome(fit):
    """Everything a solve reports, its final state included, bit for bit."""
    if isinstance(fit, PrecisionEstimate):
        d, state = fit.diagnostics, fit.state
        return ("fit", fit.omega.tobytes(), d.iterations, d.kkt_residual,
                d.repaired, d.mean_quadratic, d.shrinkage_coefficients,
                state.z.tobytes(), state.u.tobytes(), state.rho, state.lam)
    return (type(fit), str(fit), fit.class_id, getattr(fit, "iterations", None),
            getattr(fit, "primal", None), getattr(fit, "dual", None))


@st.composite
def mry_batches(draw):
    """A penalty and problems of one dimension with class ids, each with its
    own lambda; some warm started from the state of a solve at another
    lambda, some with n_i <= p (singular S, slow to converge)."""
    p = draw(st.integers(2, 6))
    penalty = draw(st.sampled_from(["simple", "qda"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems, warm_starts, lambdas = [], [], []
    for c in range(draw(st.integers(2, 5))):
        n = draw(st.sampled_from([2, p, 3 * p + 10]))
        x = rng.normal(size=(n, p)) * rng.uniform(0.3, 3.0, size=p)
        cov = np.cov(x, rowvar=False, bias=True)
        cs = cs_from(cov, n=n, class_id=c,
                     mean=x.mean(axis=0) + rng.normal(size=p))
        warm = None
        if draw(st.booleans()):
            earlier = _solo(cs, PrecisionEstimatorSpec(
                kind="mry", mry_penalty=penalty, admm_tol=1e-4,
                mry_lambda=draw(st.floats(0.01, 0.5)), admm_max_iters=1000))
            warm = getattr(earlier, "state", None)
        problems.append(cs)
        warm_starts.append(warm)
        lambdas.append(draw(st.floats(0.01, 0.5)))
    return penalty, problems, warm_starts, lambdas


class TestMryBatch:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mry_batches(), st.integers(5, 80))
    def test_each_problem_matches_its_solo_solve(self, batch, max_iters):
        penalty, problems, warm_starts, lambdas = batch
        spec = PrecisionEstimatorSpec(kind="mry", mry_penalty=penalty,
                                      admm_max_iters=max_iters)
        fits = mry_batch(problems, spec, warm_starts, lambdas)
        solos = [_solo(cs, spec.with_lambda(lam), w)
                 for cs, w, lam in zip(problems, warm_starts, lambdas)]
        # a mix: some problems converge within the budget, some are capped
        assume(any(isinstance(f, PrecisionEstimate) for f in solos))
        assume(any(isinstance(f, ConvergenceError) for f in solos))
        assert [_outcome(f) for f in fits] == [_outcome(f) for f in solos]

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_restart_from_its_own_state_converges_at_once(self, penalty):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            n = int(rng.choice([p, 3 * p + 10]))
            x = rng.normal(size=(n, p)) * rng.uniform(0.3, 3.0, size=p)
            cs = cs_from(np.cov(x, rowvar=False, bias=True), n=n,
                         mean=x.mean(axis=0) + rng.normal(size=p))
            spec = PrecisionEstimatorSpec(
                kind="mry", mry_penalty=penalty,
                mry_lambda=float(rng.uniform(0.01, 0.5)))
            first = mry(cs, spec)
            again = mry(cs, spec, warm_start=first.state)
            assert again.diagnostics.iterations == 1
            assert again.state.rho == first.state.rho

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_warm_start_reuses_the_constants_of_its_own_problem_only(
            self, monkeypatch, penalty):
        # a penalty path sets its problem up once; a state of another
        # summary or penalty gets the problem set up anew, and either way
        # the solve is the one from constants set up afresh, bit for bit
        rng = np.random.default_rng(22)
        a, b = (cs_from(random_spd(rng, 4), n=20, mean=rng.normal(size=4))
                for _ in range(2))
        spec = PrecisionEstimatorSpec(kind="mry", mry_penalty=penalty,
                                      mry_lambda=0.2)
        state = mry(a, spec).state
        cold, set_up = estimators._mry_cold, []
        monkeypatch.setattr(estimators, "_mry_cold",
                            lambda cs, sp: set_up.append(cs) or cold(cs, sp))
        for cs, sp, reused in [(a, spec.with_lambda(0.1), True),
                               (b, spec.with_lambda(0.1), False),
                               (a, replace(spec, mry_gamma=2.0), False)]:
            set_up.clear()
            fit = mry(cs, sp, warm_start=state)
            assert set_up == ([] if reused else [cs])
            afresh = mry(cs, sp, warm_start=replace(state, _problem=None))
            assert _outcome(fit) == _outcome(afresh)

    def test_residual_norms_match_linalg_norm(self):
        # residuals decide where a solve stops; summed in another order they
        # can differ by an ulp, and batched results would leave the solo ones
        rng = np.random.default_rng(16)
        for p in (2, 8, 11, 51):
            stack = rng.normal(size=(15, p, p)) * rng.uniform(1e-3, 1e3)
            assert estimators._norms(stack) == [
                float(np.linalg.norm(m)) for m in stack]

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_non_finite_iterate_fails_only_its_problem(self, monkeypatch,
                                                       penalty):
        rng = np.random.default_rng(13)
        problems = [cs_from(random_spd(rng, 3), n=20, class_id=c,
                            mean=rng.normal(size=3)) for c in range(3)]
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                      mry_penalty=penalty)
        solos = [mry(cs, spec) for cs in problems]
        prox, calls = estimators._logdet_prox, []

        def nan_in_second_problem(e, t):
            q, d = prox(e, t)
            if not calls:  # the first step of the stack of all three
                d[1] = np.nan
            calls.append(len(e))
            return q, d

        monkeypatch.setattr(estimators, "_logdet_prox", nan_in_second_problem)
        fits = mry_batch(problems, spec)
        assert isinstance(fits[1], NumericalDomainError)
        assert fits[1].class_id == 1 and "not finite" in str(fits[1])
        for i in (0, 2):
            assert fits[i].omega.tobytes() == solos[i].omega.tobytes()
        assert calls[:2] == [3, 2]  # the failed problem left the stack

    @pytest.mark.parametrize("penalty", ["simple", "qda"])
    def test_failed_eigendecomposition_fails_only_its_problem(
            self, monkeypatch, penalty):
        rng = np.random.default_rng(18)
        problems = [cs_from(random_spd(rng, 3), n=20, class_id=c,
                            mean=rng.normal(size=3)) for c in range(3)]
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1,
                                      mry_penalty=penalty)
        solos = [mry(cs, spec) for cs in problems]
        eigh, calls = np.linalg.eigh, []

        def flaky_eigh(a):
            calls.append(len(a) if a.ndim == 3 else None)
            # the first stacked call fails, then problem 1 retried alone
            if len(calls) in (1, 3):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", flaky_eigh)
        fits = mry_batch(problems, spec)
        assert isinstance(fits[1], NumericalDomainError)
        assert fits[1].class_id == 1 and "not finite" in str(fits[1])
        for i in (0, 2):
            assert _outcome(fits[i]) == _outcome(solos[i])
        assert calls[:5] == [3, None, None, None, 2]

    def test_failed_spd_check_fails_only_its_problem(self, monkeypatch):
        rng = np.random.default_rng(19)
        problems = [cs_from(random_spd(rng, 3), n=20, class_id=c)
                    for c in range(3)]
        spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=0.1)
        solos = [mry(cs, spec) for cs in problems]
        eigvalsh, calls = np.linalg.eigvalsh, []

        def flaky_eigvalsh(a):
            calls.append(len(a) if a.ndim == 3 else None)
            # the stacked check of the finished problems fails, and so does
            # problem 1's estimate checked alone
            if a.ndim == 3 or np.array_equal(a, solos[1].omega):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", flaky_eigvalsh)
        fits = mry_batch(problems, spec)
        assert isinstance(fits[1], NumericalDomainError)
        assert fits[1].class_id == 1 and "did not converge" in str(fits[1])
        for i in (0, 2):
            assert _outcome(fits[i]) == _outcome(solos[i])
        assert calls == [3, None, None, None]

    def test_errors_name_their_class(self):
        rng = np.random.default_rng(14)
        problems = [cs_from(random_spd(rng, 3), n=20, class_id=c)
                    for c in (4, 7)]
        capped = PrecisionEstimatorSpec(kind="mry", admm_max_iters=1)
        fits = mry_batch(problems, capped)
        assert all(isinstance(f, ConvergenceError) for f in fits)
        assert [f.class_id for f in fits] == [4, 7]
        assert str(fits[1]).startswith("class 7: ADMM did not converge")
        with pytest.raises(ConvergenceError) as info:
            mry(problems[1], capped)
        assert info.value.class_id == 7

    def test_bad_lambda_or_state_names_its_class(self):
        rng = np.random.default_rng(17)
        problems = [cs_from(random_spd(rng, 3), n=20, class_id=c)
                    for c in (2, 5)]
        spec = PrecisionEstimatorSpec(kind="mry")
        for lam in (0.0, np.nan, -1.0):
            with pytest.raises(InvalidInputError) as info:
                mry_batch(problems, spec, None, [0.1, lam])
            assert info.value.class_id == 5
        other = mry(cs_from(random_spd(rng, 4), n=20), spec).state
        with pytest.raises(InvalidInputError) as info:
            mry_batch(problems, spec, [other, None])
        assert info.value.class_id == 2
        # a warm start is a solve's state, never a starting Omega
        with pytest.raises(InvalidInputError, match="ndarray") as info:
            mry_batch(problems, spec, [None, np.eye(3)])
        assert info.value.class_id == 5

    def test_problems_must_share_a_dimension(self):
        rng = np.random.default_rng(15)
        spec = PrecisionEstimatorSpec(kind="mry")
        with pytest.raises(InvalidInputError):
            mry_batch([cs_from(random_spd(rng, p)) for p in (2, 3)], spec)
        with pytest.raises(InvalidInputError):
            mry_batch([], spec)


@pytest.mark.parametrize("penalty", ["simple", "qda"])
def test_mry_matches_generic_convex_solver(penalty):
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(11)
    p, lam, gamma = 4, 0.15, 0.8
    s = random_spd(rng, p)
    mean = rng.normal(size=p)
    spec = PrecisionEstimatorSpec(kind="mry", mry_lambda=lam,
                                  mry_penalty=penalty, mry_gamma=gamma)
    out = mry(cs_from(s, n=20, mean=mean), spec)

    om = cvxpy.Variable((p, p), PSD=True)
    expr = om if penalty == "simple" else \
        np.column_stack([mean, gamma * np.eye(p)]).T @ om @ \
        np.column_stack([mean, gamma * np.eye(p)])
    m = expr.shape[0]
    mask = np.ones((m, m)) - np.eye(m)
    objective = cvxpy.trace(s @ om) - cvxpy.log_det(om) \
        + lam * cvxpy.sum(cvxpy.abs(cvxpy.multiply(mask, expr)))
    cvxpy.Problem(cvxpy.Minimize(objective)).solve(
        solver=cvxpy.SCS, eps=1e-9, max_iters=200_000)
    np.testing.assert_allclose(out.omega, om.value, atol=2e-5)


class TestEstimateDispatch:
    def test_sample_identity(self):
        out = estimate(cs_from(np.eye(3)),
                       PrecisionEstimatorSpec(kind="sample_inverse"))
        np.testing.assert_allclose(out.omega, np.eye(3))

    def test_haff_sample_size_error(self):
        with pytest.raises(SampleSizeError):
            estimate(cs_from(np.eye(3), n=5),
                     PrecisionEstimatorSpec(kind="haff"))

    def test_mry_saturation_through_dispatch(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = estimate(cs_from(s),
                       PrecisionEstimatorSpec(kind="mry", mry_lambda=0.6))
        np.testing.assert_allclose(out.omega, np.eye(2), atol=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            PrecisionEstimatorSpec(kind="ridge")

    @pytest.mark.parametrize("field, value", [
        ("admm_max_iters", 0), ("admm_max_iters", 10.0),
        ("admm_max_iters", True), ("admm_tol", 0.0), ("admm_tol", "1e-6"),
        ("admm_tol", float("nan")), ("mry_standardize_mean", 1),
        ("mry_lambda", 0.0), ("mry_gamma", -1.0), ("mry_penalty", "lasso"),
        ("bodnar_target", "zero"),
    ])
    def test_bad_setting_value_names_its_field(self, field, value):
        with pytest.raises(InvalidInputError, match=field) as info:
            PrecisionEstimatorSpec(**{"kind": "mry", "mry_penalty": "qda",
                                      field: value})
        assert info.value.field == field

    def test_numpy_setting_values_accepted(self):
        spec = PrecisionEstimatorSpec(kind="mry", admm_max_iters=np.int64(5),
                                      admm_tol=np.float64(1e-3))
        assert spec.admm_max_iters == 5

    @pytest.mark.parametrize("kind", ["sample_inverse", "haff", "wang",
                                      "bodnar", "mry"])
    def test_output_symmetric_and_spd(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = int(rng.integers(2, 7))
            n = p + 4 + int(rng.integers(0, 30))
            s = random_spd(rng, p)
            cs = cs_from(s, n=n, mean=rng.normal(size=p))
            spec = PrecisionEstimatorSpec(kind=kind, mry_lambda=0.1)
            try:
                out = estimate(cs, spec)
            except DegeneracyError:
                continue
            assert np.array_equal(out.omega, out.omega.T)
            assert np.linalg.eigvalsh(out.omega)[0] > 0
