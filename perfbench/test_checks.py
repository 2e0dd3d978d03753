"""Self-tests of the benchmark's checks: each rejects a case built to fail
and accepts a valid one.

    python3 -m pytest -q perfbench
"""

import math

import numpy as np
from scipy.stats import norm

import checks
import tracing
from workloads import CV_CLASS_SIZES, CV_P, write_cv_csv

FULL = checks.FULL


def _glasso_solution(lam=0.2):
    """(S, Omega, lam) meeting the graphical-lasso conditions exactly.

    Take a sparse SPD Omega and W = Omega^-1, then S = W - lam * G with G
    zero on the diagonal, sign(Omega) where Omega is nonzero and inside
    (-1, 1) where it is zero.
    """
    p = 5
    omega = 2.0 * np.eye(p)
    for i in range(p - 1):
        omega[i, i + 1] = omega[i + 1, i] = -0.6 if i % 2 else 0.5
    g = np.sign(omega)
    zero = omega == 0.0
    g[zero] = 0.5 * np.cos(np.add.outer(np.arange(p), np.arange(p)))[zero]
    np.fill_diagonal(g, 0.0)
    return np.linalg.inv(omega) - lam * g, omega, lam


def test_glasso_accepts_exact_solution():
    s, omega, lam = _glasso_solution()
    tol = checks.glasso_tolerance(1e-6, omega)
    assert max(checks.glasso_violations(s, omega, lam)) < 1e-12 < tol


def test_glasso_rejects_perturbed_omega():
    s, omega, lam = _glasso_solution()
    tol = checks.glasso_tolerance(1e-6, omega)
    for i, j, delta in [(0, 1, 1e-3), (0, 3, 1e-3), (2, 2, 1e-3)]:
        bad = omega.copy()
        bad[i, j] += delta
        bad[j, i] = bad[i, j]
        assert max(checks.glasso_violations(s, bad, lam)) > tol


def test_glasso_rejects_wrong_lambda():
    s, omega, lam = _glasso_solution()
    tol = checks.glasso_tolerance(1e-6, omega)
    assert max(checks.glasso_violations(s, omega, 0.9 * lam)) > tol


def _units(p=8, n=3):
    rng = np.random.default_rng(0)
    units = []
    for _ in range(n):
        full = float(rng.uniform(0.05, 0.2))
        unit = {FULL: full, ("ssdr_mry", p): full}
        unit.update({("ssdr_mry", r): float(rng.uniform(0.1, 0.4))
                     for r in range(1, p)})
        units.append(unit)
    return units


def test_full_dimension_accepts_equal_rates():
    assert checks.check_full_dimension(_units(), ["ssdr_mry"], 8) == []


def test_full_dimension_rejects_offset_rate():
    units = _units()
    units[1][("ssdr_mry", 8)] += 1e-9
    assert len(checks.check_full_dimension(units, ["ssdr_mry"], 8)) == 1


def test_agreement():
    units = _units()
    assert checks.check_agreement(units, [dict(u) for u in units], "t") == []
    other = [dict(u) for u in units]
    other[2][("ssdr_mry", 3)] = math.nextafter(other[2][("ssdr_mry", 3)], 1)
    assert len(checks.check_agreement(units, other, "t")) == 1
    other[2][("ssdr_mry", 3)] = None
    assert len(checks.check_agreement(units, other, "t")) == 1


def _report(units):
    cells = []
    for key in units[0]:
        vals = [u[key] for u in units]
        cells.append({"method": key[0], "r": key[1],
                      "rates": [v for v in vals if v is not None],
                      "failures": sum(v is None for v in vals)})
    return {"cells": cells}


def test_report_matches_units():
    units = _units()
    units[0][("ssdr_mry", 2)] = None
    report = _report(units)
    assert checks.check_report(report, units) == []
    report["cells"][3]["rates"].reverse()
    assert len(checks.check_report(report, units)) == 1


def test_ordering():
    medians = checks.medians_of(_report(_units()))
    assert checks.check_ordering(medians, "ssdr_mry") == []
    medians[FULL] = 0.01
    assert len(checks.check_ordering(medians, "ssdr_mry")) == 1


def test_bayes_error_matches_config1_closed_form():
    # config 1: N(0, I) against N(1, I), p = 10, equal priors: the Bayes
    # error is Phi(-Delta / 2) with Mahalanobis distance Delta = sqrt(10)
    p = 10
    exact = norm.cdf(-math.sqrt(p) / 2.0)
    assert abs(exact - 0.0569) < 1e-4
    means = [np.zeros(p), np.ones(p)]
    covs = [np.eye(p), np.eye(p)]
    est, se = checks.bayes_error(means, covs, [0.5, 0.5])
    assert abs(est - exact) < checks.Z_MARGIN * se
    # the comparison has power: half the mean shift is far outside
    off, _ = checks.bayes_error([np.zeros(p), 0.5 * np.ones(p)], covs,
                                [0.5, 0.5])
    assert abs(off - exact) > 10 * checks.Z_MARGIN * se


def test_bayes_bound():
    bayes, margin = 0.0569, checks.bayes_margin(0.0569, 5e-4, 9898)
    good = {FULL: 0.2, ("ssdr_mry", 1): bayes - 0.5 * margin}
    assert checks.check_bayes_bound(good, bayes, margin) == []
    bad = {FULL: 0.2, ("ssdr_mry", 1): bayes - 1.5 * margin}
    assert len(checks.check_bayes_bound(bad, bayes, margin)) == 1


def test_cv_csv_is_seeded(tmp_path):
    a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
    write_cv_csv(a, 5)
    write_cv_csv(b, 5)
    write_cv_csv(c, 6)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + sum(CV_CLASS_SIZES)
    assert len(lines[1].split(",")) == CV_P + 1


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("qda.scores", lambda: None)
    outer = tracer.wrap("qda.fit", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.spans
    assert [sp[tracing.PARENT] for sp in spans] == [-1, 0, 0, 0]
    m = tracing.layer_metrics(spans, units=1)
    child = sum(sp[tracing.END] - sp[tracing.START] for sp in spans[1:])
    outer_s = spans[0][tracing.END] - spans[0][tracing.START]
    assert m["qda.fit.calls"] == 1 and m["qda.scores.calls"] == 3
    assert math.isclose(m["qda.fit.self_s"], outer_s - child)
