"""Output checks of the benchmark.

Every check compares the program's output with a quantity computed here,
apart from the program, or with a property the method must have; none
compares with a stored copy of earlier output. Each checker returns a list
of messages, empty when the output passes.

Per-unit results are dicts mapping (method, r) to an error rate, or to None
for a missing cell; r is None for the full-feature baseline "qda_full".
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import multivariate_normal

FULL = ("qda_full", None)

# Sampling margins are this many standard errors wide.
Z_MARGIN = 4.0
# Decisions at r = p must match the full-feature fit to this absolute tolerance.
FULL_DIM_TOL = 1e-10


def bayes_error(means, covs, priors, n_per_class: int = 100_000,
                seed: int = 0) -> tuple[float, float]:
    """Monte Carlo Bayes error of a Gaussian mixture, with its standard error.

    Draws n_per_class rows from every class and classifies them with the
    exact Bayes rule argmax_j log pi_j + log N(x; mu_j, Sigma_j).
    """
    priors = np.asarray(priors, dtype=float)
    dists = [multivariate_normal(np.asarray(m, dtype=float), c)
             for m, c in zip(means, covs)]
    rng = np.random.default_rng(seed)
    err = var = 0.0
    for k, (mean, cov) in enumerate(zip(means, covs)):
        chol = np.linalg.cholesky(cov)
        x = np.asarray(mean) + rng.standard_normal(
            (n_per_class, len(mean))) @ chol.T
        logpost = np.column_stack([
            math.log(pi) + d.logpdf(x) for pi, d in zip(priors, dists)])
        miss = float(np.mean(np.argmax(logpost, axis=1) != k))
        err += priors[k] * miss
        var += priors[k] ** 2 * miss * (1.0 - miss) / n_per_class
    return err, math.sqrt(var)


def bayes_margin(bayes: float, bayes_se: float, test_rows: int) -> float:
    """How far an empirical error rate may fall below the Bayes error.

    One unit's rate is a proportion over test_rows rows, so its sampling
    standard error is sqrt(B (1 - B) / test_rows); the Monte Carlo error of
    B itself is added.
    """
    return Z_MARGIN * (math.sqrt(bayes * (1.0 - bayes) / test_rows) + bayes_se)


def check_bayes_bound(medians: dict, bayes: float, margin: float) -> list[str]:
    """No cell's median error rate may fall below the Bayes error - margin."""
    floor = bayes - margin
    return [f"median error {med:.5f} of cell {key} is below the Bayes error "
            f"{bayes:.5f} minus margin {margin:.5f}"
            for key, med in medians.items() if med < floor]


def check_full_dimension(units: list[dict], methods, p: int) -> list[str]:
    """At r = p every swept pipeline reproduces qda_full on every unit."""
    out = []
    for j, unit in enumerate(units):
        full = unit.get(FULL)
        for method in methods:
            rate = unit.get((method, p))
            if full is None or rate is None:
                continue  # a failed cell is counted as a failed unit
            if abs(rate - full) > FULL_DIM_TOL:
                out.append(f"unit {j}: {method} at r={p} gives {rate!r}, "
                           f"qda_full gives {full!r}")
    return out


def check_ordering(medians: dict, method: str) -> list[str]:
    """The best-over-r median of method beats the qda_full median."""
    swept = [med for (m, r), med in medians.items() if m == method and r]
    if FULL not in medians or not swept:
        return [f"ordering: no medians for {method} or qda_full"]
    if min(swept) < medians[FULL]:
        return []
    return [f"ordering: best {method} median {min(swept):.5f} does not beat "
            f"qda_full median {medians[FULL]:.5f}"]


def check_agreement(units_a: list[dict], units_b: list[dict],
                    what: str) -> list[str]:
    """Per-unit results must be identical, bit for bit."""
    if len(units_a) != len(units_b):
        return [f"{what}: {len(units_a)} units against {len(units_b)}"]
    return [f"{what}: unit {j} differs"
            for j, (a, b) in enumerate(zip(units_a, units_b)) if a != b]


def check_report(report: dict, units: list[dict]) -> list[str]:
    """The written report holds exactly the per-unit results, in unit order."""
    cells = {(c["method"], c["r"]): c for c in report["cells"]}
    keys = set().union(*units) if units else set()
    if set(cells) != keys:
        return [f"report cells {sorted(map(str, cells))} differ from the "
                f"per-unit cells {sorted(map(str, keys))}"]
    out = []
    for key, cell in cells.items():
        vals = [u.get(key) for u in units]
        rates = [v for v in vals if v is not None]
        if cell["rates"] != rates or cell["failures"] != len(vals) - len(rates):
            out.append(f"report cell {key} does not match its units")
    return out


def medians_of(report: dict) -> dict:
    return {(c["method"], c["r"]): float(np.median(c["rates"]))
            for c in report["cells"] if c["rates"]}


def glasso_violations(s, omega, lam: float) -> tuple[float, float, float]:
    """Violations of the graphical-lasso optimality conditions.

    For min tr(S Omega) - log|Omega| + lam * sum_{i != j} |omega_ij| the
    solution satisfies, with W = Omega^-1 and D = W - S:
    diag(D) = 0; |D_ij| <= lam off the diagonal; D_ij = lam * sign(omega_ij)
    wherever omega_ij != 0 off the diagonal. Returns the largest violation
    of each condition, in that order.
    """
    s = np.asarray(s, dtype=float)
    omega = np.asarray(omega, dtype=float)
    d = np.linalg.inv(omega) - s
    off = ~np.eye(len(s), dtype=bool)
    nonzero = off & (omega != 0.0)
    diag = float(np.max(np.abs(np.diag(d))))
    bound = float(np.max(np.abs(d[off]) - lam, initial=0.0))
    sign = float(np.max(np.abs(d - lam * np.sign(omega))[nonzero],
                        initial=0.0))
    return diag, max(bound, 0.0), sign


def glasso_tolerance(admm_tol: float, omega) -> float:
    """Tolerance on the optimality conditions for an ADMM solve at admm_tol.

    ADMM stops once the primal and dual residuals fall below admm_tol. The
    returned iterate then differs from an exact stationary point by about
    admm_tol, and inverting it scales that error by up to ||W||_2^2.
    """
    w_norm = 1.0 / float(np.linalg.eigvalsh(np.asarray(omega))[0])
    return 10.0 * admm_tol * max(1.0, w_norm) ** 2
