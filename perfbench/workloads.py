"""The three benchmark workloads: what each runs and how its inputs are made.

A workload is a whole ``ssdr`` study run through the CLI. One invocation of
the CLI is one round; a run repeats rounds, and every round of a run gets
its own master seed (and, for the CV workload, its own generated CSV), all
derived from the run's ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Config 4 of ``ssdr.experiments.simulation_config``: two classes, p = 50,
# N(0, I) against N(mu2, I + 2 * 11'), mu2 drawn from the master seed and
# published in the report metadata as "means".
CONFIG4_P = 50


def config4_covs() -> list[np.ndarray]:
    p = CONFIG4_P
    return [np.eye(p), np.eye(p) + 2.0 * np.ones((p, p))]


# Penguins-like generator for the CV workload: three Gaussian classes of
# unequal size (the Palmer Penguins complete-case counts), p = 8.
CV_P = 8
CV_CLASS_SIZES = (146, 68, 119)
CV_CLASS_NAMES = ("adelie", "chinstrap", "gentoo")


def cv_means() -> list[np.ndarray]:
    z = np.zeros(CV_P)
    m1 = z.copy()
    m1[:2] = (2.5, 1.5)
    m2 = z.copy()
    m2[2:4] = (2.5, -1.5)
    return [z, m1, m2]


def cv_covs() -> list[np.ndarray]:
    idx = np.arange(CV_P)
    ar1 = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    return [ar1, 1.5 * np.eye(CV_P), 0.7 * np.eye(CV_P) + 0.3]


def cv_priors() -> np.ndarray:
    sizes = np.asarray(CV_CLASS_SIZES, dtype=float)
    return sizes / sizes.sum()


def write_cv_csv(path: Path, seed) -> None:
    """Write the generated dataset, rows shuffled, label in the last column."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for name, mean, cov, n in zip(CV_CLASS_NAMES, cv_means(), cv_covs(),
                                  CV_CLASS_SIZES):
        chol = np.linalg.cholesky(cov)
        feats.append(mean + rng.standard_normal((n, CV_P)) @ chol.T)
        labels += [name] * n
    x = np.vstack(feats)
    order = rng.permutation(len(labels))
    header = [f"x{j}" for j in range(CV_P)] + ["species"]
    lines = [",".join(header)]
    for i in order:
        lines.append(",".join(repr(float(v)) for v in x[i]) + "," + labels[i])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def round_seed(run_seed: int, round_index: int) -> int:
    """Master seed of one round, derived from the run seed."""
    ss = np.random.SeedSequence([run_seed % 2**64, round_index])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "simulate" or "cv"
    units: int            # replicates or repeats per invocation
    threads: int          # --threads of the timed invocation
    pipelines: tuple = () # simulate: pipelines of the config file
    n_policy: str = ""    # simulate: n_i policy
    swept_full_dim: int | None = None  # r = p when the sweep reaches it
    mry_ordering: str | None = None    # pipeline that must beat qda_full

    def cli_args(self, work: Path, tag: str, seed: int, threads: int
                 ) -> list[str]:
        """CLI arguments of one invocation; writes its input file to work."""
        if self.command == "simulate":
            cfg = work / f"{tag}_config.json"
            cfg.write_text(json.dumps({
                "schema_version": 1,
                "config_id": 4,
                "n_policy": self.n_policy,
                "pipelines": list(self.pipelines),
            }), encoding="utf-8")
            return ["simulate", "--config", str(cfg),
                    "--replicates", str(self.units), "--seed", str(seed),
                    "--threads", str(threads), "--name", tag,
                    "--out-dir", str(work)]
        data = work / f"{tag}.csv"
        write_cv_csv(data, seed)
        return ["cv", "--data", str(data), "--estimator", "mry",
                "--mry-penalty", "simple", "--standardize", "--jitter", "1e-5",
                "--folds", "10", "--inner-folds", "5",
                "--repeats", str(self.units), "--seed", str(seed),
                "--threads", str(threads), "--name", tag,
                "--out-dir", str(work)]

    def population(self, metadata: dict):
        """(means, covs, priors) of the distribution the test rows come from."""
        if self.command == "simulate":
            # equal pool sizes, so equal test-class priors
            return ([np.asarray(m) for m in metadata["means"]],
                    config4_covs(), np.array([0.5, 0.5]))
        return cv_means(), cv_covs(), cv_priors()

    def test_rows(self, metadata: dict) -> int:
        """Rows behind one unit's error rate."""
        if self.command == "simulate":
            return metadata["k"] * (metadata["pool_size"] - metadata["n_i"])
        return metadata["n"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mc_mry_tuned", command="simulate", units=2, threads=2,
            n_policy="p+1",
            pipelines=({"name": "ssdr_mry", "estimator": "mry",
                        "penalty": "qda", "gamma": 1.0,
                        "dims": list(range(1, 11))},),
            mry_ordering="ssdr_mry",
        ),
        Workload(
            name="mc_shrinkage_sweep", command="simulate", units=1, threads=1,
            n_policy="2p",
            pipelines=tuple({"name": f"ssdr_{kind}", "estimator": kind}
                            for kind in ("sample_inverse", "haff", "wang",
                                         "bodnar")),
            swept_full_dim=CONFIG4_P,
        ),
        Workload(
            name="cv_mry_small_p", command="cv", units=1, threads=1,
            swept_full_dim=CV_P,
        ),
    )
}
