"""Study benchmark for ssdr: whole CLI studies, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``ssdr`` is imported from its ``src``.
Workloads are defined in workloads.py. A run repeats rounds, one CLI
invocation each in its own process, until the next round would end after S
seconds (at least one round). Every invocation's report goes through the
output checks in checks.py. The last line of stdout is one JSON object with
"correct", "attempted", "failed" (work units) and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

A traced round runs the workload's timed invocation, the same study untraced
with one thread when the timed one uses more, and the study traced in one
process with one thread. The traced per-unit results must equal the timed
ones; the traced study time against the untraced single-thread one gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# pin BLAS before numpy loads, here and in every child
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, round_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# Every run ends within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 160.0


@dataclass
class Invocation:
    tag: str
    units_attempted: int
    wall: float = 0.0
    setup: float = 0.0
    cpu: float = 0.0
    rc: int | None = None
    units: list | None = None      # per-unit result dicts, None if no result
    report: dict | None = None
    sidecar: dict = field(default_factory=dict)

    @property
    def study(self) -> float:
        return self.wall - self.setup

    @property
    def failed(self) -> int:
        if self.units is None or len(self.units) != self.units_attempted:
            return self.units_attempted
        return sum(any(v is None for v in u.values()) for u in self.units)


class Bench:
    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = HERE / "_out" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {**os.environ, **BLAS_ENV,
                    "PYTHONPATH": str(root / "src")}
        self.env.pop("SSDR_THREADS", None)
        self.started = time.monotonic()
        self.problems: list[str] = []
        self._bayes = {}

    def spawn(self, tag: str, seed: int, threads: int,
              traced: bool = False) -> Invocation:
        inv = Invocation(tag=tag, units_attempted=self.workload.units)
        args = self.workload.cli_args(self.work, tag, seed, threads)
        sidecar = self.work / f"{tag}_child.json"
        cmd = [sys.executable, str(CHILD), str(sidecar),
               "--trace" if traced else "--untraced", "--", *args]
        with open(self.work / f"{tag}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            left = RUN_DEADLINE_S - (t0 - self.started)
            killer = threading.Timer(max(left, 0.0), os.killpg,
                                     (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            inv.wall = time.monotonic() - t0
        proc.returncode = inv.rc = os.waitstatus_to_exitcode(status)
        inv.cpu = ru.ru_utime + ru.ru_stime
        if inv.rc in (0, 2) and sidecar.is_file():
            inv.sidecar = json.loads(sidecar.read_text(encoding="utf-8"))
            inv.setup = inv.sidecar["ready"] - t0
            inv.units = [{(m, r): v for m, r, v in unit}
                         for unit in inv.sidecar["units"]]
            inv.report = json.loads((self.work / f"{tag}_report.json")
                                    .read_text(encoding="utf-8"))
            self.check(inv)
        # a failed invocation is a failed operation, not a wrong output
        print(f"{tag}: exit code {inv.rc} units {inv.units_attempted} "
              f"failed {inv.failed} setup {inv.setup:.4f} s "
              f"study {inv.study:.4f} s cpu {inv.cpu:.4f} s", file=sys.stderr)
        return inv

    def rounds(self, seconds: float, one_round) -> list:
        """Run rounds until the next one would end after `seconds`."""
        out = []
        start = time.monotonic()
        while True:
            out.append(one_round(len(out), round_seed(self.seed, len(out))))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(out) > seconds:
                return out

    def bayes(self, inv: Invocation) -> tuple[float, float]:
        means, covs, priors = self.workload.population(inv.report["metadata"])
        key = tuple(m.tobytes() for m in means)
        if key not in self._bayes:
            self._bayes[key] = checks.bayes_error(means, covs, priors)
        return self._bayes[key]

    def check(self, inv: Invocation) -> None:
        wl, report, units = self.workload, inv.report, inv.units
        problems = checks.check_report(report, units)
        medians = checks.medians_of(report)
        bayes, bayes_se = self.bayes(inv)
        margin = checks.bayes_margin(bayes, bayes_se,
                                     wl.test_rows(report["metadata"]))
        problems += checks.check_bayes_bound(medians, bayes, margin)
        if wl.swept_full_dim:
            problems += checks.check_full_dimension(
                units, report["metadata"]["pipelines"], wl.swept_full_dim)
        if wl.mry_ordering:
            problems += checks.check_ordering(medians, wl.mry_ordering)
        self.problems += [f"{inv.tag}: {msg}" for msg in problems]


def timed_run(bench: Bench, seconds: float) -> tuple[list, dict]:
    wl = bench.workload
    invs = bench.rounds(seconds, lambda i, seed: bench.spawn(
        f"r{i}", seed, wl.threads))
    ok = [inv for inv in invs if inv.units is not None]
    attempted = sum(inv.units_attempted for inv in invs)
    done = attempted - sum(inv.failed for inv in invs)
    # Throughput pools all rounds: the machine's speed drifts in phases of
    # seconds, which a sum over the run averages better than a median of
    # rounds. Set-up is one short cold start per round, so its median.
    metrics = {
        "setup_s": (statistics.median(inv.setup for inv in ok), "s"),
        "units_per_s": (done / sum(inv.study for inv in invs), "1/s"),
        "cpu_s_per_unit": (sum(inv.cpu for inv in invs) / attempted, "s"),
        "peak_rss_mb": (max(inv.sidecar["peak_rss_kb"] for inv in ok) / 1024.0,
                        "MB"),
    }
    return invs, metrics


def traced_run(bench: Bench, seconds: float) -> tuple[list, dict]:
    wl = bench.workload
    spans, traced, base_s, traced_s = [], [], 0.0, 0.0

    def one_round(i, seed):
        nonlocal base_s, traced_s
        timed = bench.spawn(f"r{i}", seed, wl.threads)
        base = timed if wl.threads == 1 else bench.spawn(f"r{i}_t1", seed, 1)
        tr = bench.spawn(f"r{i}_trace", seed, 1, traced=True)
        for other in [timed] if base is timed else [timed, base]:
            what = f"{tr.tag} against {other.tag} (thread-count agreement)"
            if (tr.units is None) != (other.units is None):
                bench.problems.append(f"{what}: only one produced results")
            elif tr.units is not None:
                bench.problems += checks.check_agreement(
                    tr.units, other.units, what)
        for violation in tr.sidecar.get("mry_fits", []):
            *vals, tol = violation
            if max(vals) > tol:
                bench.problems.append(
                    f"{tr.tag}: MRY fit violates optimality by "
                    f"{max(vals):.3e} > {tol:.3e}")
        base_s += base.study
        traced_s += tr.study
        offset = len(spans)
        for sp in tr.sidecar.get("spans", []):
            if sp[tracing.PARENT] >= 0:
                sp[tracing.PARENT] += offset
            spans.append(sp)
        traced.append(tr)
        return tr

    bench.rounds(seconds, one_round)
    units = sum(inv.units_attempted for inv in traced)
    values = tracing.layer_metrics(spans, units)
    values["trace.overhead_ratio"] = traced_s / base_s - 1.0
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ssdr" / "cli.py").is_file():
        print(f"error: no ssdr sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    run = traced_run if args.trace else timed_run
    invs, metrics = run(bench, args.seconds)
    for msg in bench.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": sum(inv.units_attempted for inv in invs),
        "failed": sum(inv.failed for inv in invs),
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
