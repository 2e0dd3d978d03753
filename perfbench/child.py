"""One ``ssdr`` CLI invocation, run in its own process by ``run.py``.

    python3 perfbench/child.py SIDECAR [--trace] -- <ssdr arguments>

Run from the checkout root with ``src`` on PYTHONPATH. Notes the moment the
CLI is imported and ready (the end of set-up), captures the per-unit results
that ``experiments._parallel_map`` returns, runs the CLI and writes a JSON
sidecar with the ready time, the CLI's exit code and the per-unit results.
With --trace the layers are wrapped in timing spans first, and the sidecar
also holds the spans and the optimality violations of every final
simple-penalty MRY fit. Exits with the CLI's exit code.
"""

import json
import resource
import sys
import time
from pathlib import Path

from ssdr import cli, experiments

READY = time.monotonic()


def peak_rss_kb() -> int:
    """Peak resident set of this process or of any pool worker it reaped.

    Not ru_maxrss of this process: exec carries the spawning process's peak
    into it. VmHWM covers this process's own address space only.
    """
    status = Path("/proc/self/status").read_text(encoding="ascii")
    own = next(int(line.split()[1]) for line in status.splitlines()
               if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    sidecar = Path(sys.argv[1])
    traced = sys.argv[2] == "--trace"
    argv = sys.argv[sys.argv.index("--") + 1:]

    src = Path("src").resolve()
    if Path(experiments.__file__).resolve().parent.parent != src:
        print(f"ssdr was imported from {experiments.__file__}, not {src}",
              file=sys.stderr)
        return 3

    captured = []
    parallel_map = experiments._parallel_map

    def capture(fn, items, threads):
        results = parallel_map(fn, items, threads)
        captured.extend(results)
        return results

    experiments._parallel_map = capture
    out = {"ready": READY}
    if traced:
        import checks
        import tracing

        tracer, fits = tracing.Tracer(), []
        tracing.install(tracer, fits)
    rc = cli.main(argv)
    out["rc"] = rc
    out["units"] = [[[m, r, v] for (m, r), v in res.items()] for res in captured]
    if traced:
        out["spans"] = tracer.spans
        out["mry_fits"] = [
            [*checks.glasso_violations(s, omega, lam),
             checks.glasso_tolerance(tol, omega)]
            for s, omega, lam, tol in fits
        ]
    out["peak_rss_kb"] = peak_rss_kb()
    sidecar.write_text(json.dumps(out), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
