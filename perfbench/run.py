"""The served-stack benchmark: one workload, one run, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-single --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload in turn

Each run builds nothing but the native kernel cache, writes the seeded
fig10-scale edge list, starts ``python -m repro.serve`` at its shipped
defaults (DW semantics, array backend) and drives it over HTTP from this
process.  ``--trace 0`` reports the end-to-end metrics of a plain server;
``--trace 1`` reports the per-layer metrics of a server started through
``perfbench/launcher.py`` (see ``layers.py``), next to an untraced leg
that gives the tracing overhead.  Every run checks read-your-writes on
each detect and replays the server's WAL offline at the end: the final
served detection must equal the replay exactly.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the environment fingerprint and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Phases, Run, build_native, emit, fingerprint, kernel_problems, replay_matches  # noqa: E402
from server import BUILD, SRC, child_env, stop_all  # noqa: E402
from workloads import DROPPED, WORKLOADS, EdgeStream, Workload  # noqa: E402

#: Fresh server starts per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #
def timed(workload: Workload, stream: EdgeStream, workdir: Path, seed: int, seconds: float,
          launcher_args: Optional[List[str]] = None) -> Tuple[Run, Dict[str, Tuple[float, str, int]]]:
    """Boot ``SETUP_REPEATS`` fresh servers; drive the last; stop it."""
    setups: List[float] = []
    requests, failures = 0, []
    for _ in range(SETUP_REPEATS):
        run = Run(workload, stream, workdir, seed)
        run.extra_requests, run.extra_failures = requests, failures
        setups.append(run.boot(launcher_args))
        if len(setups) < SETUP_REPEATS:
            run.stop()
            requests, failures = run.extra_requests, run.extra_failures
    run.traffic_phase(seconds)
    run.stop()
    print("setups " + " ".join(f"{value:.3f}s" for value in setups))
    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    metrics.update(run.end_to_end())
    return run, metrics


def run_workload(workload: Workload, args: argparse.Namespace) -> int:
    """One run of one workload; prints its result and returns the exit code."""
    workdir = BUILD / "runs" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        phases = Phases()
        build = build_native()
        stream = EdgeStream(args.seed)
        stream.write_edgelist(workdir / "graph.txt")
        phases.mark("build+inputs")
        if args.trace:
            from layers import traced

            return traced(workload, stream, workdir, args, build)
        launcher_args = None
        if args.inject:
            launcher_args = [f"--delay={spec}" for spec in args.inject]
        run, metrics = timed(workload, stream, workdir, args.seed, args.seconds, launcher_args)
        phases.mark("servers")
        problems = run.ryw_violations() + replay_matches(run)
        phases.mark("oracle")
        env = fingerprint(build, run.kernel)
        problems += kernel_problems(env)
        failed = len(run.failures)
        print(phases)
        for name, (value, unit, count) in run.generator().items():
            print(f"  {name:<34} {value:>14.4f} {unit:<6} n={count}")
        emit(not problems, (run.attempted, failed), metrics, env, workload, run.failures[:5] + problems)
        return 0 if not problems and not failed else 1
    finally:
        stop_all()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="LAYER=MS",
        help="self-test only: start the timed server through the launcher with a fixed "
        "delay before one call (peel or wal)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve").is_dir():
        print(f"no repro sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ["REPRO_NATIVE_CACHE"] = child_env()["REPRO_NATIVE_CACHE"]
    for name, reason in DROPPED.items():
        print(f"dropped workload {name}: {reason}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(WORKLOADS[name], args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
