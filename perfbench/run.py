"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-write-heavy --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are a human-readable report.  The exit code is 0
only when every output check passed.  ``--workload all`` runs each
workload in its own process (so peak RSS stays per workload) and sums
their results; its metric names are prefixed with the workload name.

The program is imported from ``src/`` of the checkout this file sits
in; without it the command exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-write-heavy", "sim-idle-trickle", "net-durable-mix")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    ``repro`` package really comes from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; returns its ``RunResult``."""
    from perfbench.common import run_episodes

    work_dir = ROOT / ".bench_work" / f"{workload}-{seed}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    try:
        if workload == "net-durable-mix":
            from perfbench.net import NET_MIX, net_episode

            def episode(seed, tracer):
                return net_episode(NET_MIX, seed, tracer, work_dir)
        else:
            from perfbench.sims import IDLE_TRICKLE, WRITE_HEAVY, sim_episode

            config = WRITE_HEAVY if workload == "sim-write-heavy" else IDLE_TRICKLE

            def episode(seed, tracer):
                return sim_episode(config, seed, tracer, work_dir)

        return run_episodes(episode, seed, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


def _report(workload: str, result, trace: bool) -> None:
    kind = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    rounds = sum(len(ep.round_s) for ep in result.episodes)
    print(
        f"== {workload}: {len(result.episodes)} episode(s), {rounds} timed "
        f"rounds, {kind}"
    )
    width = max(len(name) for name in result.metrics)
    for name, value in result.metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {result.units[name]}")
    share = result.failed / result.attempted
    print(f"  {'op_failure_share':<{width}}  {share:>14.6g} share "
          f"({result.failed} failed of {result.attempted} attempted)")
    for note in result.notes:
        print(f"  note: {note}")
    for failure in result.failures:
        print(f"  FAILED: {failure}")


def _final_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process; the last line sums them."""
    correct, attempted, failed = True, 0, 0
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return 1
        correct = correct and last["correct"] and child.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        for name, entry in last["metrics"].items():
            metrics[f"{workload}.{name}"] = entry["value"]
            units[f"{workload}.{name}"] = entry["unit"]
    print(_final_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, result, bool(args.trace))
    print(
        _final_line(
            result.correct, result.attempted, result.failed,
            result.metrics, result.units,
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
