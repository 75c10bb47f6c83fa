"""The toricmult benchmark: three seeded workloads, end to end and per layer.

    python3 bench/run.py --workload search|plane2d|solid3d|all --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the package under src/.

Each measured run is a fresh bench/worker.py process with no threads, so it
pays what a CLI user pays, module-level caches starting empty included. The
work of a run is fixed by the workload, the seed and --seconds (a run of the
seed code lasts about --seconds), so two commits run identical items.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s of the item loop,
item_ms.p50 and item_ms.p90 over its items, peak_rss_mb of the process, and
setup_s, the median import time of toricmult over SETUP_PROBES fresh
processes and the measured one. fail_frac is printed on the summary line,
and the result carries it as failed / attempted.

Times are calibrated: each is multiplied by the speed factor of the process
that measured it (see calibrate.py), which cancels most of the drift of a
shared machine. The summary line shows the factor and the unscaled times.

--trace 1 runs the same items once untraced and once with spans around each
layer's public functions. It checks that both give the same output digest
and that every layer predicted to work on the workload (predictions.json)
recorded work, and prints the per-layer metrics, among them
trace.overhead_ratio = traced wall_s / untraced wall_s. The spans are
written to bench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A run whose worker cannot start, for example without
src/toricmult, prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search", "plane2d", "solid3d")
SETUP_PROBES = 6
DEADLINE_S = 170

# Unit of each metric, by the last part of its name.
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "p50": "ms",
    "p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "self_s": "s",
    "yield_ratio": "ratio",
    "box_rounds": "ratio",
    "overhead_ratio": "ratio",
}


class WorkerFailed(Exception):
    pass


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def worker(args: list[str], deadline: float) -> dict:
    """Run bench/worker.py in a fresh process and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def missing_work(workload: str, layers: dict[str, float]) -> list[str]:
    """Metrics predicted to move on this workload that recorded no work."""
    spec = json.loads((BENCH / "predictions.json").read_text())
    return [
        m
        for row in spec["predictions"]
        if workload in row["workloads"]
        for m in row["metrics"]
        if m not in spec["may_be_zero"] and not layers[m]
    ]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict[str, float], list[str]]:
    """One run: (the measured worker's report, metric values, problems found)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if not trace:
        worker(["--setup-only"], deadline)  # writes bytecode; not counted
        setups = [worker(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = worker(common + ["--trace", "0"], deadline)
        p50, p90 = metrics.percentiles([s * 1000 for s in run["item_s"]])
        if p90 is None:
            raise WorkerFailed(f"{len(run['item_s'])} items leave too few beyond p90")
        values = {
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "item_ms.p50": p50,
            "item_ms.p90": p90,
            "setup_s": statistics.median(setups + [run["setup_s"]]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        return run, values, run["problems"]

    plain = worker(common + ["--trace", "0"], deadline)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-{seed}.json.gz"
    run = worker(common + ["--trace", "1", "--spans", str(spans)], deadline)
    values = dict(run["layers"])
    values["trace.overhead_ratio"] = run["wall_s"] / plain["wall_s"]
    problems = plain["problems"] + run["problems"]
    if run["digest"] != plain["digest"]:
        problems.append(f"traced digest {run['digest']} differs from untraced {plain['digest']}")
    problems += [f"no work recorded for {m}" for m in missing_work(workload, values)]
    return run, values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    correct, attempted, failed, result = True, 0, 0, {}
    for name in names:
        try:
            run, values, problems = measure(name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        correct = correct and not problems
        attempted += run["attempted"]
        failed += run["failed"]
        print(
            f"{name} seed={args.seed} trace={args.trace}: {run['attempted']} items, "
            f"fail_frac={run['failed'] / run['attempted']:.4g}, digest={run['digest']}"
        )
        print(
            f"  speed factor {run['speed']:.4f}; unscaled wall_s {run['raw_wall_s']:.4f} s, "
            f"cpu_s {run['raw_cpu_s']:.4f} s"
        )
        for problem in problems:
            print(f"  problem: {problem}")
        for metric, value in values.items():
            print(f"  {metric} = {value:.6g} {unit(metric)}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result[key] = {"value": value, "unit": unit(metric)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
