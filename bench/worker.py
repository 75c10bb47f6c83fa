"""One measured run of one workload, in a fresh process.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

The first thing the process does is import toricmult, and that import is its
setup time. It then builds the seeded inputs, runs every item (traced or not),
checks the outputs after timing, and prints one JSON object on stdout.
Timed metrics are scaled by the run's speed factor (see calibrate.py); the
unscaled wall and CPU times are reported beside them.
bench/run.py starts it with src/ on PYTHONPATH.
"""

import time

_t0 = time.perf_counter()
import toricmult  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

# Every run of every workload has at least this many items, so that p90 has
# metrics.MIN_BEYOND samples beyond it.
MIN_ITEMS = 120
# The calibration kernel runs before the next item once this much time has
# passed since its last run.
KERNEL_EVERY_S = 0.1
# Kernel runs that calibrate the import time of a process.
SETUP_KERNELS = 20


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_s() -> float:
    """The import time, scaled by the speed of kernel runs right after it."""
    return SETUP_S * calibrate.speed([calibrate.kernel()[0] for _ in range(SETUP_KERNELS)])


def measure(name: str, seed: int, seconds: float, traced: bool, spans_path: str | None) -> dict:
    make_inputs, run, check, encode, rate = workloads.WORKLOADS[name]
    items = make_inputs(seed, max(MIN_ITEMS, round(rate * seconds)))

    trace = None
    if traced:
        import tracer

        trace = tracer.Tracer()
        tracer.install(trace)
        trace.on = True

    results, item_s, kernel_s, kernel_cpu_s = [], [], [], []
    last_kernel = float("-inf")
    cpu0 = _cpu_s()
    for item in items:
        if time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
            wall, cpu = calibrate.kernel()
            kernel_s.append(wall)
            kernel_cpu_s.append(cpu)
            last_kernel = time.perf_counter()
        t0 = time.perf_counter()
        try:
            results.append(run(item))
        except Exception as exc:  # a failing item is counted, not fatal
            results.append(exc)
        item_s.append(time.perf_counter() - t0)
    cpu_s = _cpu_s() - cpu0 - sum(kernel_cpu_s)
    speed = calibrate.speed(kernel_s)

    layers = None
    if trace is not None:
        trace.on = False
        layers = trace.layer_metrics()
        if spans_path:
            trace.write(spans_path)

    outputs, problems = [], []
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            outputs.append(["error", type(result).__name__, str(result)])
            problems.append(f"{type(result).__name__}: {result}")
            continue
        outputs.append(encode(result))
        found = check(item, result)
        if found:
            problems.append(found[0])

    return {
        "speed": speed,
        "raw_wall_s": sum(item_s),
        "raw_cpu_s": cpu_s,
        "wall_s": sum(item_s) * speed,
        "cpu_s": cpu_s * speed,
        "item_s": [s * speed for s in item_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(items),
        "failed": len(problems),
        "problems": problems[:5],
        "digest": metrics.digest(outputs),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(toricmult.__file__).resolve().parents:
        print(f"toricmult was imported from {toricmult.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s()}
    if not args.setup_only:
        out.update(measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
