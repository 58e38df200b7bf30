#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of toruscert on the pure kernel backend.

    python3 perfbench/run.py --workload certify-s4 --seed 1 --seconds 20 --trace 0

Runs from a source checkout: it imports ``src/toruscert`` directly.  One run
repeats whole rounds of the workload (every operation once) until
``--seconds`` have passed, at least one round, and checks the outputs.  With
``--trace 0`` it prints the end-to-end metrics, medians over the rounds; with
``--trace 1`` it wraps the package's public functions, prints per-layer self
times and counts per round and writes the spans to ``perfbench/out``.  The
last line of standard output is the JSON result.  The inputs are exhaustive
and fixed, so ``--seed`` is recorded but changes nothing.
"""
import time

STARTED = time.perf_counter()
# CPU used before this line: the interpreter's own start-up, which is almost
# all computation, stands in for its wall time
STARTUP_CPU = time.process_time()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ["certify-s4", "certify-wide-t", "sweep-general"]


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def kernel_backend():
    """The search kernel in use.  A package without the backend switch
    module runs the Python kernel, unless a compiled one is importable."""
    try:
        from toruscert.kernel import BACKEND
    except ImportError:
        return "pure" if importlib.util.find_spec("toruscert._kernel") is None else "unknown"
    return BACKEND


def run_rounds(workload, seconds):
    """Whole rounds until ``seconds`` have passed; per-round measurements."""
    rounds, walls, slowest, cpus = [], [], [], []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        own0, kids0 = cpu_seconds()
        outputs, op_times = [], []
        round_start = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            outputs.append(workload.run(op))
            op_times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - round_start
        own1, kids1 = cpu_seconds()
        rounds.append(outputs)
        walls.append(wall)
        slowest.append(max(op_times))
        cpus.append(own1 - own0 + kids1 - kids0)
    return rounds, walls, slowest, cpus


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "toruscert" / "__init__.py").is_file():
        print(f"no toruscert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["TORUSCERT_PURE"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import toruscert

    if Path(toruscert.__file__).resolve().parent != ROOT / "src" / "toruscert":
        print(f"imported toruscert from {toruscert.__file__}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))  # what `nproc` prints
    workload = workloads.make(args.workload, nproc)
    os.environ.update(workload.env)
    setup_s = STARTUP_CPU + time.perf_counter() - STARTED

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": kernel_backend(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
    problems = [] if facts["backend"] == "pure" else [f"backend is {facts['backend']}, not pure"]

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    kids_cpu0 = cpu_seconds()[1]
    rounds, walls, slowest, cpus = run_rounds(workload, args.seconds)
    kids_cpu = cpu_seconds()[1] - kids_cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()

    problems += workload.check(rounds)
    record = {**facts, "rounds": len(rounds), "round_walls_s": walls}
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "slowest_op_s": (statistics.median(slowest), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    else:
        layers, detail = spans.layer_metrics(
            tracer, len(rounds), statistics.median(walls), kids_cpu)
        calls = {name: 0 for name in tracer.wrapped}
        calls.update(detail["calls"])
        calls.update(tracer.counts)
        problems += workload.cross_check(rounds, calls)
        metrics = {k: (v, spans.LAYER_METRICS[k]) for k, v in layers.items()}
        tracer.write(OUT_DIR / f"{args.workload}.trace", record)
        record["layer_detail"] = detail

    result = {
        "correct": not problems,
        "attempted": len(workload.ops) * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w") as fh:
        json.dump({**record, "problems": problems, "result": result}, fh, indent=1)
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print("# " + json.dumps(facts))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
