#!/usr/bin/env python3
"""Benchmark: compiled search kernel vs the pure-Python fallback.

Times the hot enumeration workloads on both backends and prints a table.
Run from the repository root after installing the package:

    python3 benchmarks/bench_kernel.py [--quick]
"""
import argparse
import time

from toruscert import _kernel_py

try:
    from toruscert import _kernel as _compiled
except ImportError:
    _compiled = None


WORKLOADS = [
    ("triangles s=3", dict(degrees=(6, 6, 6), triangles_only=True), False),
    ("triangles s=4", dict(degrees=(6, 6, 6, 6), triangles_only=True), False),
    ("general (6,6,4)", dict(degrees=(6, 6, 4), triangles_only=False), False),
    ("general (6,6,6)", dict(degrees=(6, 6, 6), triangles_only=False), True),
]


def run(module, kwargs):
    t0 = time.perf_counter()
    result = module.search_matchings(**kwargs)
    return time.perf_counter() - t0, len(result)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--quick", action="store_true", help="skip the slow pure-Python workloads"
    )
    args = parser.parse_args()

    print(f"{'workload':<18} {'classes':>7} {'compiled':>10} {'pure':>10} {'speedup':>8}")
    for name, kwargs, heavy in WORKLOADS:
        if _compiled is not None:
            fast_t, n = run(_compiled, kwargs)
            fast = f"{fast_t:.3f}s"
        else:
            fast_t, n, fast = None, None, "n/a"
        if heavy and args.quick:
            pure = "skipped"
            ratio = ""
        else:
            pure_t, n2 = run(_kernel_py, kwargs)
            pure = f"{pure_t:.3f}s"
            if n is None:
                n = n2
            elif n2 != n:
                raise AssertionError(f"{name}: backends disagree ({n} vs {n2})")
            ratio = f"{pure_t / fast_t:.0f}x" if fast_t else ""
        print(f"{name:<18} {n:>7} {fast:>10} {pure:>10} {ratio:>8}")
    if _compiled is None:
        print("compiled kernel not built; install with a C toolchain to compare")


if __name__ == "__main__":
    main()
