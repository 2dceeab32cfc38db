#!/usr/bin/env python3
"""Time the single-monomial attribution DP across sizes and print scaling ratios.

The update count grows quadratically, so doubling the variable count should
roughly quadruple the runtime.  DP cells are averages of products of the
values, so values are kept near 1 to keep every cell a normal double (no
subnormal arithmetic, no underflow to zero) at every size.
"""
import argparse
import random
import time

from attrib import ValuePair, attribute_monomial


def time_once(n: int, repeats: int = 3) -> float:
    rng = random.Random(n)
    r = tuple(rng.uniform(0.997, 1.003) for _ in range(n))
    s = tuple(rng.uniform(0.997, 1.003) for _ in range(n))
    vp = ValuePair(r, s)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        attribute_monomial(1.0, range(1, n + 1), vp, n)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000, 4000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    time_once(args.sizes[0], 1)  # warm-up
    prev = None
    print(f"{'n':>6}  {'time (ms)':>12}  {'ratio':>6}")
    for n in args.sizes:
        t = time_once(n, args.repeats)
        ratio = f"{t / prev:.2f}" if prev else "-"
        print(f"{n:>6}  {t * 1e3:>12.2f}  {ratio:>6}")
        prev = t


if __name__ == "__main__":
    main()
