#!/usr/bin/env python3
"""Run every identity suite on the built-in universes and print timings.

Usage: python scripts/run_identity_checks.py [--max-dim N] [--seed S]
"""

import argparse
import sys
import time

from prismal.verify import SUITES, run_suite


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    total = failures = 0
    t0 = time.perf_counter()
    for name in SUITES:
        t = time.perf_counter()
        reports = run_suite(name, args.max_dim, args.seed)
        bad = [r for r in reports if not r.passed]
        total += len(reports)
        failures += len(bad)
        print(f"{name:10s} {len(reports):5d} cases  "
              f"{len(bad):3d} failures  {time.perf_counter() - t:6.2f}s")
        for r in bad[:3]:
            print(f"    {r.identity} [{r.case}] -> {r.residual}")
    print(f"{'total':10s} {total:5d} cases  {failures:3d} failures  "
          f"{time.perf_counter() - t0:6.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
