"""Show how pruning pays off as instances grow.

Three quick experiments on seeded planted-community graphs:
  1. exhaustive vs pruned enumeration on a 20k-edge instance,
  2. pruned wall time as k rises (harder cores, fewer of them),
  3. cells visited as the window span doubles.

Takes about a second.  Usage: python3 demos/bench_pruning.py
"""

import math

from tkcore import generate_synthetic, run_otcd, run_tcd


def main():
    print("experiment 1: exhaustive vs pruned, 1000 vertices / 20000 edges / 100 steps, k=3")
    g = generate_synthetic(1000, 20000, 100, model="planted-community", seed=42)
    tcd = run_tcd(g, 3, (1, 100))
    otcd = min((run_otcd(g, 3, (1, 100)) for _ in range(3)), key=lambda c: c.stats.wall_ms)
    assert dict(tcd.cores) == dict(otcd.cores)
    for cat in (tcd, otcd):
        s = cat.stats
        print(f"  {s.algorithm:<5} visited {s.cells_visited:5d}/{s.cells_total} cells, "
              f"{s.distinct_cores} cores, {s.wall_ms:8.1f} ms")
    print(f"  pruning skipped {1 - otcd.stats.cells_visited / tcd.stats.cells_visited:.1%} "
          f"of the work ({tcd.stats.wall_ms / otcd.stats.wall_ms:.0f}x faster)\n")

    print("experiment 2: pruned wall time by k, 600 vertices / 9000 edges / 60 steps")
    g = generate_synthetic(600, 9000, 60, model="planted-community", seed=7)
    for k in range(2, 7):
        cat = min((run_otcd(g, k, (1, 60)) for _ in range(3)), key=lambda c: c.stats.wall_ms)
        print(f"  k={k}: {cat.stats.wall_ms:7.1f} ms, {cat.stats.distinct_cores:3d} cores, "
              f"{cat.stats.cells_visited:3d} cells visited")
    print("  higher k peels more aggressively, so the schedule table gets cheaper\n")

    print("experiment 3: cells visited by window span, 2800 vertices / 20000 edges, k=3")
    g = generate_synthetic(2800, 20000, 200, model="planted-community", seed=3)
    spans = (25, 50, 100, 200)
    visits = []
    for span in spans:
        cat = run_otcd(g, 3, (1, span))
        visits.append(cat.stats.cells_visited)
        print(f"  span {span:3d}: {cat.stats.cells_visited:4d} of "
              f"{cat.stats.cells_total:5d} cells")
    slope = (math.log(visits[-1]) - math.log(visits[0])) / (
        math.log(spans[-1]) - math.log(spans[0])
    )
    print(f"  doubling the span grows visits by ~{2 ** slope:.1f}x "
          f"(exponent {slope:.2f}), while the table itself grows 4x")


if __name__ == "__main__":
    main()
