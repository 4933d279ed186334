"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. The checker flags a deliberately corrupted table entry as a failure.
2. In a traced pass, the self times of all layers (exact arithmetic and the
   benchmark's own spans included) sum to the traced wall time within
   ``COVERAGE_TOLERANCE``.

``run.py`` runs the first test before every run's passes and the second on
every traced pass; a failure makes the run's result incorrect.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

COVERAGE_TOLERANCE = 0.01


def corrupted_table_is_flagged() -> bool:
    """A clean table passes the check and a table with one entry off by 1 fails."""
    import ghzgraphs as gz

    import checks
    import instances

    g = gz.build_graph(*_args(instances.dense(4, 2, True, _draw("selftest"))))
    table = dict(gz.colouring_weight_table(g))
    if checks.check_table(g, table):
        return False
    key = sorted(table)[len(table) // 2]
    table[key] = table[key] + 1
    return bool(checks.check_table(g, table))


def coverage(self_times: dict, wall: float) -> float:
    """Summed self time as a share of the traced wall time."""
    return sum(self_times.values()) / wall


def self_times_cover_wall(self_times: dict, wall: float) -> bool:
    return abs(coverage(self_times, wall) - 1.0) <= COVERAGE_TOLERANCE


def _args(instance):
    n, specs, d = instance
    return n, specs, range(d)


def _draw(tag: str):
    import instances

    return instances.Draw(random.Random(tag), random.Random(tag))


def main() -> int:
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import ghzgraphs as gz

    import instances
    import tracer

    ok = corrupted_table_is_flagged()
    print(f"corrupted table entry flagged: {ok}")
    t = tracer.Tracer()
    g = gz.build_graph(*_args(instances.dense(6, 2, True, _draw("selftest-trace"))))
    c8 = gz.build_graph(*_args(instances.weighted_cycle(range(8), _draw("selftest-c8"))))
    t.install()
    try:
        root = t.open("bench", "pass")
        gz.verify(g)
        gz.reduce(c8)
        wall = t.close(root)
    finally:
        t.uninstall()
    share = coverage(t.self_times(), wall)
    covered = self_times_cover_wall(t.self_times(), wall)
    print(f"self times cover traced wall: {covered} (sum/wall = {share:.6f})")
    return 0 if ok and covered else 1


if __name__ == "__main__":
    sys.exit(main())
