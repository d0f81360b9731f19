"""Multi-property benchmark: one shared unrolling vs a session per property.

The acceptance claim of the specification layer: checking the suite's
multi-property instances (eight named properties per design family —
the Reachable / Invariant / F / X / U target obligations plus three
narrow-cone probes, see
:func:`repro.models.suite.default_property_bundle`) through ONE
shared-unrolling session must be >= 1.5x faster than checking the same
properties sequentially, each in its own session.

The shared session encodes the k transition frames once into one
incremental solver and answers every property through its own
activation group; the sequential baseline re-encodes the unrolling per
property — exactly the waste the paper's "the unrolled transition
formula is the expensive object" argument predicts.

Verdicts must agree property-for-property, and every certificate is
re-validated (debug mode replays witnesses against the system and the
bounded path semantics).

Timing: after a warm-up pass, PAIRS interleaved (shared, sequential)
pairs run back to back, alternating which side goes first so drift in
machine speed hits both sides alike.  Every pair is printed; the guard
is on the median of the per-pair ratios, which one slow pass cannot
swing the way it swings a single best-of-N ratio.

Run:  PYTHONPATH=src python benchmarks/bench_multiprop.py
"""

import statistics
import time

from repro.harness.report import format_table
from repro.harness.runner import run_property_matrix
from repro.models import build_property_suite

REQUIRED_SPEEDUP = 1.5
PAIRS = 7


def _run(shared: bool):
    instances = build_property_suite()
    start = time.perf_counter()
    cells = run_property_matrix(instances, shared=shared)
    return cells, time.perf_counter() - start


def main() -> None:
    instances = build_property_suite()
    n_props = sum(len(i.properties) for i in instances)
    print(f"multi-property suite: {len(instances)} instances, "
          f"{n_props} (instance, property) cells\n")

    # Warm-up (intern caches, imports), then interleaved pairs.
    _run(shared=True)
    ratios = []
    for pair in range(PAIRS):
        order = (True, False) if pair % 2 == 0 else (False, True)
        timed = {shared: _run(shared=shared) for shared in order}
        shared_cells, shared_s = timed[True]
        sequential_cells, sequential_s = timed[False]
        ratios.append(sequential_s / shared_s)
        first = "shared" if order[0] else "sequential"
        print(f"pair {pair + 1} ({first} first): sequential "
              f"{sequential_s * 1e3:.1f} ms, shared {shared_s * 1e3:.1f} ms"
              f" -> {ratios[-1]:.2f}x")
    print()

    # Verdict agreement, cell for cell.
    by_key_shared = {(c.instance.name, c.property_name): c.verdict
                     for c in shared_cells}
    by_key_seq = {(c.instance.name, c.property_name): c.verdict
                  for c in sequential_cells}
    assert by_key_shared == by_key_seq, "shared vs sequential disagree"

    per_instance = {}
    for cells, mode in ((shared_cells, "shared"),
                        (sequential_cells, "sequential")):
        for cell in cells:
            row = per_instance.setdefault(cell.instance.name,
                                          {"shared": 0.0,
                                           "sequential": 0.0})
            row[mode] += cell.seconds
    rows = [[name, f"{row['sequential'] * 1e3:.1f}",
             f"{row['shared'] * 1e3:.1f}",
             f"{row['sequential'] / max(row['shared'], 1e-9):.2f}x"]
            for name, row in per_instance.items()]
    print(format_table(
        ["instance", "sequential ms", "shared ms", "speedup"], rows))

    speedup = statistics.median(ratios)
    print(f"\nmedian paired speedup over {PAIRS} pairs: {speedup:.2f}x "
          f"(range {min(ratios):.2f}-{max(ratios):.2f}x; "
          f"required >= {REQUIRED_SPEEDUP}x)")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"shared-unrolling multi-property speedup regressed: "
        f"{speedup:.2f}x < {REQUIRED_SPEEDUP}x")
    print("OK")

if __name__ == "__main__":
    import _emit
    raise SystemExit(_emit.run(globals()))
