"""Best-of-N milliseconds per propagated frame at 8x8 (radius 40, the
whole grid), 16x16 and 28x28 (radius 12) at d=64, and at 16x16 radius 4
at d=32 (the windowed propagation of the benchmark's infer workload),
with 11 context frames and top_k 5, each checked bitwise against the
brute-force reference on sampled cells. Run from the repository root:

    python scripts/benchmark_propagation.py
    python scripts/benchmark_propagation.py --repeats 20 --seed 3
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from reference_propagation import reference_cell  # noqa: E402
from vidcorr.propagation import (  # noqa: E402
    FeatureMap,
    LabelMap,
    PropagationConfig,
    propagate_frame,
)

GRIDS = ((8, 40, 64), (16, 12, 64), (28, 12, 64), (16, 4, 32))  # (side, radius, d)
FRAMES, TOP_K, CLASSES, CHECKED_CELLS = 11, 5, 4, 16


def make_instance(rng, side, dim):
    def unit_grid():
        z = rng.normal(size=(side, side, dim))
        return z / np.sqrt((z * z).sum(axis=-1, keepdims=True))

    target = FeatureMap(unit_grid())
    context = [(FeatureMap(unit_grid()),
                LabelMap(np.eye(CLASSES)[rng.integers(0, CLASSES, size=(side, side))]))
               for _ in range(FRAMES)]
    return target, context


def mismatches(rng, out, target, context, config):
    """Sampled cells whose label vector differs from the reference."""
    feats = np.stack([f.grid for f, _ in context])
    labels = np.stack([lab.grid for _, lab in context])
    side = target.grid.shape[0]
    bad = 0
    for _ in range(CHECKED_CELLS):
        y, x = (int(v) for v in rng.integers(0, side, size=2))
        want = reference_cell(y, x, target.grid, feats, labels, config.radius,
                              config.top_k, config.temperature)
        bad += want.tobytes() != out.grid[y, x].tobytes()
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10,
                        help="timed runs per grid; the best is reported")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"frames={FRAMES} top_k={TOP_K} repeats={args.repeats}")
    failed = False
    for side, radius, dim in GRIDS:
        target, context = make_instance(rng, side, dim)
        config = PropagationConfig(top_k=TOP_K, radius=radius)
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            out = propagate_frame(target, context, config)
            best = min(best, time.perf_counter() - t0)
        bad = mismatches(rng, out, target, context, config)
        failed |= bad > 0
        check = "bitwise" if bad == 0 else f"{bad}/{CHECKED_CELLS} cells DIFFER"
        print(f"{side:>2}x{side:<2} r{radius:<3} d{dim:<3} {best * 1e3:8.2f} ms/frame  {check}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
