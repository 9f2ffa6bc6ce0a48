"""Self-tests of the benchmark's own arithmetic and hygiene.

    python3 -m pytest -q perfbench
"""

import itertools

import numpy as np
import pytest

import run
import tracing
import worker
from tracing import END, NAME, START


def test_self_time_on_hand_built_tree():
    spans = [
        ["step", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],      # overlaps a: union 1..6
        ["c", 9.0, 12.0, 0, 0],     # runs past its parent: clipped to 9..10
        ["a.1", 1.5, 2.0, 1, 0],
        ["a.2", 2.5, 3.5, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 3.0, 0.5, 1.0])


def test_self_times_of_nested_spans_sum_to_the_root():
    tracer = tracing.Tracer()
    root = tracer.open("root")
    for _ in range(3):
        child = tracer.open("child")
        tracer.close(tracer.open("grandchild"))
        tracer.close(child)
    tracer.close(root)
    spans = tracer.spans
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0][END] - spans[0][START],
                                                           abs=1e-9)
    assert {s[tracing.OP] for s in spans} == {0}


def test_candidate_count_matches_brute_force():
    h, w, radius, frames, top_k = 5, 7, 2, 3, 30
    candidates = kept = 0
    for y, x in itertools.product(range(h), range(w)):
        cell = sum(1 for y2, x2 in itertools.product(range(h), range(w))
                   if abs(y2 - y) <= radius and abs(x2 - x) <= radius) * frames
        candidates += cell
        kept += min(cell, top_k)
    assert tracing.candidate_counts(h, w, radius, frames, top_k) == (candidates, kept)
    assert kept < top_k * h * w  # the corner windows hold fewer than top_k


def test_matmul_flops_broadcasts_batch_dims():
    assert tracing.matmul_flops((12, 65, 128), (128, 64)) == 2 * 12 * 65 * 128 * 64
    assert tracing.matmul_flops((2, 4, 5, 8), (2, 4, 8, 5)) == 2 * 8 * 5 * 8 * 5


def _attributes(points):
    return {(module.__name__, attr): getattr(module, attr) for module, attr, *_ in points}


def test_traced_run_restores_module_attributes():
    points = worker.trace_points()
    assert len({(m.__name__, a) for m, a, *_ in points}) == len(points)
    before = _attributes(points)
    tracer = tracing.Tracer()
    grid = np.zeros((2, 2, 4))
    grid[..., 0] = 1.0
    frame = worker.propagation.FeatureMap(grid)
    labels = worker.propagation.LabelMap(np.eye(2)[np.array([[0, 1], [1, 0]])])
    config = worker.propagation.PropagationConfig(top_k=2, radius=1)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, points):
            assert tracing.wrapped_attributes(points)
            worker.propagation.propagate_video([grid, grid], np.array([[0, 1], [1, 0]]),
                                               config)
            raise RuntimeError("fail inside the traced block")
    after = _attributes(points)
    assert all(after[key] is before[key] for key in before)
    assert tracing.wrapped_attributes(points) == []
    assert [s[NAME] for s in tracer.spans] == ["propagation.labels", "propagation.frame"]
    assert tracer.counts["propagation.candidates"] == 16
    # an untraced call afterwards records nothing
    worker.propagation.propagate_frame(frame, [(frame, labels)], config)
    assert len(tracer.spans) == 2


class _LabelsOnly:
    min_units = 0

    def run_once(self, index):
        worker.propagation.init_labels(np.zeros((2, 2), dtype=np.int32), (2, 2))
        return {"unit_seconds": [0.0]}


def test_measure_traces_every_other_call_and_restores():
    points = worker.trace_points()
    before = _attributes(points)
    tracer = tracing.Tracer()
    untraced, traced = worker.measure(_LabelsOnly(), 0.0, tracer, points)
    assert len(untraced) == len(traced) == worker.MIN_CALLS
    assert [s[NAME] for s in tracer.spans] == ["propagation.labels"] * len(traced)
    after = _attributes(points)
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("kind", sorted(worker.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, kind, monkeypatch):
    monkeypatch.setattr(worker, "FRAMES", 3)
    monkeypatch.setattr(worker, "TRAIN_VIDEOS", 2)
    monkeypatch.setattr(worker, "CALL_EPOCHS", 2)
    hashes = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workload = worker.WORKLOADS[kind](seed, tmp_path / name)
        workload.inputs.mkdir(parents=True)
        workload.generate()
        hashes.append(run.input_hash(workload.inputs))
    assert hashes[0] == hashes[1] != hashes[2]
