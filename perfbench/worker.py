"""One benchmark process: set up a workload, then (with --measure) time
it, check its outputs and print the result.

Started by run.py, never by hand. Prints ``READY`` once set-up is done
and, when measuring, one ``RESULT <json>`` line at the end. Everything
the process writes stays under --work.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

import vidcorr.encoder as encoder  # noqa: E402
import vidcorr.harness as harness  # noqa: E402
import vidcorr.objectives as objectives  # noqa: E402
import vidcorr.propagation as propagation  # noqa: E402
import vidcorr.views as views  # noqa: E402
from reference_propagation import reference_cell  # noqa: E402
from vidcorr.numerics import Rng  # noqa: E402

import tracing  # noqa: E402

_read_pgm = views.read_pgm  # never wrapped: reads back outputs for the checks
IMPORTED = time.perf_counter()

# Criterion 7's desk-scale training config (tests/test_acceptance.py),
# copied so that the benchmark's workload stays fixed if the test moves.
DESK_CONFIG = {
    "epochs": "50", "batch": "2", "checkpoint_every": "0",
    "gate_probability": "1.0", "ema_momentum": "0.9",
    "temp.teacher": "0.04",
    "opt.warmup_epochs": "5", "opt.lr_scale_constant": "0.3",
    "view.clip_len": "6", "view.frameskip": "2", "view.global_size": "32",
    "view.local_size": "16", "view.locals_per_frame": "2",
    "view.local_scale": "0.3,0.8",
    "model.patch_size": "4", "model.embed_dim": "32", "model.depth": "2",
    "model.heads": "4", "model.proj_dim": "64", "model.proj_hidden": "128",
    "model.pe_base_resolution": "4", "model.inference_layer": "2",
}
TRAIN_VIDEOS, TRAIN_CANVAS, FRAMES = 8, 32, 12
CALL_EPOCHS = 6          # one timed train() call: 6 epochs x 4 steps
MIN_STEP_INTERVALS = 110  # so that p90 has at least ten samples beyond it
EVAL_VIDEOS, EVAL_CANVAS, EVAL_RADIUS = 4, 32, 40
WINDOW_VIDEOS, WINDOW_CANVAS, WINDOW_RADIUS = 3, 64, 4
MIN_CALLS = 3
REFERENCE_CELLS = 16


def _count_forward(tracer, args, kwargs, result):
    seq = args[0]
    tracer.add("encoder.forward_batch.calls", 1)
    tracer.add("encoder.forward_batch.tokens", seq.batch * (seq.num_patches + 1))


def _count_matmul(tracer, args, kwargs, result):
    tracer.add("numerics.matmul.flop", tracing.matmul_flops(args[0].shape, args[1].shape))


def _count_frame(tracer, args, kwargs, result):
    target, context, config = args[:3]
    h, w = target.grid.shape[:2]
    candidates, kept = tracing.candidate_counts(h, w, config.radius, len(context),
                                                config.top_k)
    tracer.add("propagation.candidates", candidates)
    tracer.add("propagation.kept", kept)


def _count_file(counter):
    def count(tracer, args, kwargs, result):
        tracer.add(counter, Path(result if result is not None else args[0]).stat().st_size)
    return count


def trace_points():
    """(module, attribute, span name, counter, starts an op id)."""
    h, e, o, p, v = harness, encoder, objectives, propagation, views
    points = [
        (h, "train", "harness.train", None, False),
        (h, "train_step", "harness.train_step", None, True),
        (h, "evaluate", "harness.evaluate", None, False),
        (h, "propagate_and_save", "harness.propagate_and_save", None, False),
        (h, "save_checkpoint", "harness.save_checkpoint",
         _count_file("harness.checkpoint_bytes"), False),
        (h, "load_store", "views.load_store", None, False),
        (h, "sample_clip", "views.sample_clip", None, False),
        (h, "make_crops", "views.make_crops", None, False),
        (h, "sample_clip_masks", "views.sample_clip_masks", None, False),
        (v, "read_ppm", "views.read", None, False),
        (v, "read_pgm", "views.read", None, False),
        (v, "write_pgm", "views.write_pgm", _count_file("views.bytes_written"), False),
        (h, "patchify_batch", "encoder.patchify", None, False),
        (e, "patchify_batch", "encoder.patchify", None, False),
        (h, "forward_batch", "encoder.forward_batch", _count_forward, False),
        (h, "extract_inference_features", "encoder.features", None, False),
        (e, "matmul", "numerics.matmul", _count_matmul, False),
        (o, "matmul", "numerics.matmul", _count_matmul, False),
        (e, "layer_norm", "numerics.layer_norm", None, False),
        (e, "gelu", "numerics.gelu", None, False),
        (e, "softmax_t", "numerics.softmax_t", None, False),
        (o, "softmax_t", "numerics.softmax_t", None, False),
        (h, "backward", "numerics.backward", None, False),
        (h, "adamw_step", "optimizer.adamw_step", None, False),
        (h, "ema_update", "objectives.ema_center", None, False),
        (h, "center_update", "objectives.ema_center", None, False),
        (p, "propagate_frame", "propagation.frame", _count_frame, False),
        (p, "init_labels", "propagation.labels", None, False),
        (h, "labels_to_mask", "propagation.labels", None, False),
        (h, "score_track", "metrics.score_track", None, False),
    ]
    for name in ("teacher_distribution", "student_distribution", "loss_out_g2g",
                 "loss_out_l2g", "loss_in_mim", "build_affinity", "loss_in_aff",
                 "total_loss"):
        points.append((h, name, "objectives.losses", None, False))
    return points


# Per-layer metric: (name, unit, kind, source, basis). kind "time" sums
# the spans named by source, "self" their self time, "count" a counter;
# basis divides by units of work (train steps or infer ops), calls
# (train() calls or infer ops) or propagated frames.
PER_LAYER = [
    # should move op_ms.p50 on train-desk (train.step_ms.p50)
    ("views.sample_clip_ms", "ms", "time", "views.sample_clip", "unit"),
    ("views.make_crops_ms", "ms", "time", "views.make_crops", "unit"),
    ("views.sample_clip_masks_ms", "ms", "time", "views.sample_clip_masks", "unit"),
    ("encoder.patchify_ms", "ms", "time", "encoder.patchify", "unit"),
    ("encoder.forward_batch_ms", "ms", "time", "encoder.forward_batch", "unit"),
    ("encoder.forward_batch.calls", "count", "count", "encoder.forward_batch.calls", "unit"),
    ("encoder.forward_batch.tokens", "count", "count", "encoder.forward_batch.tokens", "unit"),
    ("numerics.matmul_ms", "ms", "time", "numerics.matmul", "unit"),
    ("numerics.matmul.gflop", "GFLOP", "count", "numerics.matmul.flop", "unit"),
    ("numerics.layer_norm_ms", "ms", "time", "numerics.layer_norm", "unit"),
    ("numerics.gelu_ms", "ms", "time", "numerics.gelu", "unit"),
    ("numerics.softmax_t_ms", "ms", "time", "numerics.softmax_t", "unit"),
    ("objectives.losses_ms", "ms", "time", "objectives.losses", "unit"),
    ("objectives.ema_center_ms", "ms", "time", "objectives.ema_center", "unit"),
    ("numerics.backward_ms", "ms", "time", "numerics.backward", "unit"),
    ("optimizer.adamw_step_ms", "ms", "time", "optimizer.adamw_step", "unit"),
    ("harness.train_step.self_ms", "ms", "self", "harness.train_step", "unit"),
    # items_per_s on train-desk (train.clips_per_s)
    ("harness.save_checkpoint_ms", "ms", "time", "harness.save_checkpoint", "call"),
    ("harness.checkpoint_bytes", "bytes", "count", "harness.checkpoint_bytes", "call"),
    ("views.load_store_ms", "ms", "time", "views.load_store", "call"),
    # op_ms.p50 and items_per_s on infer (both of its parts)
    ("propagation.frame_ms", "ms", "time", "propagation.frame", "frame"),
    ("propagation.candidates", "count", "count", "propagation.candidates", "frame"),
    # op_ms.p50 and items_per_s on infer (eval.frames_per_s)
    ("encoder.features_ms", "ms", "time", "encoder.features", "unit"),
    ("views.read_ms", "ms", "time", "views.read", "unit"),
    ("propagation.labels_ms", "ms", "time", "propagation.labels", "unit"),
    ("metrics.score_track_ms", "ms", "time", "metrics.score_track", "unit"),
    ("harness.evaluate.self_ms", "ms", "self", "harness.evaluate", "unit"),
    # op_ms.p50 and items_per_s on infer (propagate.frames_per_s)
    ("views.write_pgm_ms", "ms", "time", "views.write_pgm", "unit"),
    ("views.bytes_written", "bytes", "count", "views.bytes_written", "unit"),
]


def _write_fresh_checkpoint(path, pairs, seed):
    """The seed's freshly initialized student (criterion 7's untrained
    model) as a checkpoint, so eval inputs never depend on training."""
    run = harness.build_run_config(dict(pairs, seed=str(seed)))
    student = encoder.EncoderParams.init(run.model, Rng(seed).substream("init"))
    teacher = objectives.TeacherState.from_student(student, run.ema_momentum,
                                                   run.center_momentum)
    harness.save_checkpoint(path, student, teacher, harness.OptState.init(student), 0,
                            harness.canonical_config_text(run))


class Workload:
    """Inputs under work/inputs (hashed across set-ups), outputs under
    work/out. run_once does one call into the program and returns its
    record; only the call itself is timed."""

    min_units = 0  # units of work a measurement needs, whatever its length

    def __init__(self, seed, work):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.setup_ms = {}

    def timed(self, key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.setup_ms[key] = self.setup_ms.get(key, 0.0) + (time.perf_counter() - t0) * 1e3
        return result


class TrainDesk(Workload):
    unit = "step"
    min_units = MIN_STEP_INTERVALS
    unit_span = "harness.train_step"
    call_span = "harness.train"

    def run_config(self, out, **extra):
        pairs = dict(DESK_CONFIG, seed=str(self.seed), data=str(self.inputs / "data"),
                     out=str(out), epochs=str(CALL_EPOCHS))
        pairs.update(extra)
        return harness.build_run_config(pairs)

    def generate(self):
        self.timed("harness.gen_synthetic_dataset", harness.gen_synthetic_dataset,
                   self.inputs / "data", self.seed, train_videos=TRAIN_VIDEOS,
                   eval_videos=0, canvas=TRAIN_CANVAS, frames=FRAMES)

    def setup(self):
        self.generate()
        # the first steps of a fresh process are ~10x slower than later ones
        warm = self.run_config(self.out / "warm", epochs="1",
                               **{"opt.warmup_epochs": "0"})
        self.timed("warmup", harness.train, warm)

    def run_once(self, index):
        out = self.out / "run"  # one path: the checkpoint embeds it
        run = self.run_config(out)
        stamps, terms = [], []

        def progress(step, breakdown):
            stamps.append(time.perf_counter())
            terms.append([float(t.data) for t in (breakdown.out_g2g, breakdown.out_l2g,
                                                  breakdown.in_mim, breakdown.in_aff,
                                                  breakdown.total)])

        t0 = time.perf_counter()
        result = harness.train(run, progress=progress)
        elapsed = time.perf_counter() - t0
        ckpt = result.checkpoints[-1]
        record = {
            "seconds": elapsed,
            "unit_seconds": list(np.diff(stamps)),
            "items": result.steps * run.batch,
            "steps": result.steps,
            "failed": sum(line.endswith("\tskipped") or not np.isfinite(row).all()
                          for line, row in zip(result.log_lines, terms)),
            "checkpoint_sha": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
        }
        if index == 0:
            shutil.copy(ckpt, self.out / "first.ckpt")
        shutil.rmtree(out)
        return record

    def check(self, records, problems):
        expected_steps = CALL_EPOCHS * (TRAIN_VIDEOS // int(DESK_CONFIG["batch"]))
        attempted = failed = 0
        for i, rec in enumerate(records):
            attempted += rec["steps"]
            failed += rec["failed"]
            if rec["steps"] != expected_steps:
                problems.append(f"train call {i} ran {rec['steps']} of {expected_steps} steps")
            if rec["checkpoint_sha"] != records[0]["checkpoint_sha"]:
                problems.append(f"train call {i} checkpoint differs from call 0")
        path = self.out / "first.ckpt"
        raw = path.read_bytes()
        ckpt = harness.load_checkpoint(path)
        run = harness.build_run_config(harness.parse_config_text(ckpt.config_text))
        student, teacher, opt_state = harness.restore_state(ckpt, run)
        again = harness.checkpoint_bytes(student, teacher, opt_state, ckpt.step,
                                         ckpt.config_text)
        if again != raw or ckpt.step != expected_steps:
            problems.append("final checkpoint does not round-trip through load_checkpoint")
        return attempted, failed


class Infer(Workload):
    """One op runs the program's two inference commands back to back:
    evaluate() on the 32 px split, whose radius covers the whole 8x8
    grid, then propagate_and_save() on one 64 px video, whose radius-4
    windows cover about a third of the 16x16 grid. Both load a
    checkpoint of the seed's fresh student."""

    unit = "op"
    unit_span = call_span = "harness.evaluate"

    def generate(self):
        for split, videos, canvas in (("eval", EVAL_VIDEOS, EVAL_CANVAS),
                                      ("window", WINDOW_VIDEOS, WINDOW_CANVAS)):
            self.timed("harness.gen_synthetic_dataset", harness.gen_synthetic_dataset,
                       self.inputs / split, self.seed, train_videos=0,
                       eval_videos=videos, canvas=canvas, frames=FRAMES)
        _write_fresh_checkpoint(self.inputs / "fresh.ckpt",
                                dict(DESK_CONFIG, **{"prop.radius": str(EVAL_RADIUS)}),
                                self.seed)

    def setup(self):
        self.generate()
        self.params, run = self.timed("harness.params_from_checkpoint",
                                      harness.params_from_checkpoint,
                                      self.inputs / "fresh.ckpt")
        self.model = run.model
        self.eval_prop = run.prop
        self.window_prop = dataclasses.replace(run.prop, radius=WINDOW_RADIUS)
        self.eval_split = self.inputs / "eval" / "val"
        self.eval_sources = views.load_store(self.eval_split)
        self.window_sources = views.load_store(self.inputs / "window" / "val")
        # lazy imports and first-call costs stay in set-up; evaluate()
        # reaches every layer an op uses but views.write_pgm
        self.timed("warmup", harness.evaluate, self.params, self.model, self.eval_prop,
                   self.eval_split)

    def run_once(self, index):
        source = self.window_sources[index % len(self.window_sources)]
        out = self.out / f"op{index}"
        t0 = time.perf_counter()
        scores, _ = harness.evaluate(self.params, self.model, self.eval_prop,
                                     self.eval_split)
        t1 = time.perf_counter()
        paths = harness.propagate_and_save(self.params, self.model, self.window_prop,
                                           source.directory, out)
        t2 = time.perf_counter()
        masks = [_read_pgm(p) for p in paths]
        shutil.rmtree(out)
        eval_items = sum(len(s) - 1 for s in self.eval_sources)
        return {
            "seconds": t2 - t0,
            "unit_seconds": [t2 - t0],
            "items": eval_items + len(source) - 1,
            "parts": {"eval": [t1 - t0, eval_items],
                      "propagate": [t2 - t1, len(source) - 1]},
            "tracks": [(t.sequence, t.object_id, list(t.j_frames), list(t.f_frames))
                       for t in scores.tracks],
            "video": source.source_id,
            "masks": masks,
        }

    def derive(self, source, prop):
        """Label maps for one video straight from the program, plus a
        seeded sample of cells re-derived by the brute-force reference.
        Returns (label_maps, frames whose sampled cells differ)."""
        features = [encoder.extract_inference_features(source[i], self.params,
                                                       self.model).data
                    for i in range(len(source))]
        maps = propagation.propagate_video(features, source.mask(0), prop)
        grids = [np.asarray(f, dtype=np.float64) for f in features]
        h, w, _ = grids[0].shape
        rng = np.random.default_rng([self.seed, 7])
        bad = set()
        for _ in range(REFERENCE_CELLS):
            t = int(rng.integers(1, len(maps)))
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            recent = list(range(1, t))
            recent = recent[-prop.context_size:] if prop.context_size > 0 else []
            ctx = [0] + recent
            want = reference_cell(y, x, grids[t], np.stack([grids[i] for i in ctx]),
                                  np.stack([maps[i].grid for i in ctx]),
                                  prop.radius, prop.top_k, prop.temperature)
            if want.tobytes() != maps[t].grid[y, x].tobytes():
                bad.add(t)
        return maps, bad

    def checked_source(self, sources):
        return sources[int(np.random.default_rng([self.seed, 11]).integers(
            0, len(sources)))]

    def check(self, records, problems):
        attempted = sum(rec["items"] for rec in records)
        failed = self.check_eval(records, problems) + self.check_window(records, problems)
        return attempted, failed

    def check_eval(self, records, problems):
        source = self.checked_source(self.eval_sources)
        maps, bad = self.derive(source, self.eval_prop)
        pred = [harness.labels_to_mask(m, self.model.patch_size) for m in maps]
        truth = [source.mask(i) for i in range(len(source))]
        expected = {(source.source_id, obj): harness.score_track(
                        pred, truth, obj, sequence=source.source_id)
                    for obj in range(1, int(truth[0].max()) + 1)}
        first = {(seq, obj): (j, f) for seq, obj, j, f in records[0]["tracks"]}
        failed = 0
        for i, rec in enumerate(records):
            bad_frames = {(source.source_id, t) for t in bad}
            for seq, obj, js, fs in rec["tracks"]:
                want = expected.get((seq, obj))
                want = (want.j_frames, want.f_frames) if want else first.get((seq, obj))
                for t, (j, f) in enumerate(zip(js, fs), start=1):
                    if not (0.0 <= j <= 1.0 and 0.0 <= f <= 1.0) or want is None or \
                            (j, f) != (want[0][t - 1], want[1][t - 1]):
                        bad_frames.add((seq, t))
            if len({seq for seq, *_ in rec["tracks"]}) != len(self.eval_sources):
                problems.append(f"op {i}: evaluate did not score every video")
            failed += len(bad_frames)
            if bad_frames:
                problems.append(f"op {i}: {len(bad_frames)} evaluated frames fail checks")
        return failed

    def check_window(self, records, problems):
        source = self.checked_source(self.window_sources)
        maps, bad = self.derive(source, self.window_prop)
        expected = {source.source_id: [harness.labels_to_mask(m, self.model.patch_size)
                                       for m in maps]}
        by_id = {s.source_id: s for s in self.window_sources}
        failed = 0
        for i, rec in enumerate(records):
            video = by_id[rec["video"]]
            first_mask = video.mask(0)
            ids = set(np.unique(first_mask).tolist())
            want = expected.setdefault(rec["video"], rec["masks"])
            bad_frames = set(bad) if rec["video"] == source.source_id else set()
            if len(rec["masks"]) != len(video):
                problems.append(f"op {i}: propagate wrote {len(rec['masks'])} masks")
            for t, (mask, expected_mask) in enumerate(zip(rec["masks"], want)):
                if mask.shape != first_mask.shape or \
                        not set(np.unique(mask).tolist()) <= ids or \
                        not np.array_equal(mask, expected_mask):
                    bad_frames.add(t)
            failed += len(bad_frames)
            if bad_frames:
                problems.append(f"op {i}: {len(bad_frames)} propagated frames fail checks")
            rec.pop("masks")
        return failed


WORKLOADS = {"train-desk": TrainDesk, "infer": Infer}


def measure(workload, seconds, tracer=None, points=()):
    """Closed loop of run_once for `seconds`. With a tracer, every other
    call runs with the trace points installed, so traced and untraced
    calls see the same machine. Returns (untraced, traced) records."""
    runs = ([], [])
    wanted = runs if tracer is not None else runs[:1]
    deadline = time.perf_counter() + seconds
    while True:
        index = len(runs[0]) + len(runs[1])
        traced = tracer is not None and index % 2 == 1
        if traced:
            with tracing.installed(tracer, points):
                runs[1].append(workload.run_once(index))
        else:
            runs[0].append(workload.run_once(index))
        if time.perf_counter() >= deadline and all(
                len(r) >= MIN_CALLS
                and sum(len(x["unit_seconds"]) for x in r) >= workload.min_units
                for r in wanted):
            return runs


def per_layer(workload, tracer):
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    time_by, self_by = {}, {}
    for i, s in enumerate(spans):
        name = s[tracing.NAME]
        self_by[name] = self_by.get(name, 0.0) + selfs[i]
        parent = s[tracing.PARENT]
        while parent >= 0 and spans[parent][tracing.NAME] != name:
            parent = spans[parent][tracing.PARENT]
        if parent < 0:  # not nested in a span of its own name
            time_by[name] = time_by.get(name, 0.0) + s[tracing.END] - s[tracing.START]
    names = [s[tracing.NAME] for s in spans]
    basis = {"unit": names.count(workload.unit_span),
             "call": names.count(workload.call_span),
             "frame": names.count("propagation.frame")}
    counts = dict(tracer.counts)
    counts["numerics.matmul.flop"] = counts.get("numerics.matmul.flop", 0) / 1e9
    out = {}
    for name, unit, kind, source, per in PER_LAYER:
        if kind == "count":
            total = counts.get(source, 0)
        else:
            total = (time_by if kind == "time" else self_by).get(source, 0.0) * 1e3
        out[name] = {"value": total / basis[per] if basis[per] else 0.0, "unit": unit}
    kept, candidates = counts.get("propagation.kept", 0), counts.get("propagation.candidates", 0)
    out["propagation.kept_ratio"] = {"value": kept / candidates if candidates else 0.0,
                                     "unit": "ratio"}
    # set-up calls, timed directly: should move setup_s
    for key in ("harness.params_from_checkpoint", "harness.gen_synthetic_dataset"):
        out[f"{key}_ms"] = {"value": workload.setup_ms.get(key, 0.0), "unit": "ms"}

    # a train step's self times, summed over its span tree, give its duration
    worst = 0.0
    subtree = {}
    for i, s in enumerate(spans):
        parent = s[tracing.PARENT]
        root = i if s[tracing.NAME] == "harness.train_step" else subtree.get(parent)
        if root is not None:
            subtree[i] = root
    sums = {}
    for i, root in subtree.items():
        sums[root] = sums.get(root, 0.0) + selfs[i]
    for root, total in sums.items():
        worst = max(worst, abs(total - (spans[root][tracing.END] - spans[root][tracing.START])))
    return out, worst


def machine_facts():
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if hasattr(propagation, "active_backend"):
        facts["propagation_backend"] = propagation.active_backend()
    return facts


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--measure", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    print("READY", flush=True)
    if not args.measure:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    points = trace_points() if args.trace else ()
    records, traced = measure(workload, args.seconds, tracer, points)
    result = {"records_untraced": len(records)}
    if args.trace:
        leftover = tracing.wrapped_attributes(points)
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        layers, worst = per_layer(workload, tracer)
        p50 = statistics.median(u for r in records for u in r["unit_seconds"])
        p50_traced = statistics.median(u for r in traced for u in r["unit_seconds"])
        layers["trace.overhead_ratio"] = {"value": p50_traced / p50, "unit": "ratio"}
        result.update(per_layer=layers, self_time_residual_s=worst,
                      spans=tracer.spans, counts=tracer.counts)
        records = records + traced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = []
    attempted, failed = workload.check(records, problems)
    if args.trace and result["self_time_residual_s"] > 1e-6:
        problems.append("train-step self times do not sum to the step time "
                        f"(off by {result['self_time_residual_s']:.3g} s)")
    untraced = records[:result["records_untraced"]]
    result.update(
        unit=workload.unit,
        unit_seconds=[u for r in untraced for u in r["unit_seconds"]],
        call_seconds=[r["seconds"] for r in untraced],
        call_items=[r["items"] for r in untraced],
        parts={name: [r["parts"][name] for r in untraced] for name in untraced[0].get("parts", {})},
        attempted=attempted, failed=failed, problems=problems,
        setup_ms=workload.setup_ms, import_s=IMPORTED - START,
        facts=machine_facts(),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
