"""Run-level behavior: config parsing, the synthetic corpus, checkpoint
round trips, bitwise-reproducible training and resume, evaluation, and
the command-line entry points.

Everything here runs on a micro setup (16x16 canvas, embed 8, depth 1)
so the whole file stays in the seconds range."""

import hashlib
import io
import logging
import math
import re
import shlex
import shutil
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vidcorr.encoder import EncoderParams, ModelConfig, param_specs
from vidcorr.harness import (
    CheckpointError,
    _write_checkpoint,
    build_run_config,
    canonical_config_text,
    checkpoint_bytes,
    evaluate,
    gen_synthetic_dataset,
    load_checkpoint,
    params_from_checkpoint,
    parse_config_text,
    propagate_and_save,
    restore_state,
    save_checkpoint,
    train,
    train_step,
)
from vidcorr.harness.cli import _collect_config, build_parser, main
from vidcorr.harness.synthetic import (
    SyntheticSceneSpec,
    random_scene_spec,
    render_scene,
)
from vidcorr.metrics import score_track
from vidcorr.numerics import Rng, scale
from vidcorr.objectives import TeacherState
from vidcorr.optimizer import OptState, Schedule
from vidcorr.propagation import PropagationConfig, propagate_video
from vidcorr.views import VideoSource, load_store, read_pgm, write_index, write_video_dir


REPO = Path(__file__).resolve().parents[1]


def readme_quick_start():
    """The vidcorr command lines of the README's quick-start block, with
    continuation lines joined and the program name dropped."""
    block = (REPO / "README.md").read_text().split("## Quick start", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("vidcorr ")]


def micro_pairs(data, out, **extra):
    """Config pairs for a training run small enough to finish in well
    under a second per epoch."""
    pairs = {
        "seed": 0, "epochs": 2, "batch": 2,
        "data": str(data), "out": str(out),
        "ema_momentum": 0.9, "center_momentum": 0.9, "gate_probability": 1.0,
        "opt.warmup_epochs": 1, "opt.lr_scale_constant": 0.1,
        "view.clip_len": 2, "view.frameskip": 1, "view.global_size": 16,
        "view.local_size": 8, "view.locals_per_frame": 1,
        "view.local_scale": (0.3, 0.8),
        "model.patch_size": 4, "model.embed_dim": 8, "model.depth": 1,
        "model.heads": 2, "model.mlp_ratio": 2, "model.proj_layers": 1,
        "model.proj_dim": 8, "model.proj_hidden": 16,
        "model.pe_base_resolution": 2, "model.inference_layer": 1,
    }
    pairs.update(extra)
    return pairs


def cropped_pnm(buf, side):
    """P5 or P6 bytes of the top-left side x side corner of such an image."""
    magic, dims, _, pixels = buf.split(b"\n", 3)
    width, height = map(int, dims.split())
    corner = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, -1)[:side, :side]
    return magic + b"\n%d %d\n255\n" % (side, side) + corner.tobytes()


def count_reads(monkeypatch):
    """A Counter of the files vidcorr.views.read_ppm and read_pgm read
    from now on, by path."""
    import vidcorr.views as views

    reads = Counter()
    for name in ("read_ppm", "read_pgm"):
        def counting(path, read=getattr(views, name)):
            reads[Path(path)] += 1
            return read(path)
        monkeypatch.setattr(views, name, counting)
    return reads


def tree_digest(root):
    """One hash over every file under root, path-ordered."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    gen_synthetic_dataset(root, seed=5, train_videos=4, eval_videos=2,
                          canvas=16, frames=6)
    return root


class TestConfigValues:
    def test_scalar_parsing(self):
        """Each value takes its key's declared type; text keys keep what
        looks like a number or a bool."""
        run = build_run_config({"view.clip_len": " 16 ", "gate_probability": "1",
                                "opt.eps": "1e-3", "prop.include_first_frame": "true",
                                "view.flip_jitter_target": "none", "out": "123",
                                "data": "true"})
        assert run.view.clip_len == 16 and type(run.view.clip_len) is int
        assert run.gate_probability == 1.0 and type(run.gate_probability) is float
        assert run.opt.eps == 1e-3
        assert run.prop.include_first_frame is True
        assert (run.view.flip_jitter_target, run.out, run.data) == ("none", "123", "true")

    @pytest.mark.parametrize("key, text, kind", [
        ("batch", "2.5", "an integer"), ("model.depth", "2.0", "an integer"),
        ("temp.student", "inf", "a finite number"), ("temp.student", "1/2", "a finite number"),
        ("prop.include_first_frame", "True", "true or false"),
        ("mask_ratio", "0.1,nan", "a comma list of finite numbers lo,hi"),
        ("mask_ratio", "0.3", "a comma list of finite numbers lo,hi"),
        ("view.local_scale", "0.5", "a comma list of finite numbers lo,hi"),
        ("view.global_scale", "0.8,0.9,0.95", "a comma list of finite numbers lo,hi")])
    def test_wrong_type_rejected(self, key, text, kind):
        with pytest.raises(ValueError, match=f"^{re.escape(key)} = '.*' is not {kind}$"):
            build_run_config({key: text})

    def test_comma_makes_tuples(self):
        run = build_run_config({"mask_ratio": "0.3, 0.8", "view.local_scale": "1,1",
                                "out": "a,b"})
        assert run.mask_ratio == (0.3, 0.8)
        assert run.view.local_scale == (1.0, 1.0)
        assert all(type(v) is float for v in run.view.local_scale)
        assert run.out == "a,b"

    def test_config_text_comments_and_blanks(self):
        """parse_config_text hands over raw value text; build_run_config
        types it."""
        pairs = parse_config_text("# header\n\nseed = 7\nepochs=3  # inline\n"
                                  "out = a, b\n")
        assert pairs == {"seed": "7", "epochs": "3", "out": "a, b"}

    def test_config_text_rejects_bare_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("seed = 1\nnonsense\n")


# The config echo every checkpoint embeds; `train --resume` compares it
# byte for byte, so a renamed or reordered key strands every existing
# checkpoint. Change these only together with the checkpoint format.
# (\x20 is the space after the empty data value.)
DEFAULT_ECHO = """\
seed = 0
epochs = 2
batch = 2
data =\x20
out = run_out
ema_momentum = 0.996
center_momentum = 0.9
gate_probability = 0.5
mask_ratio = 0.1,0.5
loss_mode = full
checkpoint_every = 1
model.depth = 6
model.embed_dim = 64
model.heads = 4
model.inference_layer = 4
model.mlp_ratio = 4
model.patch_size = 8
model.pe_base_resolution = 8
model.proj_dim = 256
model.proj_hidden = 1024
model.proj_layers = 3
opt.beta1 = 0.9
opt.beta2 = 0.999
opt.eps = 1e-08
opt.lr_floor_fraction = 1e-06
opt.lr_scale_constant = 0.003
opt.warmup_epochs = 1
opt.wd_end = 0.4
opt.wd_start = 0.04
prop.context_size = 10
prop.include_first_frame = true
prop.radius = 40
prop.temperature = 0.07
prop.top_k = 5
temp.student = 0.1
temp.teacher = 0.04
view.brightness = 0.4
view.clip_len = 4
view.contrast = 0.4
view.flip_jitter_target = locals
view.frameskip = 8
view.global_scale = 0.8,0.95
view.global_size = 64
view.local_scale = 0.05,0.8
view.local_size = 32
view.locals_per_frame = 8
view.saturation = 0.2
"""

DESK_ECHO = """\
seed = 0
epochs = 50
batch = 2
data =\x20
out = run_out
ema_momentum = 0.9
center_momentum = 0.9
gate_probability = 1.0
mask_ratio = 0.1,0.5
loss_mode = full
checkpoint_every = 0
model.depth = 2
model.embed_dim = 32
model.heads = 4
model.inference_layer = 2
model.mlp_ratio = 4
model.patch_size = 4
model.pe_base_resolution = 4
model.proj_dim = 64
model.proj_hidden = 128
model.proj_layers = 3
opt.beta1 = 0.9
opt.beta2 = 0.999
opt.eps = 1e-08
opt.lr_floor_fraction = 1e-06
opt.lr_scale_constant = 0.3
opt.warmup_epochs = 5
opt.wd_end = 0.4
opt.wd_start = 0.04
prop.context_size = 10
prop.include_first_frame = true
prop.radius = 40
prop.temperature = 0.07
prop.top_k = 5
temp.student = 0.1
temp.teacher = 0.04
view.brightness = 0.4
view.clip_len = 6
view.contrast = 0.4
view.flip_jitter_target = locals
view.frameskip = 2
view.global_scale = 0.8,0.95
view.global_size = 32
view.local_scale = 0.3,0.8
view.local_size = 16
view.locals_per_frame = 2
view.saturation = 0.2
"""


class TestBuildRunConfig:
    def test_defaults_and_dotted_keys(self):
        run = build_run_config({"epochs": 3, "view.clip_len": 8,
                                "model.embed_dim": 32})
        assert run.epochs == 3
        assert run.view.clip_len == 8
        assert run.model.embed_dim == 32
        assert run.temp.teacher == 0.04  # untouched section keeps defaults

    def test_string_values_are_parsed(self):
        # the --set path hands over raw strings
        run = build_run_config({"view.clip_len": "6", "mask_ratio": "0.2,0.4",
                                "loss_mode": "g2g"})
        assert run.view.clip_len == 6
        assert run.mask_ratio == (0.2, 0.4)
        assert run.loss_mode == "g2g"

    @pytest.mark.parametrize("key", ["clip_len", "view.bogus", "foo.bar"])
    def test_unknown_keys_fail_loudly(self, key):
        with pytest.raises(KeyError, match="unknown config"):
            build_run_config({key: 1})

    @pytest.mark.parametrize("pairs", [
        {"epochs": 0},
        {"batch": 0},
        {"gate_probability": 1.5},
        {"ema_momentum": -0.1},
        {"loss_mode": "both"},
        {"checkpoint_every": -1},
        {"epochs": 2, "opt.warmup_epochs": 2},
        {"opt.warmup_epochs": -1},
    ])
    def test_validation(self, pairs):
        with pytest.raises(ValueError):
            build_run_config(pairs)

    def test_canonical_text_round_trips(self):
        run = build_run_config({"seed": 9, "mask_ratio": (0.2, 0.4),
                                "view.flip_jitter_target": "none",
                                "opt.beta2": 0.95})
        text = canonical_config_text(run)
        again = build_run_config(parse_config_text(text))
        assert canonical_config_text(again) == text
        assert again == run

    def test_config_echo_is_pinned(self):
        assert canonical_config_text(build_run_config({})) == DEFAULT_ECHO
        desk = parse_config_text((REPO / "examples" / "desk.cfg").read_text())
        assert canonical_config_text(build_run_config(desk)) == DESK_ECHO

    @pytest.mark.parametrize("name, grid, params", [
        ("mid.cfg", (12, 12), 5_278_720), ("vits16.cfg", (14, 14), 31_371_776)])
    def test_scale_configs_parse(self, name, grid, params):
        """The scale files build a run config: the global crop's token
        grid, and the student's parameter count that vits16.cfg's comment
        states as 31.4M."""
        run = build_run_config(parse_config_text((REPO / "examples" / name).read_text()))
        assert run.model.token_grid(run.view.global_size, run.view.global_size) == grid
        assert sum(math.prod(shape) for _, shape in param_specs(run.model)) == params

    def test_one_echo_per_value(self):
        """1 and 1.0 parse to one float, so they echo alike."""
        texts = {canonical_config_text(build_run_config({"gate_probability": value}))
                 for value in ("1", "1.0", " 1.00", 1, 1.0)}
        assert len(texts) == 1 and "gate_probability = 1.0\n" in texts.pop()

    def test_load_run_config_applies_overrides(self, tmp_path):
        """The command line reads --config, then --set and --seed
        override its keys."""
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nepochs = 4\nbatch = 3\n")
        args = build_parser().parse_args(["train", "--config", str(path), "--seed", "2",
                                          "--set", "batch=5"])
        run = _collect_config(args)
        assert (run.seed, run.epochs, run.batch) == (2, 4, 5)

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_range_rejected(self, seed):
        """A seed is an integer in [0, 2**64); Rng no longer wraps one."""
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            build_run_config({"seed": seed})
        assert build_run_config({"seed": str(2 ** 64 - 1)}).seed == 2 ** 64 - 1


class TestSyntheticScenes:
    def static_spec(self, **kw):
        base = dict(canvas=16, frames=4, texture_seed=3,
                    shapes=["rectangle"], sizes=[6], colors=[(0.4, 0.4, 0.4)],
                    starts=[(2.0, 2.0)], velocities=[(0.0, 0.0)])
        base.update(kw)
        return SyntheticSceneSpec(**base)

    def test_static_scene_repeats_exactly(self):
        frames, masks = render_scene(self.static_spec())
        for frame, mask in zip(frames[1:], masks[1:]):
            assert np.array_equal(frame, frames[0])
            assert np.array_equal(mask, masks[0])

    def test_rectangle_mask_matches_placement(self):
        _, masks = render_scene(self.static_spec())
        expect = np.zeros((16, 16), dtype=np.int32)
        expect[2:8, 2:8] = 1
        assert np.array_equal(masks[0], expect)

    def test_unit_velocity_moves_mask_one_pixel_per_frame(self):
        spec = self.static_spec(velocities=[(0.0, 1.0)])
        _, masks = render_scene(spec)
        for t, mask in enumerate(masks):
            cols = np.nonzero(mask.any(axis=0))[0]
            assert cols[0] == 2 + t

    def test_reflection_keeps_objects_on_canvas(self):
        spec = self.static_spec(frames=60, velocities=[(0.7, 1.3)])
        _, masks = render_scene(spec)
        # a clipped rectangle would lose pixels at the border
        for mask in masks:
            assert (mask == 1).sum() == 36

    def test_flicker_scales_object_pixels(self):
        gains = ((1.5, 1.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 1.0), (0.8, 0.8, 3.0))
        frames, masks = render_scene(self.static_spec(flicker=gains))
        for t, (frame, g) in enumerate(zip(frames, gains)):
            inside = frame[masks[t] == 1]
            want = np.clip(0.4 * np.asarray(g), 0.0, 1.0)
            assert np.allclose(inside, want), f"frame {t}"

    def test_random_spec_is_deterministic(self):
        a = random_scene_spec(Rng(11), canvas=16, frames=4, flicker_amplitude=0.25)
        b = random_scene_spec(Rng(11), canvas=16, frames=4, flicker_amplitude=0.25)
        assert a == b
        c = random_scene_spec(Rng(12), canvas=16, frames=4, flicker_amplitude=0.25)
        assert a != c

    def test_zero_amplitude_disables_flicker(self):
        spec = random_scene_spec(Rng(11), canvas=16, frames=4,
                                 flicker_amplitude=0.0)
        assert spec.flicker == ()

    def test_flicker_gains_stay_in_band(self):
        spec = random_scene_spec(Rng(11), canvas=16, frames=8,
                                 flicker_amplitude=0.25)
        gains = np.asarray(spec.flicker)
        assert gains.shape == (8, 3)
        assert gains.min() >= 0.75 and gains.max() <= 1.25


class TestDatasetLayout:
    def test_splits_and_mask_policy(self, dataset_root):
        train_sources = load_store(dataset_root / "train")
        val_sources = load_store(dataset_root / "val")
        assert len(train_sources) == 4 and len(val_sources) == 2
        assert all(not s.has_masks for s in train_sources)
        for s in val_sources:
            assert s.has_masks
            assert len(s.masks(s.frames())) == len(s) == 6
            assert s[0].shape == (16, 16, 3)

    def test_generation_is_bitwise_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            gen_synthetic_dataset(tmp_path / sub, seed=5, train_videos=2,
                                  eval_videos=1, canvas=16, frames=4)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def micro_state(run):
    student = EncoderParams.init(run.model, Rng(run.seed).substream("init"))
    teacher = TeacherState.from_student(student, run.ema_momentum,
                                        run.center_momentum)
    return student, teacher, OptState.init(student)


def skipped_step_message(run, group, student, teacher, opt_state, caplog):
    """Run train step 3 on nonzero teacher centers, check that it applied
    nothing and left the student, the teacher, both centers and the
    optimizer state as they were, and return its one warning."""
    teacher.center_cls.data[:] = 0.5
    teacher.center_patch.data[:] = -0.25

    def state():
        arrays = [t.data for _, t in student.named_parameters()]
        arrays += [t.data for _, t in teacher.params.named_parameters()]
        arrays += [teacher.center_cls.data, teacher.center_patch.data]
        arrays += list(opt_state.m.values()) + list(opt_state.v.values())
        return [a.copy() for a in arrays], opt_state.step

    schedule = Schedule(run.opt, run.batch, run.view.clip_len, steps_per_epoch=2,
                        total_epochs=run.epochs)
    before, step_before = state()
    with caplog.at_level(logging.WARNING, logger="vidcorr.harness"):
        *_, applied = train_step(3, group, student, teacher, run, schedule,
                                 opt_state, Rng(run.seed))
    after, step_after = state()
    assert applied is False
    assert step_after == step_before == 0
    assert len(after) == len(before)
    for a, b in zip(after, before):
        assert np.array_equal(a, b)
    assert all(t.grad is None for _, t in student.named_parameters())
    (record,) = caplog.records
    return record.getMessage()


def rewrite_records(path, edit):
    """Replace the records of the checkpoint at path by edit(records),
    keeping its step and config echo."""
    ckpt = load_checkpoint(path)
    records = [(name, ckpt.arrays[name]) for name, _ in ckpt.index]
    with open(path, "wb") as fh:
        _write_checkpoint(fh, edit(records), ckpt.step, ckpt.config_text)


def reference_records(buf):
    """Decode checkpoint bytes with struct alone, independently of the
    loader: (step, config text, [(name, magic, version, shape, tag,
    values)] in file order). Asserts the file header and that the
    records fill the file exactly."""
    assert buf[:4] == b"VCKP" and buf[4] == 1
    step, cfg_len = struct.unpack_from("<QI", buf, 5)
    pos = 17 + cfg_len
    config_text = buf[17:pos].decode("utf-8")
    records = []
    while pos < len(buf):
        (n,) = struct.unpack_from("<I", buf, pos)
        name = buf[pos + 4:pos + 4 + n].decode("utf-8")
        magic, version, rank = struct.unpack_from("<4sBB", buf, pos + 4 + n)
        pos += 10 + n
        *shape, tag = struct.unpack_from(f"<{rank}IB", buf, pos)
        pos += 4 * rank + 1
        values = np.frombuffer(buf, ("<f4", "<f8")[tag], math.prod(shape), pos)
        pos += values.nbytes
        records.append((name, magic, version, tuple(shape), tag, values.reshape(shape)))
    assert pos == len(buf)
    return step, config_text, records


def replaced(name, value):
    return lambda records: [(n, value if n == name else a) for n, a in records]


def dropped(name):
    return lambda records: [(n, a) for n, a in records if n != name]


class TestCheckpointFormat:
    def make(self, tmp_path, run=None, distinct=False):
        """A checkpoint of a fresh micro state; distinct=True first moves
        the teacher, its centers and the optimizer state off their
        initial values."""
        run = run or build_run_config(micro_pairs("d", str(tmp_path / "o")))
        student, teacher, opt_state = micro_state(run)
        if distinct:
            rng = np.random.default_rng(0)
            for t in [t for _, t in teacher.params.named_parameters()] + [
                    teacher.center_cls, teacher.center_patch]:
                t.data = t.data + rng.normal(size=t.shape).astype(t.dtype)
            for moments in (opt_state.m, opt_state.v):
                for name in moments:
                    moments[name] = rng.uniform(size=moments[name].shape).astype(np.float32)
            opt_state.step = 3
        text = canonical_config_text(run)
        path = save_checkpoint(tmp_path / "ck.ckpt", student, teacher,
                               opt_state, 7, text)
        return path, run, student, teacher, opt_state, text

    def test_round_trip_and_reserialization(self, tmp_path):
        path, run, student, teacher, opt_state, text = self.make(tmp_path)
        ckpt = load_checkpoint(path)
        assert (ckpt.step, ckpt.config_text) == (7, text)
        assert checkpoint_bytes(student, teacher, opt_state, 7, text) \
            == path.read_bytes()
        for name, t in student.named_parameters():
            assert np.array_equal(ckpt.arrays[f"student/{name}"], t.data)

    def test_reference_reader_decodes_the_file(self, tmp_path):
        """The file, walked by the struct-only reference reader: the
        header, then every record in state order with its magic, version,
        extents, dtype tag (float32 state, float64 step) and values."""
        path, run, student, teacher, opt_state, text = self.make(tmp_path, distinct=True)
        step, config_text, records = reference_records(path.read_bytes())
        assert (step, config_text) == (7, text)
        expected = [(f"student/{n}", t.data) for n, t in student.named_parameters()]
        expected += [(f"teacher/{n}", t.data)
                     for n, t in teacher.params.named_parameters()]
        expected += [("teacher/center_cls", teacher.center_cls.data),
                     ("teacher/center_patch", teacher.center_patch.data),
                     ("opt/step", np.array([3.0]))]
        expected += [(f"opt/m/{n}", a) for n, a in opt_state.m.items()]
        expected += [(f"opt/v/{n}", a) for n, a in opt_state.v.items()]
        assert [r[0] for r in records] == [name for name, _ in expected]
        for (name, magic, version, shape, tag, values), (_, want) in zip(records, expected):
            assert (magic, version, shape) == (b"INOT", 1, want.shape), name
            assert tag == (1 if name == "opt/step" else 0), name
            assert values.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("field, value, problem", [
        ("magic", b"XXXX", "record student/patch_proj/weight has magic b'XXXX' version 1, "
                           "want b'INOT' version 1"),
        ("version", b"\x02", "record student/patch_proj/weight has magic b'INOT' "
                             "version 2, want b'INOT' version 1"),
        ("tag", b"\x07", "record student/patch_proj/weight has unknown dtype tag 7"),
        ("name", b"\xff", "corrupt checkpoint ('utf-8' codec can't decode")],
        ids=["magic", "version", "tag", "name"])
    def test_foreign_record_header_names_the_file(self, tmp_path, capsys, field, value,
                                                  problem):
        """A record whose magic, version or dtype tag the loader does not
        know, or whose name is not UTF-8: every loader refuses the file,
        and eval exits 2."""
        path, *_ = self.make(tmp_path)
        buf = bytearray(path.read_bytes())
        start = buf.index(b"INOT")
        offset = start + {"magic": 0, "version": 4, "tag": 6 + 4 * buf[start + 5],
                          "name": -1}[field]
        buf[offset:offset + len(value)] = value
        path.write_bytes(bytes(buf))
        message = f"^{re.escape(str(path))}: {re.escape(problem)}"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match=message):
            params_from_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)]) == 2
        assert f"error: {path}: {problem}" in capsys.readouterr().err

    def test_restore_state_is_bitwise(self, tmp_path):
        """Every record comes back: the restored state re-serializes to
        the file's bytes, with a teacher and centers that differ from
        the student and from zero."""
        path, run, *_ = self.make(tmp_path, distinct=True)
        ckpt = load_checkpoint(path)
        student, teacher, opt_state = restore_state(ckpt, run)
        assert checkpoint_bytes(student, teacher, opt_state, ckpt.step,
                                ckpt.config_text) == path.read_bytes()
        assert all(t.requires_grad for _, t in student.named_parameters())
        assert not any(t.requires_grad for _, t in teacher.params.named_parameters())

    def test_restored_parameters_own_their_data(self, tmp_path):
        """Every restored parameter and center owns aligned, writeable
        data."""
        path, run, *_ = self.make(tmp_path)
        ckpt = load_checkpoint(path)
        student, teacher, _ = restore_state(ckpt, run)
        params, _ = params_from_checkpoint(path)
        tensors = [t for p in (student, teacher.params, params)
                   for _, t in p.named_parameters()]
        tensors += [teacher.center_cls, teacher.center_patch]
        for t in tensors:
            flags = t.data.flags
            assert flags.owndata and flags.aligned and flags.writeable, t.name

    def test_params_from_checkpoint(self, tmp_path):
        path, run, student, _, _, _ = self.make(tmp_path)
        params, loaded_run = params_from_checkpoint(path)
        assert loaded_run == run
        for name, t in params.named_parameters():
            assert not t.requires_grad
            assert np.array_equal(t.data, dict(student.named_parameters())[name].data)

    def test_rejects_foreign_bytes(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"P5 not a checkpoint")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        path, *_ = self.make(tmp_path)
        buf = bytearray(path.read_bytes())
        buf[4] = 9
        path.write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_missing_record_names_the_file(self, tmp_path):
        path, run, student, *_ = self.make(tmp_path)
        path.write_bytes(without_record(path.read_bytes(), student, "head/out_bias"))
        with pytest.raises(CheckpointError, match=f"{path}.*student/head/out_bias"):
            params_from_checkpoint(path)
        with pytest.raises(CheckpointError, match=str(path)):
            restore_state(load_checkpoint(path), run)

    @pytest.mark.parametrize("record, shape", [
        ("teacher/head/out_bias", None), ("teacher/patch_proj/weight", (3, 2)),
        ("teacher/center_cls", None), ("teacher/center_patch", (2,))])
    def test_bad_teacher_record_names_the_file(self, tmp_path, record, shape):
        """A missing (shape None) or mis-shaped teacher record."""
        path, run, *_ = self.make(tmp_path)
        if shape is None:
            rewrite_records(path, dropped(record))
            problem = "is missing"
        else:
            rewrite_records(path, replaced(record, np.zeros(shape, np.float32)))
            problem = "has shape"
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: record {record} {problem}"):
            restore_state(load_checkpoint(path), run)

    @pytest.mark.parametrize("record, problem, edit", [
        ("opt/m/head/out_bias", "has shape",
         replaced("opt/m/head/out_bias", np.zeros(1, np.float32))),
        ("opt/m/head/out_bias", "has shape",
         replaced("opt/m/head/out_bias", np.zeros(3, np.float32))),
        ("opt/step", "has shape", replaced("opt/step", np.zeros(0))),
        ("opt/step", "holds 2.5", replaced("opt/step", np.array([2.5]))),
        ("opt/step", "holds -3.0", replaced("opt/step", np.array([-3.0]))),
        ("opt/step", "holds nan", replaced("opt/step", np.array([np.nan]))),
        ("opt/step", "is missing", dropped("opt/step")),
        ("opt/v/head/out_bias", "is missing", dropped("opt/v/head/out_bias")),
        ("student/extra", "is unexpected",
         lambda records: records + [("student/extra", np.zeros(1, np.float32))]),
        ("student/patch_proj/weight", "is unexpected",
         lambda records: records + records[:1]),
    ], ids=["moment-shape-1", "moment-shape-3", "empty-step", "fractional-step",
            "negative-step", "nan-step", "no-step", "missing-moment", "extra-record",
            "repeated-record"])
    def test_corrupt_record_names_file_and_record(self, dataset_root, tmp_path, capsys,
                                                  record, problem, edit):
        """Every loader refuses the file, and train --resume exits 2
        before it writes anything."""
        out = tmp_path / "o"
        pairs = micro_pairs(dataset_root, out)
        path, run, *_ = self.make(tmp_path, build_run_config(pairs))
        rewrite_records(path, edit)
        message = f"^{re.escape(str(path))}: record {re.escape(record)} {problem}"
        with pytest.raises(CheckpointError, match=message):
            restore_state(load_checkpoint(path), run)
        with pytest.raises(CheckpointError, match=message):
            params_from_checkpoint(path)
        assert main(["train"] + cli_sets(pairs) + ["--resume", str(path)]) == 2
        assert f"{path}: record {record} {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_float64_records_load_as_float32_copies(self, tmp_path):
        """Parameters, centers and moments written as float64 come back
        as owned float32 arrays with the same values."""
        path, run, *_ = self.make(tmp_path, distinct=True)
        original = path.read_bytes()
        rewrite_records(path, lambda records: [
            (n, a if n == "opt/step" else a.astype(np.float64)) for n, a in records])
        ckpt = load_checkpoint(path)
        assert all(a.dtype == np.float64 for a in ckpt.arrays.values())
        student, teacher, opt_state = restore_state(ckpt, run)
        arrays = list(opt_state.m.values()) + list(opt_state.v.values())
        arrays += [t.data for p in (student, teacher.params) for _, t in p.named_parameters()]
        arrays += [teacher.center_cls.data, teacher.center_patch.data]
        for arr in arrays:
            assert arr.dtype == np.float32 and arr.flags.owndata and arr.flags.writeable
        assert checkpoint_bytes(student, teacher, opt_state, ckpt.step,
                                ckpt.config_text) == original

    def test_bad_resume_checkpoint_writes_nothing(self, dataset_root, tmp_path):
        run = build_run_config(micro_pairs(dataset_root, tmp_path / "o"))
        path, run, student, *_ = self.make(tmp_path, run)
        path.write_bytes(without_record(path.read_bytes(), student, "head/out_bias"))
        with pytest.raises(CheckpointError, match="student/head/out_bias"):
            train(run, resume=path)
        assert not (tmp_path / "o").exists()

    def test_truncated_record_names_the_file(self, tmp_path):
        path, *_ = self.make(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(buf[:buf.index(b"student/patch_proj/weight") + 60])
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [
        lambda name: 10,
        lambda name: 17 + 40,
        lambda name: name + 5,
        lambda name: name + len("student/patch_proj/weight") + 7,
        lambda name: name + len("student/patch_proj/weight") + 15 + 10],
        ids=["header", "config-echo", "record-name", "record-header", "values"])
    def test_cut_anywhere_names_the_file(self, tmp_path, capsys, cut):
        """A file cut inside the header, the config echo, a record's name,
        a record's header (INOT, version, rank, two extents, tag: 15 bytes)
        or its values is refused as truncated, and eval exits 2 naming it;
        cut is the length kept, given where the first record's name starts."""
        path, *_ = self.make(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(buf[:cut(buf.index(b"student/patch_proj/weight"))])
        message = f"^{re.escape(str(path))}: truncated"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match=message):
            params_from_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)]) == 2
        assert f"error: {path}: truncated" in capsys.readouterr().err

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path, run, student, teacher, opt_state, text = self.make(tmp_path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("vidcorr.harness.os.replace", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, student, teacher, opt_state, 8, text)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestTrainingLoop:
    def test_same_seed_same_bytes(self, dataset_root, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            train(build_run_config(micro_pairs(dataset_root, out)))
            buf = (out / "checkpoint_001.ckpt").read_bytes()
            (cfg_len,) = struct.unpack_from("<I", buf, 13)
            digests.append((out / "train.log").read_bytes() + buf[:13]
                           + buf[17 + cfg_len:])
        # the config echo embeds the out path, so compare the log and
        # every checkpoint byte but the echo instead of whole files
        assert digests[0] == digests[1]

    def test_artifacts_and_log_shape(self, dataset_root, tmp_path):
        run = build_run_config(micro_pairs(dataset_root, tmp_path / "o"))
        result = train(run)
        assert result.steps == 4  # 4 videos / batch 2 = 2 steps, 2 epochs
        assert (tmp_path / "o" / "config.txt").read_text() \
            == canonical_config_text(run)
        assert [p.name for p in result.checkpoints] \
            == ["checkpoint_000.ckpt", "checkpoint_001.ckpt"]
        for i, line in enumerate(result.log_lines):
            fields = line.split("\t")
            assert len(fields) == 9
            assert int(fields[0]) == i
            assert all(math.isfinite(float(v)) for v in fields[1:8])
            assert fields[8] == "1"  # gate_probability 1.0 masks every clip

    def test_checkpoint_every_zero_keeps_only_the_last(self, dataset_root,
                                                       tmp_path):
        run = build_run_config(micro_pairs(dataset_root, tmp_path / "o",
                                           checkpoint_every=0))
        result = train(run)
        assert [p.name for p in result.checkpoints] == ["checkpoint_001.ckpt"]
        assert not (tmp_path / "o" / "checkpoint_000.ckpt").exists()

    def test_resume_matches_uninterrupted_run(self, dataset_root, tmp_path):
        out = tmp_path / "o"
        pairs = micro_pairs(dataset_root, out)
        run = build_run_config(pairs)
        straight = train(run)
        final_bytes = (out / "checkpoint_001.ckpt").read_bytes()
        for p in out.iterdir():
            p.unlink()

        class Stop(Exception):
            pass

        def interrupt(step, breakdown):
            if step == 2:
                raise Stop

        with pytest.raises(Stop):
            train(build_run_config(pairs), progress=interrupt)
        assert (out / "checkpoint_000.ckpt").exists()
        resumed = train(build_run_config(pairs),
                        resume=out / "checkpoint_000.ckpt")
        assert resumed.steps == 4
        assert resumed.log_lines == straight.log_lines[2:]
        assert (out / "checkpoint_001.ckpt").read_bytes() == final_bytes

    def test_resumed_log_matches_uninterrupted_run(self, dataset_root, tmp_path):
        """The interrupted run logs step 2 after its last checkpoint (at
        step 2); the resumed run logs it again, and train.log keeps it
        once."""
        out = tmp_path / "o"
        pairs = micro_pairs(dataset_root, out)
        train(build_run_config(pairs))
        straight = (out / "train.log").read_bytes()
        for p in out.iterdir():
            p.unlink()

        class Stop(Exception):
            pass

        def interrupt(step, breakdown):
            if step == 2:
                raise Stop

        with pytest.raises(Stop):
            train(build_run_config(pairs), progress=interrupt)
        assert len((out / "train.log").read_text().splitlines()) == 3
        train(build_run_config(pairs), resume=out / "checkpoint_000.ckpt")
        assert (out / "train.log").read_bytes() == straight

    def test_resume_rejects_other_configs(self, dataset_root, tmp_path):
        out = tmp_path / "o"
        train(build_run_config(micro_pairs(dataset_root, out, epochs=1,
                                           **{"opt.warmup_epochs": 0})))
        other = build_run_config(micro_pairs(dataset_root, out,
                                             gate_probability=0.5))
        with pytest.raises(ValueError, match="different config"):
            train(other, resume=out / "checkpoint_000.ckpt")

    def test_training_split_must_not_carry_masks(self, tmp_path):
        spec = random_scene_spec(Rng(1), canvas=16, frames=4, flicker_amplitude=0.25)
        frames, masks = render_scene(spec)
        split = tmp_path / "leaky" / "train"
        split.mkdir(parents=True)
        write_video_dir(split, "video_000", frames, masks=masks)
        write_index(split, ["video_000"])
        run = build_run_config(micro_pairs(tmp_path / "leaky", tmp_path / "o"))
        with pytest.raises(ValueError, match="must not carry masks"):
            train(run)

    def test_g2g_mode_sees_the_same_views(self, dataset_root, tmp_path):
        """At step 0 both modes share weights and, because the frame and
        crop substreams are keyed by path, the same draws; their g2g
        fields must agree to the printed digit while g2g mode zeroes the
        other three terms."""
        lines = {}
        for mode in ("full", "g2g"):
            out = tmp_path / mode
            run = build_run_config(micro_pairs(
                dataset_root, out, epochs=1, loss_mode=mode,
                **{"opt.warmup_epochs": 0}))
            lines[mode] = train(run).log_lines[0].split("\t")
        assert lines["full"][1] == lines["g2g"][1]
        assert lines["g2g"][2:5] == ["0.000000", "0.000000", "0.000000"]
        assert lines["full"][2] != "0.000000"

    @pytest.mark.parametrize("epochs", [2, 3])
    def test_frames_are_decoded_only_by_the_steps(self, dataset_root, tmp_path,
                                                  monkeypatch, epochs):
        """The up-front check reads headers alone, nothing is decoded
        before step 0, and a step decodes at most its clips' frames."""
        import vidcorr.harness as harness

        reads = count_reads(monkeypatch)
        sources = load_store(dataset_root / "train")
        assert all(source.check() == (16, 16, 3) for source in sources)
        assert not reads
        step_reads = []

        def counted_step(*args):
            before = sum(reads.values())
            # nothing was decoded outside a step: before step 0 nothing at all
            assert before == sum(step_reads)
            result = train_step(*args)
            step_reads.append(sum(reads.values()) - before)
            return result

        monkeypatch.setattr(harness, "train_step", counted_step)
        run = build_run_config(micro_pairs(dataset_root, tmp_path / "o", epochs=epochs))
        assert train(run).steps == len(step_reads) == 2 * epochs
        assert all(0 < n <= run.batch * run.view.clip_len for n in step_reads)
        assert sum(reads.values()) == sum(step_reads)

    def test_poisoned_weights_fail_loudly(self, dataset_root):
        """NaN parameters do not propagate silently: the first softmax
        in the forward pass rejects them before any loss is formed."""
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        sources = load_store(Path(run.data) / "train")
        student, teacher, opt_state = micro_state(run)
        dict(student.named_parameters())["patch_proj/weight"].data[0, 0] = np.nan
        schedule = Schedule(run.opt, run.batch, run.view.clip_len, steps_per_epoch=2,
                            total_epochs=run.epochs)
        with pytest.raises(ValueError, match="non-finite"):
            train_step(0, [source.frames() for source in sources[:2]], student,
                       teacher, run, schedule, opt_state, Rng(run.seed))

    def test_nonfinite_gradient_skips_step(self, dataset_root, monkeypatch, caplog):
        """A NaN gradient skips the update: train_step returns applied
        False, leaves the student, the teacher, both centers and the
        optimizer state as they were, and warns naming the train step
        and the parameter."""
        import vidcorr.harness as harness

        run = build_run_config(micro_pairs(dataset_root, "unused"))
        group = [source.frames() for source in load_store(Path(run.data) / "train")[:2]]
        student, teacher, opt_state = micro_state(run)
        backward = harness.backward

        def poisoned(loss):
            backward(loss)
            dict(student.named_parameters())["head/out_bias"].grad[1] = np.nan

        monkeypatch.setattr(harness, "backward", poisoned)
        assert skipped_step_message(run, group, student, teacher, opt_state, caplog) \
            == "train step 3 skipped: non-finite gradient in head/out_bias"

    def test_nonfinite_loss_skips_step(self, dataset_root, monkeypatch, caplog):
        """The loss rail: a NaN total (which a training forward cannot
        produce, as it raises first) skips the update as a NaN gradient
        does, before any backward pass."""
        import vidcorr.harness as harness

        run = build_run_config(micro_pairs(dataset_root, "unused"))
        group = load_store(Path(run.data) / "train")[:2]
        student, teacher, opt_state = micro_state(run)
        step_losses = harness.step_losses

        def nan_total(*args):
            breakdown, t_cls, t_patch = step_losses(*args)
            return replace(breakdown, total=scale(breakdown.total, np.nan)), t_cls, t_patch

        monkeypatch.setattr(harness, "step_losses", nan_total)
        monkeypatch.setattr(harness, "backward", lambda loss: pytest.fail("backward ran"))
        assert skipped_step_message(run, group, student, teacher, opt_state, caplog) \
            == "train step 3 skipped: non-finite loss"

    def test_three_skipped_steps_abort(self, dataset_root, tmp_path,
                                       monkeypatch):
        """The loop tolerates isolated skipped updates but gives up after
        three in a row, leaving the log as the post-mortem."""
        from vidcorr.objectives import total_loss, zero_loss

        def never_applies(step, group, student, teacher, run, opt_config,
                          opt_state, rng):
            zero = zero_loss(np.float32)
            breakdown = total_loss(zero, zero, zero, zero)
            return breakdown, 0.1, 0.04, True, False

        monkeypatch.setattr("vidcorr.harness.train_step", never_applies)
        run = build_run_config(micro_pairs(dataset_root, tmp_path / "o",
                                           epochs=4))
        with pytest.raises(RuntimeError, match="non-finite"):
            train(run)
        lines = (tmp_path / "o" / "train.log").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("skipped") for line in lines)


class TestEvaluation:
    def test_untrained_scores_are_well_formed(self, dataset_root):
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        prop = PropagationConfig(top_k=3, context_size=2, radius=4)
        scores, text = evaluate(params, run.model, prop, dataset_root / "val")
        assert len(scores.tracks) >= 2
        assert 0.0 <= scores.j_mean <= 1.0 and 0.0 <= scores.f_mean <= 1.0
        footer = text.strip().splitlines()[-1].split("\t")
        assert len(footer) == 5
        assert float(footer[1]) == pytest.approx(scores.j_mean, abs=5e-5)

    def test_scores_only_objects_of_the_first_mask(self, tmp_path):
        """An object hidden in frame 0 is never propagated, so it is not
        scored; the first mask here holds ids 2 and 3, later masks 1 too."""
        g = np.random.default_rng(7)
        frames = [g.uniform(size=(16, 16, 3)).astype(np.float32) for _ in range(4)]
        first = np.zeros((16, 16), dtype=np.uint8)
        first[:8, :8], first[8:, 8:] = 2, 3
        later = first.copy()
        later[:4, 12:] = 1
        write_video_dir(tmp_path, "video_000", frames, [first] + [later] * 3)
        write_index(tmp_path, ["video_000"])
        run = build_run_config(micro_pairs(tmp_path, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        prop = PropagationConfig(top_k=3, context_size=2, radius=4)
        scores, _ = evaluate(params, run.model, prop, tmp_path)
        assert [t.object_id for t in scores.tracks] == [2, 3]

    def test_evaluate_reads_each_file_once(self, dataset_root, monkeypatch):
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        prop = PropagationConfig(top_k=3, context_size=2, radius=4)
        reads = count_reads(monkeypatch)
        evaluate(params, run.model, prop, dataset_root / "val")
        files = sorted((dataset_root / "val").glob("*/*_*.p[gp]m"))
        assert len(files) == 24 and reads == Counter(files)

    def test_eval_needs_masks(self, dataset_root):
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        with pytest.raises(ValueError, match="mask"):
            evaluate(params, run.model, run.prop, dataset_root / "train")

    def test_propagate_and_save_writes_one_mask_per_frame(self, dataset_root,
                                                          tmp_path):
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        prop = PropagationConfig(top_k=3, context_size=2, radius=4)
        paths = propagate_and_save(params, run.model, prop,
                                   dataset_root / "val" / "video_000",
                                   tmp_path / "pred")
        assert len(paths) == 6
        first = read_pgm(paths[0])
        assert first.shape == (16, 16)
        assert first.max() >= 1  # the seeded object survives quantization

    def test_propagated_masks_score_as_evaluate_scored_them(self, dataset_root,
                                                           tmp_path):
        """propagate and eval share one video path: the masks written for
        a val video give evaluate's J/F lists for that video exactly."""
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        prop = PropagationConfig(top_k=3, context_size=2, radius=4)
        scores, _ = evaluate(params, run.model, prop, dataset_root / "val")
        source = VideoSource(dataset_root / "val" / "video_001")
        paths = propagate_and_save(params, run.model, prop, source.directory,
                                   tmp_path / "pred")
        pred = [read_pgm(path) for path in paths]
        truth = [source.mask(i) for i in range(len(source))]
        tracks = [t for t in scores.tracks if t.sequence == source.source_id]
        assert tracks
        for track in tracks:
            again = score_track(pred, truth, track.object_id, sequence=source.source_id)
            assert again.j_frames == track.j_frames
            assert again.f_frames == track.f_frames

    def test_frames_are_encoded_in_token_budget_stacks(self, tmp_path, monkeypatch):
        """32 px frames at 4 px patches hold 65 tokens, so
        extract_inference_features encodes a video's frames three to a
        forward: predict_masks hands it a 7-frame video once, which goes
        3 + 3 + 1 with one position-embedding resize, and gets the masks
        that encoding each frame alone gives."""
        import vidcorr.encoder as encoder
        import vidcorr.harness as harness

        g = np.random.default_rng(11)
        frames = [g.uniform(size=(32, 32, 3)).astype(np.float32) for _ in range(7)]
        first = np.zeros((32, 32), dtype=np.uint8)
        first[4:20, 8:24], first[20:, :12] = 1, 2
        video = VideoSource(write_video_dir(tmp_path, "video_000", frames, [first])).frames()
        run = build_run_config(micro_pairs(tmp_path, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        prop = PropagationConfig(top_k=3, context_size=2, radius=2)

        videos, stacks, resizes = [], [], []
        extract, patchify = harness.extract_inference_features, encoder.patchify_batch
        resize = encoder.patch_pos_embed

        def recording(images, *args):
            videos.append(len(images))
            return extract(images, *args)

        def patchify_recording(images, *args):
            stacks.append(len(images))
            return patchify(images, *args)

        def resize_recording(*args):
            resizes.append(args[2])
            return resize(*args)

        monkeypatch.setattr(harness, "extract_inference_features", recording)
        monkeypatch.setattr(encoder, "patchify_batch", patchify_recording)
        monkeypatch.setattr(encoder, "patch_pos_embed", resize_recording)
        masks = harness.predict_masks(video, first, params, run.model, prop)
        assert videos == [7] and stacks == [3, 3, 1] and resizes == [(8, 8)]

        alone = [extract(frame, params, run.model).data for frame in video]
        together = extract(video, params, run.model).data
        for got, want in zip(together, alone):
            assert np.array_equal(got, want)
        want = [harness.labels_to_mask(m, run.model.patch_size)
                for m in propagate_video(alone, first, prop)]
        assert len(masks) == len(want) == 7
        for got, ref in zip(masks, want):
            assert np.array_equal(got, ref)

    def test_masks_are_written_through_the_views_module(self, dataset_root,
                                                        tmp_path, monkeypatch):
        """propagate_and_save looks write_pgm up on vidcorr.views at call
        time, so a wrapper set there sees every mask it writes."""
        import vidcorr.views as views

        written = []
        write_pgm = views.write_pgm

        def counting(path, mask):
            written.append(path)
            return write_pgm(path, mask)

        monkeypatch.setattr(views, "write_pgm", counting)
        run = build_run_config(micro_pairs(dataset_root, "unused"))
        params = EncoderParams.init(run.model, Rng(3).substream("init"),
                                    requires_grad=False)
        paths = propagate_and_save(params, run.model, run.prop,
                                   dataset_root / "val" / "video_000",
                                   tmp_path / "pred")
        assert len(paths) == 6
        assert written == paths


def without_record(buf, student, name):
    """Checkpoint bytes with the record student/<name> cut out."""
    one = io.BytesIO()
    _write_checkpoint(one, [(f"student/{name}", student[name].data)], 0, "")
    entry = one.getvalue()[17:]
    assert buf.count(entry) == 1
    return buf.replace(entry, b"")


def cli_sets(pairs):
    args = []
    for key, value in pairs.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        args += ["--set", f"{key}={value}"]
    return args


class TestCli:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["bogus-command"]) == 1

    def test_gen_data(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "3",
                     "--train-videos", "2", "--eval-videos", "1",
                     "--canvas", "16", "--frames", "4"])
        assert code == 0
        assert "2 training videos" in capsys.readouterr().out
        assert (tmp_path / "d" / "train" / "videos.txt").exists()
        assert (tmp_path / "d" / "val" / "video_000" / "mask_00000.pgm").exists()

    def test_train_eval_propagate_pipeline(self, dataset_root, tmp_path,
                                           capsys):
        out = tmp_path / "run"
        pairs = micro_pairs(dataset_root, out, epochs=1,
                            **{"opt.warmup_epochs": 0})
        assert main(["train"] + cli_sets(pairs)) == 0
        stdout = capsys.readouterr().out
        assert "trained 2 steps" in stdout
        ckpt = out / "checkpoint_000.ckpt"
        assert str(ckpt) in stdout

        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(dataset_root)]) == 0
        assert "J&F_m" in capsys.readouterr().out

        pred = tmp_path / "pred"
        assert main(["propagate", "--checkpoint", str(ckpt),
                     "--video", str(dataset_root / "val" / "video_000"),
                     "--out", str(pred)]) == 0
        assert "wrote 6 masks" in capsys.readouterr().out
        assert len(list(pred.glob("mask_*.pgm"))) == 6

    # Each bad --set value over the micro run, under which a good value
    # trains and writes config.txt and train.log: an unknown key, a
    # missing '=', no data, one epoch under the single warmup epoch, no
    # epochs, a zero rate, a beta past 1, mask ratios that are not a pair
    # 0 <= lo <= hi <= 1, a center momentum past 1, model sizes that would
    # divide by zero or fail in numpy mid-run, crop sizes that are not
    # positive multiples of the 4-pixel patch, jitter strengths outside
    # [0, 1], and values not of their key's type: fractions or float text
    # for integer keys, a bool for a float key, non-finite floats.
    @pytest.mark.parametrize("bad", [
        "bogus_key=1", "no-equals-sign", "data=", "epochs=1", "epochs=0",
        "opt.lr_scale_constant=0", "opt.beta1=1.5", "mask_ratio=0.5,1.5",
        "mask_ratio=0.6,0.2", "mask_ratio=-0.5,0.2", "mask_ratio=0.3",
        "center_momentum=5.0", "model.heads=0", "model.embed_dim=0",
        "model.mlp_ratio=0", "model.proj_dim=0", "model.proj_hidden=-1",
        "view.global_size=18", "view.global_size=0", "view.local_size=30",
        "view.local_size=0", "view.brightness=-1", "view.brightness=2",
        "view.contrast=-1", "view.saturation=2",
        "batch=2.5", "view.clip_len=4.0", "view.locals_per_frame=1.5",
        "model.depth=2.0", "model.patch_size=4.0", "prop.top_k=2.5",
        "checkpoint_every=0.5", "seed=1.5", "gate_probability=true",
        "temp.student=inf", "temp.student=nan", "prop.temperature=nan",
        "prop.include_first_frame=1"])
    def test_usage_errors_exit_1(self, bad, dataset_root, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train"] + cli_sets(micro_pairs(dataset_root, out))
                    + ["--set", bad]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        "--canvas=4", "--canvas=7", "--frames=0", "--flicker=1.5", "--flicker=1",
        "--flicker=-0.5", "--train-videos=-2", "--eval-videos=-1"])
    def test_gen_data_usage_errors_exit_1(self, bad, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out), "--frames", "4", bad]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5"])
    @pytest.mark.parametrize("command", ["gen-data", "train", "grad-check"])
    def test_seed_outside_range_exits_1(self, command, seed, dataset_root, tmp_path,
                                        capsys):
        """Every --seed takes an integer in [0, 2**64), refused before
        any work with a message that names the option."""
        out = tmp_path / "out"
        argv = {"gen-data": ["gen-data", "--out", str(out), "--frames", "4"],
                "train": ["train"] + cli_sets(micro_pairs(dataset_root, out)),
                "grad-check": ["grad-check"]}[command]
        assert main(argv + ["--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: seed must be an integer in [0, 2**64), got '{seed}'" \
            in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["seed=-1", f"seed={2 ** 64}", "view.local_scale=0.5",
                                     "view.global_scale=0.8,0.9,0.95"])
    def test_bad_value_names_its_key(self, bad, dataset_root, tmp_path, capsys):
        """A seed out of range, or a pair key given one or three numbers,
        is a usage error whose message starts with the key."""
        out = tmp_path / "out"
        assert main(["train"] + cli_sets(micro_pairs(dataset_root, out))
                    + ["--set", bad]) == 1
        key = bad.split("=")[0]
        assert re.search(f"usage error: {re.escape(key)} ", capsys.readouterr().err)
        assert not out.exists()

    def inference_inputs(self, tmp_path, canvas, frames):
        """(data root, checkpoint) of an eval split and a micro-model
        checkpoint with 4-pixel patches."""
        data = tmp_path / "d"
        gen_synthetic_dataset(data, seed=1, train_videos=0, eval_videos=1,
                              canvas=canvas, frames=frames)
        run = build_run_config(micro_pairs(data, tmp_path / "o"))
        student, teacher, opt_state = micro_state(run)
        ckpt = save_checkpoint(tmp_path / "ck.ckpt", student, teacher, opt_state, 1,
                               canonical_config_text(run))
        return data, ckpt

    def no_encoding(self, monkeypatch):
        import vidcorr.harness as harness

        def refuse(*args):
            raise AssertionError("a frame was encoded")
        monkeypatch.setattr(harness, "extract_inference_features", refuse)

    def test_one_frame_eval_video_names_the_video(self, tmp_path, monkeypatch, capsys):
        data, ckpt = self.inference_inputs(tmp_path, canvas=16, frames=1)
        self.no_encoding(monkeypatch)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"error: {data / 'val' / 'video_000'}: a track needs a frame beyond " \
            "the first" in err

    @pytest.mark.parametrize("command", ["eval", "propagate"])
    def test_frames_off_the_patch_grid_name_the_video(self, command, tmp_path,
                                                      monkeypatch, capsys):
        data, ckpt = self.inference_inputs(tmp_path, canvas=10, frames=3)
        self.no_encoding(monkeypatch)
        video = data / "val" / "video_000"
        argv = {"eval": ["--data", str(data)],
                "propagate": ["--video", str(video), "--out", str(tmp_path / "pred")]}
        assert main([command, "--checkpoint", str(ckpt)] + argv[command]) == 2
        err = capsys.readouterr().err
        assert f"error: {video}: crop 10x10 not divisible by patch size 4" in err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("data, out", [("2024", "123"), ("true", "a,b"),
                                           ("1.5", "true")])
    def test_paths_are_text(self, dataset_root, tmp_path, monkeypatch, capsys,
                            data, out):
        """data and out are taken as text, whatever they look like."""
        monkeypatch.chdir(tmp_path)
        shutil.copytree(dataset_root, data)
        pairs = micro_pairs(data, out, epochs=1, **{"opt.warmup_epochs": 0})
        assert main(["train"] + cli_sets(pairs)) == 0
        assert (Path(out) / "checkpoint_000.ckpt").exists()
        assert f"out = {out}\n" in (Path(out) / "config.txt").read_text()

    def test_resume_under_an_equal_value_written_otherwise(self, dataset_root,
                                                           tmp_path):
        """A run set with gate_probability=1 resumes under 1.0."""
        out = tmp_path / "o"
        pairs = micro_pairs(dataset_root, out)
        assert main(["train"] + cli_sets(pairs) + ["--set", "gate_probability=1"]) == 0
        final = (out / "checkpoint_001.ckpt").read_bytes()
        assert main(["train"] + cli_sets(pairs) + ["--set", "gate_probability=1.0",
                     "--resume", str(out / "checkpoint_000.ckpt")]) == 0
        assert (out / "checkpoint_001.ckpt").read_bytes() == final

    def test_training_video_shorter_than_clip_exits_2(self, tmp_path, capsys):
        data, out = tmp_path / "d", tmp_path / "o"
        assert main(["gen-data", "--out", str(data), "--frames", "5", "--canvas", "16",
                     "--train-videos", "2", "--eval-videos", "1"]) == 0
        # the default clip spans (4 - 1) * 8 + 1 = 25 frames
        assert main(["train", "--set", f"data={data}", "--set", f"out={out}"]) == 2
        err = capsys.readouterr().err
        assert str(data / "train" / "video_000") in err and "clip span 25" in err
        assert not out.exists()

    def test_empty_training_index_exits_2(self, tmp_path, capsys):
        data, out = tmp_path / "d", tmp_path / "o"
        (data / "train").mkdir(parents=True)
        write_index(data / "train", [])
        assert main(["train", "--set", f"data={data}", "--set", f"out={out}"]) == 2
        assert str(data / "train" / "videos.txt") in capsys.readouterr().err
        assert not out.exists()

    def test_fewer_training_videos_than_batch_exits_2(self, tmp_path, capsys):
        """A step would train on 3 clips while the lr is scaled for 8."""
        data, out = tmp_path / "d", tmp_path / "o"
        assert main(["gen-data", "--out", str(data), "--frames", "25", "--canvas", "16",
                     "--train-videos", "3", "--eval-videos", "1"]) == 0
        capsys.readouterr()
        assert main(["train", "--set", f"data={data}", "--set", f"out={out}",
                     "--set", "batch=8"]) == 2
        err = capsys.readouterr().err
        assert str(data / "train" / "videos.txt") in err
        assert "3 training videos" in err and "batch 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "nan", "-0.001", "inf", "-inf", "tiny"])
    def test_grad_check_step_must_be_finite_and_positive(self, step, capsys):
        assert main(["grad-check", f"--step={step}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--step" in captured.err

    def test_runtime_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nothing.ckpt"
        assert main(["eval", "--checkpoint", str(missing),
                     "--data", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def eval_broken(self, tmp_path, capsys, damage):
        run = build_run_config(micro_pairs(tmp_path, tmp_path / "o"))
        student, teacher, opt_state = micro_state(run)
        path = save_checkpoint(tmp_path / "ck.ckpt", student, teacher, opt_state,
                               1, canonical_config_text(run))
        path.write_bytes(damage(path.read_bytes(), student))
        code = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)])
        err = capsys.readouterr().err
        assert str(path) in err and "usage error" not in err
        return code

    def test_checkpoint_missing_a_record_exits_2(self, tmp_path, capsys):
        assert self.eval_broken(
            tmp_path, capsys,
            lambda buf, student: without_record(buf, student, "cls_token")) == 2

    def test_checkpoint_cut_mid_record_exits_2(self, tmp_path, capsys):
        assert self.eval_broken(
            tmp_path, capsys,
            lambda buf, student: buf[:buf.index(b"student/mask_token") + 30]) == 2

    @pytest.mark.parametrize("name, damage", [
        ("frame_00003.ppm", lambda buf: buf[:-10]),
        ("mask_00002.pgm", lambda buf: buf.replace(b"\n16 ", b"\nxx ", 1)),
        # 10 px is off the 4-px patch grid; 8 px fits it but not the frame
        ("mask_00000.pgm", lambda buf: cropped_pnm(buf, 10)),
        ("mask_00003.pgm", lambda buf: cropped_pnm(buf, 8)),
        # 12 px fits the patch grid but not the first frame's 16 px
        ("frame_00003.ppm", lambda buf: cropped_pnm(buf, 12)),
    ], ids=["truncated-frame", "non-integer-mask-header", "first-mask-off-grid",
            "mask-smaller-than-frame", "frame-smaller-than-first"])
    def test_corrupt_video_file_exits_2(self, dataset_root, tmp_path, capsys,
                                        name, damage):
        data = tmp_path / "data"
        shutil.copytree(dataset_root / "val", data / "val")
        path = data / "val" / "video_001" / name
        broken = damage(path.read_bytes())
        assert broken != path.read_bytes()
        path.write_bytes(broken)
        run = build_run_config(micro_pairs(data, tmp_path / "o"))
        ckpt = save_checkpoint(tmp_path / "ck.ckpt", *micro_state(run), 1,
                               canonical_config_text(run))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "usage error" not in err

    @pytest.mark.parametrize("damage", [
        lambda buf: cropped_pnm(buf, 12),
        lambda buf: buf[:-10],
    ], ids=["frame-smaller-than-first", "truncated-frame"])
    def test_corrupt_training_frame_exits_2(self, dataset_root, tmp_path, capsys,
                                            damage):
        """A broken training frame stops train before it writes anything,
        whether or not a step would sample it."""
        data, out = tmp_path / "data", tmp_path / "o"
        shutil.copytree(dataset_root / "train", data / "train")
        path = data / "train" / "video_001" / "frame_00003.ppm"
        path.write_bytes(damage(path.read_bytes()))
        assert main(["train"] + cli_sets(micro_pairs(data, out))) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "usage error" not in err
        assert not out.exists()

    def test_frame_numbering_gap_exits_2(self, dataset_root, tmp_path, capsys):
        """A training video whose frame numbering has a gap stops train
        before it writes anything, naming the directory and the file."""
        data, out = tmp_path / "data", tmp_path / "o"
        shutil.copytree(dataset_root / "train", data / "train")
        directory = data / "train" / "video_001"
        (directory / "frame_00003.ppm").unlink()
        assert main(["train"] + cli_sets(micro_pairs(data, out))) == 2
        err = capsys.readouterr().err
        assert f"{directory}: frame_00003.ppm missing" in err and "usage error" not in err
        assert not out.exists()

    def test_training_frame_resized_after_the_check_exits_2(self, dataset_root, tmp_path,
                                                           capsys, monkeypatch):
        """A frame that changes size between train's up-front check and
        the step that samples it fails that step loudly, naming the file:
        train() raises ValueError, and the CLI exits 2."""
        import vidcorr.harness as harness

        data = tmp_path / "data"
        pairs = micro_pairs(data, tmp_path / "o")
        step_fn = harness.train_step

        def fresh_data():
            shutil.rmtree(data, ignore_errors=True)
            shutil.copytree(dataset_root / "train", data / "train")

        def shrinking_step(step, *args):
            if step == 1:
                for path in (data / "train").glob("*/frame_*.ppm"):
                    path.write_bytes(cropped_pnm(path.read_bytes(), 12))
            return step_fn(step, *args)

        monkeypatch.setattr(harness, "train_step", shrinking_step)
        fresh_data()
        with pytest.raises(ValueError) as raised:
            train(build_run_config(pairs))
        fresh_data()
        assert main(["train"] + cli_sets(pairs)) == 2
        for message in (str(raised.value), capsys.readouterr().err):
            named = re.search(r"(\S+\.ppm): frame shape \(12, 12\) differs", message)
            assert named and Path(named.group(1)).parent.parent == data / "train"

    def test_train_resume_matches_uninterrupted_run(self, dataset_root, tmp_path,
                                                    monkeypatch, capsys):
        """A run cut at step 2 and continued with train --resume ends with
        the last checkpoint and train.log of an uninterrupted run."""
        import vidcorr.harness as harness

        out = tmp_path / "o"
        args = ["train"] + cli_sets(micro_pairs(dataset_root, out))
        assert main(args) == 0
        final = (out / "checkpoint_001.ckpt").read_bytes()
        log = (out / "train.log").read_bytes()
        for p in out.iterdir():
            p.unlink()

        step_fn = harness.train_step

        def cut_at_step_2(step, *rest):
            if step == 2:
                raise RuntimeError("interrupted")
            return step_fn(step, *rest)

        monkeypatch.setattr(harness, "train_step", cut_at_step_2)
        assert main(args) == 2
        assert not (out / "checkpoint_001.ckpt").exists()
        monkeypatch.undo()
        assert main(args + ["--resume", str(out / "checkpoint_000.ckpt")]) == 0
        assert (out / "checkpoint_001.ckpt").read_bytes() == final
        assert (out / "train.log").read_bytes() == log

    def test_resume_under_another_config_exits_2(self, dataset_root, tmp_path,
                                                 capsys):
        out = tmp_path / "o"
        pairs = micro_pairs(dataset_root, out, epochs=1, **{"opt.warmup_epochs": 0})
        assert main(["train"] + cli_sets(pairs)) == 0
        config = (out / "config.txt").read_bytes()
        ckpt = out / "checkpoint_000.ckpt"
        capsys.readouterr()
        other = cli_sets({**pairs, "gate_probability": 0.5})
        assert main(["train", "--resume", str(ckpt)] + other) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "different config" in err
        assert (out / "config.txt").read_bytes() == config

    def test_grad_check_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_readme_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        """Every command of the README's quick start exits 0, run as
        written from a directory that holds examples/ as the repository
        root does."""
        shutil.copytree(REPO / "examples", tmp_path / "examples")
        monkeypatch.chdir(tmp_path)
        commands = readme_quick_start()
        assert [argv[0] for argv in commands] == [
            "gen-data", "train", "eval", "propagate", "grad-check"]
        for argv in commands:
            assert main(argv) == 0, shlex.join(argv)
        assert "J&F_m" in capsys.readouterr().out
