"""Run configuration, the training loop, checkpointing, and evaluation.

Config files are flat "key = value" text with dotted namespaces
(view.*, model.*, temp.*, opt.*, prop.*) plus a handful of top-level
run keys. Every random draw descends from the single run seed through
named substreams keyed by step number, so training is reproducible
byte-for-byte and resumable mid-run without replaying work.
"""

import math
import os
import struct
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from vidcorr.encoder import (
    EncoderParams,
    ModelConfig,
    apply_mask_tokens,
    extract_inference_features,
    forward_batch,
    param_specs,
    patchify_batch,
    token_rows,
)
from vidcorr.metrics import aggregate, report, score_track
from vidcorr.numerics import (
    DEFAULT_DTYPE,
    Rng,
    Tensor,
    add,
    backward,
    l2_normalize_rows,
    named_list_bytes,
    narrow,
    parse_named_list,
    reshape,
    scale,
)
from vidcorr.objectives import (
    TeacherState,
    TemperatureConfig,
    build_affinity,
    center_update,
    ema_update,
    loss_in_aff,
    loss_in_mim,
    loss_out_g2g,
    loss_out_l2g,
    student_distribution,
    teacher_distribution,
    total_loss,
    zero_loss,
)
from vidcorr.optimizer import (
    OptimizerConfig,
    OptState,
    Schedule,
    adamw_step,
    lr_at,
    wd_at,
)
from vidcorr.propagation import PropagationConfig, labels_to_mask, propagate_video
from vidcorr import views
from vidcorr.views import (
    VideoSource,
    ViewConfig,
    load_store,
    make_crops,
    make_frame_pairs,
    sample_clip,
    sample_clip_masks,
)

from .synthetic import gen_synthetic_dataset  # noqa: F401


# -- configuration ---------------------------------------------------------------


@dataclass
class RunConfig:
    """Every setting of a run: the top-level keys, then one dataclass per
    dotted section, each key with one default and one check. The checks
    here span keys (warmup_epochs < epochs, crop sizes in whole patches)
    or belong to no section (mask_ratio a pair with 0 <= lo <= hi <= 1,
    both momenta in [0, 1]). canonical_config_text echoes this order."""

    seed: int = 0
    epochs: int = 2
    batch: int = 2
    data: str = ""
    out: str = "run_out"
    ema_momentum: float = 0.996
    center_momentum: float = 0.9
    gate_probability: float = 0.5
    mask_ratio: tuple = (0.1, 0.5)
    loss_mode: str = "full"
    checkpoint_every: int = 1
    view: ViewConfig = field(default_factory=ViewConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    temp: TemperatureConfig = field(default_factory=TemperatureConfig)
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    prop: PropagationConfig = field(default_factory=PropagationConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be positive")
        if self.opt.warmup_epochs >= self.epochs:
            raise ValueError(f"warmup_epochs {self.opt.warmup_epochs} must lie in "
                             f"[0, epochs {self.epochs})")
        for name in ("global_size", "local_size"):
            size, patch = getattr(self.view, name), self.model.patch_size
            if size < 1 or size % patch:
                raise ValueError(f"view.{name} = {size} must be a positive multiple "
                                 f"of model.patch_size = {patch}")
        if not 0.0 <= self.gate_probability <= 1.0:
            raise ValueError("gate_probability must lie in [0, 1]")
        for name in ("ema_momentum", "center_momentum"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        ratio = self.mask_ratio
        if not (isinstance(ratio, tuple) and len(ratio) == 2
                and 0.0 <= ratio[0] <= ratio[1] <= 1.0):
            raise ValueError(f"mask_ratio {ratio!r} must be a pair lo,hi "
                             "with 0 <= lo <= hi <= 1")
        if self.loss_mode not in ("full", "g2g"):
            raise ValueError("loss_mode must be 'full' or 'g2g'")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 keeps only the last epoch)")


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)
             if f.default_factory is not MISSING}
_TOP_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name not in _SECTIONS)
_KEY_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name in _TOP_FIELDS}
_KEY_TYPES.update({f"{section}.{f.name}": f.type for section, cls in _SECTIONS.items()
                   for f in fields(cls)})


def _finite(text):
    value = float(text)
    if math.isfinite(value):
        return value
    raise ValueError(text)


# per declared field type: the parser of a config value's text and what it takes
_PARSERS = {int: (int, "an integer"), float: (_finite, "a finite number"),
            bool: ({"true": True, "false": False}.__getitem__, "true or false"),
            tuple: (lambda text: tuple(map(_finite, text.split(","))),
                    "a comma list of finite numbers"),
            str: (str, "text")}


def _parse_field(key, value):
    """value, as text or as what _format_value writes, parsed by the
    declared type of config key."""
    parse, takes = _PARSERS[_KEY_TYPES[key]]
    text = _format_value(value).strip()
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ValueError(f"{key} = {text!r} is not {takes}") from None


def parse_config_text(text):
    """'key = value' lines into an ordered dict of raw value text; '#'
    starts a comment."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_run_config(pairs):
    """Merge key/value pairs over the defaults, each value parsed by its
    key's type (_parse_field); an unknown key fails loudly."""
    top = {}
    buckets = {name: {} for name in _SECTIONS}
    for key, value in pairs.items():
        if key not in _KEY_TYPES:
            raise KeyError(f"unknown config key {key!r}")
        section, _, name = key.rpartition(".")
        (buckets[section] if section else top)[name] = _parse_field(key, value)
    sections = {name: cls(**buckets[name]) for name, cls in _SECTIONS.items()}
    return RunConfig(**top, **sections)


def load_run_config(path, overrides=None):
    pairs = parse_config_text(Path(path).read_text())
    pairs.update(overrides or {})
    return build_run_config(pairs)


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_config_text(run):
    """Stable, complete key = value dump; checkpoints echo this text so
    a run is reconstructible from its artifacts alone."""
    lines = [f"{name} = {_format_value(getattr(run, name))}" for name in _TOP_FIELDS]
    for section in sorted(_SECTIONS):
        sub = getattr(run, section)
        for f in sorted(fields(type(sub)), key=lambda f: f.name):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(sub, f.name))}")
    return "\n".join(lines) + "\n"


# -- checkpoints -----------------------------------------------------------------

CKPT_MAGIC = b"VCKP"
CKPT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back; the message names it."""


@dataclass
class Checkpoint:
    step: int
    config_text: str
    records: list  # ordered (name, array), read-only views into the file bytes
    path: str = ""


def checkpoint_bytes(student, teacher, opt_state, step, config_text):
    """The file bytes; the optimizer step rides along as a float64
    (exact below 2**53)."""
    records = [(f"student/{n}", t.data) for n, t in student.named_parameters()]
    records += [(f"teacher/{n}", t.data) for n, t in teacher.params.named_parameters()]
    records.append(("teacher/center_cls", teacher.center_cls.data))
    records.append(("teacher/center_patch", teacher.center_patch.data))
    records.append(("opt/step", np.array([opt_state.step], dtype=np.float64)))
    records += [(f"opt/m/{n}", arr) for n, arr in opt_state.m.items()]
    records += [(f"opt/v/{n}", arr) for n, arr in opt_state.v.items()]
    cfg = config_text.encode("utf-8")
    header = (CKPT_MAGIC + bytes([CKPT_VERSION]) + struct.pack("<Q", step)
              + struct.pack("<I", len(cfg)) + cfg)
    return header + named_list_bytes(records)


def save_checkpoint(path, student, teacher, opt_state, step, config_text):
    """Write through a temporary file in the same directory and rename
    it into place, so a crash never leaves a half-written checkpoint."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(checkpoint_bytes(student, teacher, opt_state, step,
                                         config_text))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path):
    buf = Path(path).read_bytes()
    if buf[:4] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(buf) < 17:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    version = buf[4]
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    step, cfg_len = struct.unpack_from("<QI", buf, 5)
    try:
        config_text = buf[17:17 + cfg_len].decode("utf-8")
        records, _ = parse_named_list(buf, 17 + cfg_len)
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint ({e})") from None
    return Checkpoint(step, config_text, records, str(path))


def _read_records(ckpt, model, prefixes):
    """Check every record of ckpt against the layout of model; return,
    one dict per prefix, {name after the prefix: owned float32 copy} of
    the records under it (the records are read-only, mostly misaligned
    views into the file bytes), and the optimizer step. A missing,
    mis-shaped or unexpected record, or a step that is not a nonnegative
    integer, raises a CheckpointError that names the file and the record."""
    specs = param_specs(model)
    layout = {f"{prefix}{name}": shape
              for prefix in ("student/", "teacher/", "opt/m/", "opt/v/")
              for name, shape in specs}
    layout.update({"teacher/center_cls": (model.proj_dim,),
                   "teacher/center_patch": (model.proj_dim,), "opt/step": (1,)})
    records = {}
    for name, arr in ckpt.records:
        if name not in layout or name in records:
            raise CheckpointError(f"{ckpt.path}: record {name} is unexpected")
        records[name] = arr
    for name, shape in layout.items():
        if name not in records:
            raise CheckpointError(f"{ckpt.path}: record {name} is missing")
        if records[name].shape != shape:
            raise CheckpointError(f"{ckpt.path}: record {name} has shape "
                                  f"{records[name].shape}, want {shape}")
    step = float(records["opt/step"][0])
    if not (step >= 0 and step.is_integer()):
        raise CheckpointError(f"{ckpt.path}: record opt/step holds {step}, "
                              "want a nonnegative integer")
    arrays = [{name[len(prefix):]: np.array(arr, dtype=DEFAULT_DTYPE)
               for name, arr in records.items() if name.startswith(prefix)}
              for prefix in prefixes]
    return arrays, int(step)


def _tensors(arrays, requires_grad=False):
    return {name: Tensor(arr, requires_grad, name) for name, arr in arrays.items()}


def restore_state(ckpt, run):
    """Build (student, teacher, opt_state) from checkpoint records."""
    (student, teacher, m, v), step = _read_records(
        ckpt, run.model, ("student/", "teacher/", "opt/m/", "opt/v/"))
    student = EncoderParams(run.model, _tensors(student, requires_grad=True))
    tensors = _tensors(teacher)
    teacher = TeacherState(EncoderParams(run.model, tensors), run.ema_momentum,
                           run.center_momentum,
                           centers=(tensors["center_cls"], tensors["center_patch"]))
    return student, teacher, OptState(m, v, step)


def params_from_checkpoint(path):
    """Inference-side loader: (EncoderParams without gradients, RunConfig)."""
    ckpt = load_checkpoint(path)
    try:
        run = build_run_config(parse_config_text(ckpt.config_text))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config echo ({e})") from None
    (student,), _ = _read_records(ckpt, run.model, ("student/",))
    return EncoderParams(run.model, _tensors(student)), run


# -- the training loop -----------------------------------------------------------


def clip_affinity_loss(t_rows, s_rows, counts, temps):
    """Affinity-consistency loss of one clip from its masked rows.

    t_rows: teacher logits (numpy, no graph) and s_rows: student logits
    (Tensor), both (sum(counts), k), frame by frame with counts[j] rows
    for frame j. Each frame's rows are l2-normalized, and the L - 1
    consecutive-frame affinities of teacher and student go to
    :func:`loss_in_aff`."""
    q_t, q_s = [], []
    offset = 0
    for count in counts:
        q_t.append(l2_normalize_rows(Tensor(t_rows[offset:offset + count])))
        q_s.append(l2_normalize_rows(narrow(s_rows, 0, offset, count)))
        offset += count
    t_aff = [build_affinity(a, b, temps.teacher) for a, b in zip(q_t, q_t[1:])]
    s_aff = [build_affinity(a, b, temps.student) for a, b in zip(q_s, q_s[1:])]
    return loss_in_aff(t_aff, s_aff)


def step_losses(crops, clip_masks, student, teacher, run):
    """The four loss terms of one training step, each averaged over the
    batch of clips.

    crops: per clip the (global, local) crop stacks of
    :func:`vidcorr.views.make_crops`; clip_masks: per clip the
    (clip_len, P) bool masks of :func:`vidcorr.views.sample_clip_masks`,
    or None where the gate is off (always None in g2g mode).
    Returns (breakdown, t_cls, t_patch); the teacher's raw logits also
    feed the center update.

    The teacher head runs on every token, because the center update
    averages all of its patch logits. The student head runs only on the
    rows the losses read: the class tokens of the unmasked globals and
    of the locals, and the masked positions of the mask-token forward.
    """
    view, model, temps = run.view, run.model, run.temp
    clip_len, m_locals = view.clip_len, view.locals_per_frame
    k = model.proj_dim
    pairs = make_frame_pairs(clip_len)
    batch = len(crops)
    global_images = np.concatenate([globals_ for globals_, _ in crops])

    t_cls, t_patch = forward_batch(
        patchify_batch(global_images, teacher.params, model), teacher.params, model)
    td_cls = teacher_distribution(t_cls, teacher, temps, "cls")

    def class_logits(images):
        seq = patchify_batch(images, student, model)
        rows = token_rows(seq, np.arange(seq.batch), 0)
        return forward_batch(seq, student, model, rows=rows)

    s_cls = class_logits(global_images)
    l_cls = None
    if run.loss_mode != "g2g":
        l_cls = class_logits(np.concatenate([locals_ for _, locals_ in crops]))

    # one mask-token forward over the gated-in clips; its rows come out
    # clip by clip, frame by frame, positions ascending, so each clip's
    # block starts at the running sum of the earlier clips' masked counts
    gated = [i for i in range(batch) if clip_masks[i] is not None]
    if gated:
        gated_crops = np.concatenate([np.arange(i * clip_len, (i + 1) * clip_len)
                                      for i in gated])
        masks = np.concatenate([clip_masks[i] for i in gated])
        masked_seq = apply_mask_tokens(
            patchify_batch(global_images[gated_crops], student, model), masks, student)
        crop_idx, patch_idx = np.nonzero(masks)
        s_rows = forward_batch(masked_seq, student, model,
                               rows=token_rows(masked_seq, crop_idx, 1 + patch_idx))
        sd_rows = student_distribution(s_rows, temps)
        t_rows = t_patch.data[gated_crops[crop_idx], patch_idx]

    g2g_terms, l2g_terms, mim_terms, aff_terms = [], [], [], []
    offset = 0
    for i in range(batch):
        td_i = narrow(td_cls, 0, i * clip_len, clip_len)
        sd_i = student_distribution(narrow(s_cls, 0, i * clip_len, clip_len), temps)
        g2g_terms.append(loss_out_g2g(td_i, sd_i, pairs))
        if l_cls is not None:
            loc_i = student_distribution(
                reshape(narrow(l_cls, 0, i * clip_len * m_locals, clip_len * m_locals),
                        (clip_len, m_locals, k)), temps)
            l2g_terms.append(loss_out_l2g(td_i, loc_i, pairs))
        if clip_masks[i] is None:
            continue
        counts = clip_masks[i].sum(axis=1).tolist()
        n_rows = sum(counts)
        tdp_i = teacher_distribution(Tensor(t_rows[offset:offset + n_rows]),
                                     teacher, temps, "patch")
        mim_terms.append(loss_in_mim(tdp_i, narrow(sd_rows, 0, offset, n_rows),
                                     clip_len))
        aff_terms.append(clip_affinity_loss(t_rows[offset:offset + n_rows],
                                            narrow(s_rows, 0, offset, n_rows),
                                            counts, temps))
        offset += n_rows

    def batch_mean(terms):
        if not terms:
            return zero_loss(dtype=t_cls.dtype)
        acc = terms[0]
        for term in terms[1:]:
            acc = add(acc, term)
        return scale(acc, 1.0 / batch)

    breakdown = total_loss(batch_mean(g2g_terms), batch_mean(l2g_terms),
                           batch_mean(mim_terms), batch_mean(aff_terms))
    return breakdown, t_cls, t_patch


def train_step(step, group, student, teacher, run, schedule, opt_state, rng):
    """One optimization step over one clip of each (T, H, W, 3) video in group.

    Returns (breakdown, lr, wd, gated_any, applied); applied is False
    when a non-finite loss or gradient skipped the update."""
    view, model = run.view, run.model
    srng = rng.substream(f"step{step}")
    gh, gw = model.token_grid(view.global_size, view.global_size)

    # g2g mode trains on the global class-token pairs alone; frame and crop
    # draws come from substreams untouched by the skipped mask draw, so both
    # modes see identical views at a given seed
    g2g_only = run.loss_mode == "g2g"

    crops, clip_masks = [], []
    for i, video in enumerate(group):
        crng = srng.substream(f"clip{i}")
        frames = sample_clip(video, crng.substream("frames"), view)
        crops.append(make_crops(frames, crng.substream("crops"), view))
        clip_masks.append(None if g2g_only else sample_clip_masks(
            gh * gw, view.clip_len, crng.substream("mask"),
            run.gate_probability, run.mask_ratio))
    gated = any(masks is not None for masks in clip_masks)

    breakdown, t_cls, t_patch = step_losses(crops, clip_masks, student, teacher, run)
    lr = lr_at(step, schedule)
    wd = wd_at(step, schedule)

    if not np.isfinite(breakdown.total.data):
        return breakdown, lr, wd, gated, False

    backward(breakdown.total)
    grads = {name: t.grad for name, t in student.named_parameters()}
    applied = adamw_step(student, grads, opt_state, lr, wd, run.opt)
    for _, t in student.named_parameters():
        t.zero_grad()
    if applied:
        ema_update(teacher, student)
        center_update(teacher, t_cls, t_patch)
    return breakdown, lr, wd, gated, applied


@dataclass
class TrainResult:
    steps: int
    log_lines: list
    checkpoints: list


def train(run, resume=None, progress=None):
    """Run the full schedule; checkpoints land in run.out every epoch.
    Every training video is read and checked before anything is written,
    and the split must hold at least ``run.batch`` videos.

    resume: a checkpoint from the same config, also checked up front;
    covered steps are skipped without drawing randomness, so a resumed
    run is bitwise identical to an uninterrupted one, train.log
    included. Three consecutive non-finite steps abort."""
    split = Path(run.data) / "train"
    sources = load_store(split)
    if not sources:
        raise ValueError(f"{split / 'videos.txt'}: lists no training videos")
    for source in sources:
        if source.has_masks:
            raise ValueError(
                f"training split must not carry masks: {source.directory}")
        if len(source) < run.view.clip_span:
            raise ValueError(f"{source.directory}: video of {len(source)} frames "
                             f"too short for clip span {run.view.clip_span}")
    if len(sources) < run.batch:
        # every step would train on fewer clips than the lr is scaled for
        raise ValueError(f"{split / 'videos.txt'}: lists {len(sources)} training videos, "
                         f"fewer than batch {run.batch}")
    videos = [source.frames() for source in sources]

    config_text = canonical_config_text(run)
    rng = Rng(run.seed)
    if resume is None:
        student = EncoderParams.init(run.model, rng.substream("init"))
        teacher = TeacherState.from_student(student, run.ema_momentum,
                                            run.center_momentum)
        opt_state, start_step = OptState.init(student), 0
    else:
        ckpt = load_checkpoint(resume)
        if ckpt.config_text != config_text:
            raise CheckpointError(f"{resume}: checkpoint was written under a different config")
        student, teacher, opt_state = restore_state(ckpt, run)
        start_step = ckpt.step
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_text)

    steps_per_epoch = max(1, len(videos) // run.batch)
    schedule = Schedule(run.opt, run.batch, run.view.clip_len, steps_per_epoch,
                        run.epochs)

    log_path = out / "train.log"
    if resume is not None and log_path.exists():
        # lines past the checkpoint's step are logged again below
        kept = log_path.read_text().splitlines(keepends=True)[:start_step]
        log_path.write_text("".join(kept))
    log_lines = []
    checkpoints = []
    skip_streak = 0
    step = 0
    with open(log_path, "a" if resume else "w") as log_fh:
        for epoch in range(run.epochs):
            order = rng.substream(f"epoch{epoch}").permutation(len(videos))
            for b in range(steps_per_epoch):
                if step < start_step:
                    step += 1
                    continue
                group = [videos[j] for j in order[b * run.batch:(b + 1) * run.batch]]
                breakdown, lr, wd, gated, applied = train_step(
                    step, group, student, teacher, run, schedule, opt_state, rng)
                line = breakdown.log_line(step, lr, wd, gated)
                if not applied:
                    skip_streak += 1
                    line += "\tskipped"
                else:
                    skip_streak = 0
                log_fh.write(line + "\n")
                log_lines.append(line)
                if progress:
                    progress(step, breakdown)
                step += 1
                if skip_streak >= 3:
                    raise RuntimeError("aborted after 3 consecutive non-finite steps "
                                       f"(see {log_path})")
            every = run.checkpoint_every
            due = (every > 0 and (epoch + 1) % every == 0) or epoch == run.epochs - 1
            if due and step > start_step:
                path = save_checkpoint(out / f"checkpoint_{epoch:03d}.ckpt",
                                       student, teacher, opt_state, step,
                                       config_text)
                checkpoints.append(path)
    return TrainResult(step, log_lines, checkpoints)


# -- evaluation ------------------------------------------------------------------


def predict_masks(frames, first_mask, params, model_config, prop_config):
    """Object-id masks for every frame of a (T, H, W, 3) video, propagated
    from its (H, W) first-frame mask over the encoder's inference features."""
    features = extract_inference_features(frames, params, model_config).data
    label_maps = propagate_video(features, first_mask, prop_config)
    return [labels_to_mask(lm, model_config.patch_size) for lm in label_maps]


def evaluate(params, model_config, prop_config, eval_root):
    """Label propagation over every eval video, scored against the
    stored masks. Returns (SequenceScores, report text)."""
    tracks = []
    for source in load_store(Path(eval_root)):
        frames = source.frames()
        truth = source.masks(frames)
        pred = predict_masks(frames, truth[0], params, model_config, prop_config)
        # only the objects of the first-frame mask are propagated
        for obj in np.unique(truth[0]):
            if obj:
                tracks.append(score_track(pred, truth, int(obj),
                                          sequence=source.source_id))
    scores = aggregate(tracks)
    return scores, report(scores)


def propagate_and_save(params, model_config, prop_config, video_dir, out_dir):
    """Inference on one video directory: writes predicted mask_*.pgm."""
    source = VideoSource(video_dir)
    frames = source.frames()
    first = source.masks(frames, first_only=True)[0]
    masks = predict_masks(frames, first, params, model_config, prop_config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, mask in enumerate(masks):
        path = out_dir / f"mask_{i:05d}.pgm"
        # looked up at call time, so that a wrapper set on the views
        # module sees every write
        views.write_pgm(path, mask)
        paths.append(path)
    return paths
