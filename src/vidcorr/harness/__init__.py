"""Run configuration, the training loop, checkpointing, and evaluation.

Config files are flat "key = value" text with dotted namespaces
(view.*, model.*, temp.*, opt.*, prop.*) plus a handful of top-level
run keys. Every random draw descends from the single run seed through
named substreams keyed by step number, so training is reproducible
byte-for-byte and resumable mid-run without replaying work.
"""

import io
import logging
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
    narrow,
    reshape,
    scale,
)
from vidcorr.numerics.rng import _seed
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

log = logging.getLogger(__name__)

# -- configuration ---------------------------------------------------------------


@dataclass
class RunConfig:
    """Every setting of a run: the top-level keys, then one dataclass per
    dotted section, each key with one default and one check. The checks
    here span keys (warmup_epochs < epochs, crop sizes in whole patches)
    or belong to no section (the seed, 0 <= lo <= hi <= 1 for mask_ratio,
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
        _seed(self.seed)
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
        lo, hi = self.mask_ratio
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"mask_ratio {self.mask_ratio!r} must have 0 <= lo <= hi <= 1")
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


def _pair(text):
    lo, hi = text.split(",")
    return _finite(lo), _finite(hi)


# per declared field type: the parser of a config value's text and what it takes
_PARSERS = {int: (int, "an integer"), float: (_finite, "a finite number"),
            bool: ({"true": True, "false": False}.__getitem__, "true or false"),
            tuple: (_pair, "a comma list of finite numbers lo,hi"),
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

# A checkpoint file is CKPT_MAGIC, a version byte, the step as uint64, the
# config echo's byte length as uint32 and the UTF-8 config echo, then per
# record: the name's byte length as uint32, the UTF-8 name, _RECORD_MAGIC, a
# version byte, a rank byte, the extents as uint32, a dtype tag byte (an
# index into _DTYPES) and the values in C order. Numbers are little-endian.
CKPT_MAGIC = b"VCKP"
CKPT_VERSION = 1
_RECORD_MAGIC = b"INOT"
_RECORD_VERSION = 1
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back; the message names it."""


@dataclass
class Checkpoint:
    """The header, the (name, shape) of every record in file order, and
    {name: owned, aligned array of the file's dtype} of the records kept."""
    step: int
    config_text: str
    index: list
    arrays: dict
    path: str = ""


def _state_records(student, teacher, opt_state):
    """The (name, array) records of a training state in file order; the
    optimizer step rides along as a float64 (exact below 2**53)."""
    records = [(f"student/{n}", t.data) for n, t in student.named_parameters()]
    records += [(f"teacher/{n}", t.data) for n, t in teacher.params.named_parameters()]
    records.append(("teacher/center_cls", teacher.center_cls.data))
    records.append(("teacher/center_patch", teacher.center_patch.data))
    records.append(("opt/step", np.array([opt_state.step], dtype=np.float64)))
    records += [(f"opt/m/{n}", arr) for n, arr in opt_state.m.items()]
    records += [(f"opt/v/{n}", arr) for n, arr in opt_state.v.items()]
    return records


def _write_checkpoint(fh, records, step, config_text):
    """Write the header, then each (name, array) record with its values
    straight from the array's buffer, to the binary file fh."""
    cfg = config_text.encode("utf-8")
    fh.write(CKPT_MAGIC + struct.pack("<BQI", CKPT_VERSION, step, len(cfg)) + cfg)
    for name, arr in records:
        if arr.dtype not in _DTYPES:
            raise ValueError(f"record {name}: float32 or float64 only, got {arr.dtype}")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)) + encoded + _RECORD_MAGIC
                 + struct.pack(f"<BB{arr.ndim}IB", _RECORD_VERSION, arr.ndim,
                               *arr.shape, _DTYPES.index(arr.dtype)))
        fh.write(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).data)


def checkpoint_bytes(student, teacher, opt_state, step, config_text):
    """The file bytes of a training state."""
    buf = io.BytesIO()
    _write_checkpoint(buf, _state_records(student, teacher, opt_state), step,
                      config_text)
    return buf.getvalue()


def save_checkpoint(path, student, teacher, opt_state, step, config_text):
    """Write through a temporary file in the same directory and rename
    it into place, so a crash never leaves a half-written checkpoint."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint(fh, _state_records(student, teacher, opt_state), step,
                              config_text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _take(fh, n, path, what):
    """The next n bytes of fh, or a CheckpointError if the file ends first."""
    data = fh.read(n)
    if len(data) < n:
        raise CheckpointError(f"{path}: truncated checkpoint ({what}: {len(data)} "
                              f"of {n} bytes)")
    return data


def _load_checkpoint(path, keep):
    """Walk the checkpoint file at path once, reading the values of the
    records whose name starts with keep (a str or a tuple of them) and
    seeking past the others'. A file cut anywhere, text that is not
    UTF-8, or a record with a foreign magic, version or dtype tag raises
    a CheckpointError that names the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(17)
        if head[:4] != CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        if len(head) < 17:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        if head[4] != CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {head[4]}")
        step, cfg_len = struct.unpack_from("<QI", head, 5)
        index, arrays = [], {}
        try:
            config_text = _take(fh, cfg_len, path, "config echo").decode("utf-8")
            while fh.tell() < size:
                (n,) = struct.unpack("<I", _take(fh, 4, path, "record name"))
                name = _take(fh, n, path, "record name").decode("utf-8")
                what = f"record {name}"
                magic, version, rank = struct.unpack("<4sBB", _take(fh, 6, path, what))
                if (magic, version) != (_RECORD_MAGIC, _RECORD_VERSION):
                    raise CheckpointError(f"{path}: {what} has magic {magic!r} version "
                                          f"{version}, want {_RECORD_MAGIC!r} version "
                                          f"{_RECORD_VERSION}")
                *shape, tag = struct.unpack(f"<{rank}IB",
                                            _take(fh, 4 * rank + 1, path, what))
                if tag >= len(_DTYPES):
                    raise CheckpointError(f"{path}: {what} has unknown dtype tag {tag}")
                dtype = _DTYPES[tag].newbyteorder("<")
                nbytes = math.prod(shape) * dtype.itemsize
                if size - fh.tell() < nbytes:
                    raise CheckpointError(f"{path}: truncated checkpoint ({what} values: "
                                          f"{size - fh.tell()} of {nbytes} bytes)")
                index.append((name, tuple(shape)))
                if name.startswith(keep):
                    arrays[name] = np.empty(shape, dtype)
                    fh.readinto(arrays[name])
                else:
                    fh.seek(nbytes, os.SEEK_CUR)
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: corrupt checkpoint ({e})") from None
    return Checkpoint(step, config_text, index, arrays, str(path))


def load_checkpoint(path):
    """Every record of the checkpoint file at path."""
    return _load_checkpoint(path, "")


def _read_records(ckpt, model, prefixes):
    """Check the record index of ckpt against the layout of model; return,
    one dict per prefix, {name after the prefix: float32 values} of the
    kept records under it (a float32 record's own array, a float64 one's
    float32 copy), and the optimizer step. A missing, mis-shaped,
    unexpected or repeated record, or a step that is not a nonnegative
    integer, raises a CheckpointError that names the file and the record."""
    specs = param_specs(model)
    layout = {f"{prefix}{name}": shape
              for prefix in ("student/", "teacher/", "opt/m/", "opt/v/")
              for name, shape in specs}
    layout.update({"teacher/center_cls": (model.proj_dim,),
                   "teacher/center_patch": (model.proj_dim,), "opt/step": (1,)})
    shapes = {}
    for name, shape in ckpt.index:
        if name not in layout or name in shapes:
            raise CheckpointError(f"{ckpt.path}: record {name} is unexpected")
        shapes[name] = shape
    for name, shape in layout.items():
        if name not in shapes:
            raise CheckpointError(f"{ckpt.path}: record {name} is missing")
        if shapes[name] != shape:
            raise CheckpointError(f"{ckpt.path}: record {name} has shape "
                                  f"{shapes[name]}, want {shape}")
    step = float(ckpt.arrays["opt/step"][0])
    if not (step >= 0 and step.is_integer()):
        raise CheckpointError(f"{ckpt.path}: record opt/step holds {step}, "
                              "want a nonnegative integer")
    arrays = [{name[len(prefix):]: arr.astype(DEFAULT_DTYPE, copy=False)
               for name, arr in ckpt.arrays.items() if name.startswith(prefix)}
              for prefix in prefixes]
    return arrays, int(step)


def _tensors(arrays, requires_grad=False):
    return {name: Tensor(arr, requires_grad, name) for name, arr in arrays.items()}


def restore_state(ckpt, run):
    """Build (student, teacher, opt_state) from checkpoint records. The
    state takes over the checkpoint's float32 arrays without a copy, so
    restore one state per loaded checkpoint."""
    (student, teacher, m, v), step = _read_records(
        ckpt, run.model, ("student/", "teacher/", "opt/m/", "opt/v/"))
    student = EncoderParams(run.model, _tensors(student, requires_grad=True))
    tensors = _tensors(teacher)
    teacher = TeacherState(EncoderParams(run.model, tensors), run.ema_momentum,
                           run.center_momentum,
                           centers=(tensors["center_cls"], tensors["center_patch"]))
    return student, teacher, OptState(m, v, step)


def params_from_checkpoint(path):
    """Inference-side loader: (EncoderParams without gradients, RunConfig).
    Every record is checked, but only the student's and the step's
    values are read."""
    ckpt = _load_checkpoint(path, ("student/", "opt/step"))
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
    td_cls = teacher_distribution(t_cls, teacher.center_cls, temps.teacher)

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
                                     teacher.center_patch, temps.teacher)
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
    """One optimization step over one clip of each video in group, each
    a :class:`vidcorr.views.VideoSource` or a (T, H, W, 3) array.

    Returns (breakdown, lr, wd, gated_any, applied). The step alone
    decides whether the update applies: a non-finite loss or gradient
    skips it with a warning that names the step and the reason (the
    parameter, for a gradient), and leaves the student, the teacher,
    both centers and opt_state untouched; applied is then False. The
    loss check is a rail only: a training forward raises on a non-finite
    activation (``forward_batch``, ``softmax_t``) before any loss forms,
    and the cross-entropies clamp their log, so in practice only a
    non-finite gradient skips a step."""
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
        log.warning("train step %d skipped: non-finite loss", step)
        return breakdown, lr, wd, gated, False

    backward(breakdown.total)
    grads = {name: t.grad for name, t in student.named_parameters()}
    for _, t in student.named_parameters():
        t.zero_grad()
    for name, g in grads.items():
        if g is not None and not np.isfinite(g).all():
            log.warning("train step %d skipped: non-finite gradient in %s", step, name)
            return breakdown, lr, wd, gated, False
    adamw_step(student, grads, opt_state, lr, wd, run.opt)
    ema_update(teacher, student)
    center_update(teacher, t_cls, t_patch)
    return breakdown, lr, wd, gated, True


@dataclass
class TrainResult:
    steps: int
    log_lines: list
    checkpoints: list


def train(run, resume=None, progress=None):
    """Run the full schedule; checkpoints land in run.out every epoch.
    Every frame of every training video is checked from its header and
    size before anything is written, and the split must hold at least
    ``run.batch`` videos. A step decodes only the frames its clips
    sample.

    resume: a checkpoint from the same config, also checked up front;
    covered steps are skipped without drawing randomness, so a resumed
    run is bitwise identical to an uninterrupted one, train.log
    included. Three consecutive non-finite steps abort."""
    split = Path(run.data) / "train"
    sources = load_store(split)
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
    for source in sources:
        source.check()

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
        del ckpt  # updates rebind the state's arrays; let the loaded ones go
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_text)

    steps_per_epoch = len(sources) // run.batch
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
            order = rng.substream(f"epoch{epoch}").permutation(len(sources))
            for b in range(steps_per_epoch):
                if step < start_step:
                    step += 1
                    continue
                group = [sources[j] for j in order[b * run.batch:(b + 1) * run.batch]]
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


def _inference_video(source, model_config, first_only):
    """(frames, masks) of one video, every mask for eval or the first for
    propagate, checked before any frame is encoded: frames split into
    whole patches, and an eval video has a frame beyond the first."""
    frames = source.frames()
    try:
        model_config.token_grid(*frames.shape[1:3])
        if len(frames) < 2 and not first_only:
            raise ValueError("a track needs a frame beyond the first")
    except ValueError as e:
        raise ValueError(f"{source.directory}: {e}") from None
    return frames, source.masks(frames, first_only)


def evaluate(params, model_config, prop_config, eval_root):
    """Label propagation over every eval video, scored against the
    stored masks. Returns (SequenceScores, report text)."""
    tracks = []
    for source in load_store(Path(eval_root)):
        frames, truth = _inference_video(source, model_config, first_only=False)
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
    frames, (first,) = _inference_video(VideoSource(video_dir), model_config,
                                        first_only=True)
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
