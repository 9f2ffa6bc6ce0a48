"""Synthetic moving-shapes videos.

Desk-scale stand-in for raw video: a static textured background with
one to three colored shapes drifting across it, velocities reflected at
the borders so every object stays on canvas. Frames go out as PPM,
ground-truth id masks as PGM; training splits omit the masks entirely.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vidcorr.numerics import Rng, bilinear_resize
from vidcorr.views import write_index, write_video_dir

SHAPE_KINDS = ("rectangle", "disc", "triangle")

# Saturated anchors; object colors are drawn near one of these so they
# separate well from the muted background texture.
_COLOR_ANCHORS = np.array([
    [0.95, 0.15, 0.15],
    [0.15, 0.8, 0.2],
    [0.2, 0.3, 0.95],
    [0.95, 0.85, 0.1],
    [0.85, 0.2, 0.85],
    [0.1, 0.85, 0.85],
])


@dataclass
class SyntheticSceneSpec:
    """Everything needed to render one clip deterministically."""

    canvas: int
    frames: int
    texture_seed: int
    shapes: list  # per object: one of SHAPE_KINDS
    sizes: list  # bounding-box side in pixels
    colors: list  # (r, g, b) in [0, 1]
    starts: list  # (y, x) float top-left corners
    velocities: list  # (vy, vx) pixels per frame
    flicker: tuple = ()  # per-frame (r, g, b) gains; empty = constant lighting

    def __post_init__(self):
        n = len(self.shapes)
        if not 1 <= n <= 3:
            raise ValueError(f"scene needs 1..3 objects, got {n}")
        if not (len(self.sizes) == len(self.colors) == len(self.starts)
                == len(self.velocities) == n):
            raise ValueError("per-object lists must share one length")
        for kind in self.shapes:
            if kind not in SHAPE_KINDS:
                raise ValueError(f"unknown shape {kind!r}")
        for size in self.sizes:
            if not 2 <= size <= self.canvas:
                raise ValueError(f"shape size {size} does not fit canvas {self.canvas}")
        if self.flicker and len(self.flicker) != self.frames:
            raise ValueError("flicker needs one gain triple per frame")
        if any(g <= 0 for gains in self.flicker for g in gains):
            raise ValueError("flicker gains must be positive")


def random_scene_spec(rng, canvas, frames, flicker_amplitude):
    """Lighting flicker is the part that makes the corpus nontrivial:
    each frame gets its own (r, g, b) gain triple, as if the light color
    drifted between frames. A uniform brightness change would be washed
    out by feature normalization anyway; independent channel gains
    rotate raw colors, so cross-frame matching has to come from features
    that learned to ignore the lighting."""
    num_objects = int(rng.substream("count").integers(1, 4))
    shapes, sizes, colors, starts, velocities = [], [], [], [], []
    for i in range(num_objects):
        orng = rng.substream(f"object{i}")
        shapes.append(SHAPE_KINDS[int(orng.substream("kind").integers(0, 3))])
        size = int(orng.substream("size").integers(canvas // 4, canvas // 2))
        sizes.append(size)
        anchor = _COLOR_ANCHORS[int(orng.substream("color").integers(0, len(_COLOR_ANCHORS)))]
        wobble = orng.substream("wobble").uniform(-0.08, 0.08, size=3)
        colors.append(tuple(np.clip(anchor + wobble, 0.0, 1.0)))
        span = canvas - size
        starts.append(tuple(orng.substream("start").uniform(0, span, size=2)))
        speed = orng.substream("speed").uniform(0.5, 1.5, size=2)
        sign = np.where(orng.substream("dir").uniform(size=2) < 0.5, -1.0, 1.0)
        velocities.append(tuple(speed * sign))
    flicker = ()
    if flicker_amplitude > 0:
        lo, hi = 1.0 - flicker_amplitude, 1.0 + flicker_amplitude
        gains = rng.substream("flicker").uniform(lo, hi, size=(frames, 3))
        flicker = tuple(tuple(g) for g in gains)
    return SyntheticSceneSpec(
        canvas=canvas, frames=frames,
        texture_seed=int(rng.substream("texture").integers(0, 2 ** 31)),
        shapes=shapes, sizes=sizes, colors=colors,
        starts=starts, velocities=velocities, flicker=flicker)


def _reflect(value, span):
    """Fold a coordinate into [0, span] by mirroring at both ends."""
    if span <= 0:
        return 0.0
    period = 2.0 * span
    value = value % period
    return period - value if value > span else value


def _shape_cells(kind, size):
    """Boolean (size, size) stencil for one shape."""
    yy, xx = np.mgrid[0:size, 0:size]
    if kind == "rectangle":
        return np.ones((size, size), dtype=bool)
    if kind == "disc":
        c = (size - 1) / 2.0
        return (yy - c) ** 2 + (xx - c) ** 2 <= (size / 2.0) ** 2
    return xx <= yy  # right triangle, right angle at the lower left


def _background(canvas, texture_seed):
    rng = Rng(texture_seed)
    coarse = rng.substream("coarse").uniform(0.25, 0.6, size=(4, 4, 3))
    base = bilinear_resize(coarse, (canvas, canvas))
    grain = rng.substream("grain").uniform(-0.03, 0.03, size=(canvas, canvas, 3))
    return np.clip(base + grain, 0.0, 1.0)


def render_scene(spec):
    """(frames, masks): float (H, W, 3) images and int32 id rasters.

    Objects draw in id order, so higher ids sit on top where they
    overlap."""
    bg = _background(spec.canvas, spec.texture_seed)
    stencils = [_shape_cells(kind, size)
                for kind, size in zip(spec.shapes, spec.sizes)]
    frames, masks = [], []
    for t in range(spec.frames):
        frame = bg.copy()
        mask = np.zeros((spec.canvas, spec.canvas), dtype=np.int32)
        for i, stencil in enumerate(stencils):
            span = spec.canvas - spec.sizes[i]
            y = int(round(_reflect(spec.starts[i][0] + spec.velocities[i][0] * t, span)))
            x = int(round(_reflect(spec.starts[i][1] + spec.velocities[i][1] * t, span)))
            size = spec.sizes[i]
            region = frame[y:y + size, x:x + size]
            region[stencil] = spec.colors[i]
            mask[y:y + size, x:x + size][stencil] = i + 1
        if spec.flicker:
            frame = np.clip(frame * np.asarray(spec.flicker[t]), 0.0, 1.0)
        frames.append(frame)
        masks.append(mask)
    return frames, masks


def gen_synthetic_dataset(out_root, seed, train_videos, eval_videos, canvas, frames,
                          flicker_amplitude=0.25):
    """Write train/ (frames only) and val/ (frames + masks) splits.

    Returns the two split directories. Bad arguments raise a ValueError
    before anything is written."""
    if (min(train_videos, eval_videos) < 0 or canvas < 8 or frames < 1
            or not 0.0 <= flicker_amplitude < 1.0):
        raise ValueError("need video counts >= 0, canvas >= 8, frames >= 1 and "
                         f"0 <= flicker < 1, got {train_videos} and {eval_videos} videos, "
                         f"canvas {canvas}, frames {frames}, flicker {flicker_amplitude}")
    out_root = Path(out_root)
    splits = (("train", train_videos, False), ("val", eval_videos, True))
    rng = Rng(seed)
    try:
        for split, count, with_masks in splits:
            split_dir = out_root / split
            split_dir.mkdir(parents=True, exist_ok=True)
            names = []
            for v in range(count):
                spec = random_scene_spec(rng.substream(f"{split}/video{v}"), canvas,
                                         frames, flicker_amplitude)
                clip_frames, clip_masks = render_scene(spec)
                name = f"video_{v:03d}"
                write_video_dir(split_dir, name, clip_frames,
                                masks=clip_masks if with_masks else None)
                names.append(name)
            write_index(split_dir, names)
    except OSError as e:
        raise RuntimeError(f"cannot write dataset under {out_root}: {e}") from e
    return out_root / "train", out_root / "val"
