"""Input manufacturing: clip sampling, multi-crop augmentation, frame
pairing, blockwise token masks, and the on-disk video store.

Every random choice draws from a named rng substream, so crop geometry,
flips, and color jitter are independent streams: disabling jitter for
one crop family cannot shift any other family's draws.
"""

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

FLIP_PROBABILITY = 0.5
CROP_ASPECT_RANGE = (3.0 / 4.0, 4.0 / 3.0)
BLOCK_ASPECT_RANGE = (1.0 / 3.0, 3.0)
MAX_CROP_RETRIES = 10

_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass
class ViewConfig:
    """Clip length, crop families, and augmentation strengths.

    The full-scale sizes are 224 (global) and 64 (local); the desk
    defaults shrink both. Scale ranges follow the ablation wording:
    small areas feed the local crops, large areas the globals.
    """

    clip_len: int = 4
    locals_per_frame: int = 8
    local_scale: tuple = (0.05, 0.8)
    global_scale: tuple = (0.8, 0.95)
    global_size: int = 64
    local_size: int = 32
    flip_jitter_target: str = "locals"  # locals | globals | both | none
    frameskip: int = 8
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.2

    def __post_init__(self):
        if self.clip_len < 2 or self.clip_len % 2:
            raise ValueError(f"clip_len must be even and >= 2, got {self.clip_len}")
        if self.locals_per_frame < 1:
            raise ValueError("need at least one local crop per frame")
        for name, rng_pair in (("local_scale", self.local_scale),
                               ("global_scale", self.global_scale)):
            lo, hi = rng_pair
            # equality admits the degenerate full-frame configuration
            if not (0.0 < lo <= hi <= 1.0):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi <= 1, got {rng_pair}")
        if self.flip_jitter_target not in ("locals", "globals", "both", "none"):
            raise ValueError(f"unknown flip_jitter_target {self.flip_jitter_target!r}")
        if self.frameskip < 1:
            raise ValueError("frameskip must be >= 1")
        for name in ("brightness", "contrast", "saturation"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")

    @property
    def clip_span(self):
        """Source frames one clip covers, first to last."""
        return (self.clip_len - 1) * self.frameskip + 1


def make_frame_pairs(clip_len):
    """Zip the clip's halves: 0-based pairs (n, L/2 + n).

    For L=6 that reads [(0, 3), (1, 4), (2, 5)]; every frame of the
    first half meets its offset partner in the second. clip_len is even
    and >= 2, as :class:`ViewConfig` checks.
    """
    half = clip_len // 2
    return [(n, half + n) for n in range(half)]


def sample_clip(video, rng, config):
    """Pick a uniformly random start and return the clip_len frames
    spaced by the frameskip from there: a strided slice of ``video``, a
    :class:`VideoSource` (which decodes only those frames) or a
    (T, H, W, 3) array, at least ``clip_span`` frames long, as
    ``harness.train`` checks."""
    span = config.clip_span
    start = int(rng.integers(0, len(video) - span + 1))
    return video[start:start + span:config.frameskip]


# -- crops ---------------------------------------------------------------------


def _draw_rect(frame_shape, scale_range, rng):
    """Random resized-crop rectangle: area fraction from scale_range,
    aspect from CROP_ASPECT_RANGE, bounded retries, center fallback."""
    height, width = frame_shape[:2]
    area = height * width
    for _ in range(MAX_CROP_RETRIES):
        frac = rng.uniform(scale_range[0], scale_range[1])
        aspect = rng.uniform(*CROP_ASPECT_RANGE)
        target = frac * area
        w = int(round(math.sqrt(target * aspect)))
        h = int(round(math.sqrt(target / aspect)))
        if 1 <= w <= width and 1 <= h <= height:
            y = int(rng.integers(0, height - h + 1))
            x = int(rng.integers(0, width - w + 1))
            return (y, x, h, w)
    # center crop at the nearest feasible scale
    frac = min(scale_range[1], 1.0)
    side = int(round(math.sqrt(frac * area)))
    h = min(max(side, 1), height)
    w = min(max(side, 1), width)
    log.warning("crop rectangle infeasible after %d retries; using %dx%d center crop",
                MAX_CROP_RETRIES, h, w)
    return ((height - h) // 2, (width - w) // 2, h, w)


def _draw_crop(frame_shape, rng, scale_range, augment, config):
    """(rect, flipped, jitter) of one crop, each from its own substream."""
    rect = _draw_rect(frame_shape, scale_range, rng.substream("geom"))
    if not augment:
        return rect, False, None
    flipped = bool(rng.substream("flip").uniform() < FLIP_PROBABILITY)
    jr = rng.substream("jitter")
    jitter = (float(jr.uniform(1.0 - config.brightness, 1.0 + config.brightness)),
              float(jr.uniform(1.0 - config.contrast, 1.0 + config.contrast)),
              float(jr.uniform(1.0 - config.saturation, 1.0 + config.saturation)))
    return rect, flipped, jitter


def _resample_axis(origin, extent, size):
    """Bilinear taps along one axis for a batch of crops, taken as
    :func:`vidcorr.numerics.bilinear_resize` takes them: absolute low and
    high source indices and the high tap's weight, each (n, size)."""
    src = (np.arange(size) + 0.5) * (extent / size)[:, None] - 0.5
    last = (extent - 1)[:, None]
    lo = np.clip(np.floor(src).astype(np.intp), 0, last)
    hi = np.minimum(lo + 1, last)
    frac = np.clip(src - lo, 0.0, 1.0)
    return lo + origin[:, None], hi + origin[:, None], frac


def _render_crops(frames, picks, size):
    """Render same-size crops in one pass into one (n, size, size, 3)
    array, in pick order.

    picks: (frame index, (y, x, h, w), flipped, jitter) per crop. Each
    crop is the bilinear resize of its rectangle to (size, size),
    mirrored left-right when flipped, then color jittered when jitter
    holds (brightness, contrast, saturation) factors: scale by b, pull
    toward the crop mean by c, pull toward the luma gray by s. Values
    are clipped to [0, 1]. The array is float64 when any crop is
    jittered (the luma weights are float64), else the frames' dtype.
    """
    stack = np.stack(frames)
    frame = np.array([p[0] for p in picks], dtype=np.intp)[:, None, None]
    y, x, h, w = np.array([p[1] for p in picks], dtype=np.intp).T
    flipped = np.array([p[2] for p in picks], dtype=bool)
    y0, y1, fy = _resample_axis(y, h, size)
    x0, x1, fx = _resample_axis(x, w, size)
    # a flip reverses the columns, taps and weights together
    x0, x1, fx = (np.where(flipped[:, None], a[:, ::-1], a) for a in (x0, x1, fx))

    fy = fy[:, :, None, None]
    fx = fx[:, None, :, None]
    # each tap gathers pixels by one flat index into the stacked frames
    height, width = stack.shape[1:3]
    pixels = stack.reshape(-1, 3)
    rows0, rows1 = ((frame * height + r[:, :, None]) * width for r in (y0, y1))
    cols0, cols1 = x0[:, None, :], x1[:, None, :]
    top = pixels.take(rows0 + cols0, axis=0) * (1.0 - fx) + \
        pixels.take(rows0 + cols1, axis=0) * fx
    bot = pixels.take(rows1 + cols0, axis=0) * (1.0 - fx) + \
        pixels.take(rows1 + cols1, axis=0) * fx
    out = (top * (1.0 - fy) + bot * fy).astype(stack.dtype, copy=False)
    images = np.clip(out, 0.0, 1.0)

    jittered = [i for i, p in enumerate(picks) if p[3] is not None]
    if jittered:
        # as python floats would: b and c act in the frames' dtype, s on
        # the float64 gray
        b, c, s = np.array([picks[i][3] for i in jittered]).T[:, :, None, None, None]
        out = out[jittered] * b.astype(stack.dtype)
        # each crop's mean sums in the memory order a one-crop resize
        # leaves: column-major for plain crops, row-major for mirrored
        # ones (the mirror is a copy); float32 rounding depends on it
        k = len(jittered)
        flat = np.where(flipped[jittered, None], out.reshape(k, -1),
                        out.transpose(0, 2, 1, 3).reshape(k, -1))
        mean = flat.mean(axis=1)[:, None, None, None]
        out = mean + (out - mean) * c.astype(stack.dtype)
        gray = (out @ _LUMA)[..., None]
        images = images.astype(np.float64)
        images[jittered] = np.clip(gray + (out - gray) * s, 0.0, 1.0)
    return images


def _crop_picks(frames, rng, config):
    """Every crop draw of a clip: (global picks, local picks), each a
    list of (frame index, (y, x, h, w), flipped, jitter) with jitter
    None or (brightness, contrast, saturation) factors. Globals come one
    per frame, locals M per frame, frame-major.

    Flip and color jitter touch only the families named by
    flip_jitter_target (default: locals), drawn from dedicated
    substreams so the untouched family is bitwise identical to a
    jitter-free run."""
    aug_globals = config.flip_jitter_target in ("globals", "both")
    aug_locals = config.flip_jitter_target in ("locals", "both")
    global_picks, local_picks = [], []
    for i, frame in enumerate(frames):
        frame_rng = rng.substream(f"frame{i}")
        global_picks.append((i, *_draw_crop(frame.shape, frame_rng.substream("global"),
                                            config.global_scale, aug_globals, config)))
        local_picks += [(i, *_draw_crop(frame.shape, frame_rng.substream(f"local{j}"),
                                        config.local_scale, aug_locals, config))
                        for j in range(config.locals_per_frame)]
    return global_picks, local_picks


def make_crops(frames, rng, config):
    """One global and M local crops per frame of a clip.

    Returns the (L, S, S, 3) global crops and the frame-major
    (L * M, s, s, 3) local crops, S and s being the global and local
    sizes. All draws come first (:func:`_crop_picks`); each family is
    then rendered in one pass (:func:`_render_crops`)."""
    global_picks, local_picks = _crop_picks(frames, rng, config)
    return (_render_crops(frames, global_picks, config.global_size),
            _render_crops(frames, local_picks, config.local_size))


# -- masks ---------------------------------------------------------------------


def _place_blocks(grid_side, count, rng):
    """Union of random rectangles with exactly ``count`` cells set; the
    final block is trimmed in row-major order to land on K."""
    mask = np.zeros((grid_side, grid_side), dtype=bool)
    done = 0
    while done < count:
        area = int(rng.integers(1, count - done + 1))
        aspect = rng.uniform(*BLOCK_ASPECT_RANGE)
        bh = min(max(int(round(math.sqrt(area * aspect))), 1), grid_side)
        bw = min(max(int(round(math.sqrt(area / aspect))), 1), grid_side)
        y = int(rng.integers(0, grid_side - bh + 1))
        x = int(rng.integers(0, grid_side - bw + 1))
        # the block's unset cells in row-major order, up to the count left
        block = mask[y:y + bh, x:x + bw]
        fill = ~block
        fill &= np.cumsum(fill).reshape(fill.shape) <= count - done
        block |= fill
        done += int(np.count_nonzero(fill))
        # a block landing entirely on set cells makes no progress; loop again
    return mask.reshape(-1)


def sample_clip_masks(num_tokens, clip_len, rng, gate_probability, r_range):
    """Blockwise token masks of one clip sharing one gate and one ratio
    draw: a (clip_len, num_tokens) bool array, each row flat row-major
    over the square token grid.

    The gate applies to the whole iteration (all frames or none) and the
    shared r keeps K equal across frames, as the cross-frame affinity
    consistency requires equal token counts. Patterns themselves are
    drawn independently per frame. Returns None when the gate is off or
    K = round(num_tokens * r) is 0."""
    side = math.isqrt(num_tokens)
    if side * side != num_tokens:
        raise ValueError(f"token count {num_tokens} is not a square grid")
    if rng.substream("gate").uniform() >= gate_probability:
        return None
    ratio = float(rng.substream("ratio").uniform(r_range[0], r_range[1]))
    count = int(round(num_tokens * ratio))
    if count == 0:
        return None
    return np.stack([_place_blocks(side, count, rng.substream(f"pattern{i}"))
                     for i in range(clip_len)])


# -- pnm i/o and the video store -------------------------------------------------


def write_ppm(path, image):
    """Binary P6, maxval 255; image float in [0, 1], (H, W, 3)."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {arr.shape}")
    data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def write_pgm(path, mask):
    """Binary P5; pixel value = object id, 0 = background."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d mask, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("object ids must fit a byte")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(arr.astype(np.uint8).tobytes())


def _pnm_header(fh, path, magic, channels):
    """Read the header of the PNM file open as ``fh``: magic, width,
    height and maxval 255, with # comments allowed. Checks that the file
    holds every pixel byte the header promises, and returns the image
    shape, (H, W, channels) or (H, W) for one channel, leaving ``fh`` at
    the first pixel byte."""
    if fh.read(2) != magic:
        raise ValueError(f"{path}: expected {magic.decode()} file")
    fields = []
    while len(fields) < 3:
        byte = fh.read(1)
        while byte.isspace():
            byte = fh.read(1)
        if byte == b"#":
            fh.readline()
            continue
        token = b""
        # reading the token also takes the one whitespace byte after it,
        # which after maxval is the last header byte
        while byte and not byte.isspace():
            token += byte
            byte = fh.read(1)
        if not token:
            raise ValueError(f"{path}: truncated header")
        if not token.isdigit():
            raise ValueError(f"{path}: header field {token!r} is not a number")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    size = width * height * channels
    present = os.fstat(fh.fileno()).st_size - fh.tell()
    if present < size:
        raise ValueError(f"{path}: truncated pixel data ({present} of {size} bytes)")
    return (height, width, channels) if channels > 1 else (height, width)


def _read_pnm(path, magic, channels):
    with open(path, "rb") as fh:
        shape = _pnm_header(fh, path, magic, channels)
        pixels = fh.read(math.prod(shape))
    return np.frombuffer(pixels, dtype=np.uint8).reshape(shape)


def read_ppm(path):
    """(H, W, 3) float32 in [0, 1]."""
    return _read_pnm(path, b"P6", 3).astype(np.float32) / 255.0


def read_pgm(path):
    """(H, W) uint8 object ids, at the width the file stores them."""
    return _read_pnm(path, b"P5", 1).copy()


def _check_frame_shape(path, shape, first):
    if shape != first:
        raise ValueError(f"{path}: frame shape {shape[:2]} "
                         f"differs from the first frame's {first[:2]}")


FRAME_NAME = "frame_{:05d}.ppm"
MASK_NAME = "mask_{:05d}.pgm"


def _numbered_files(directory, name):
    """How many files ``name.format(0)``, ``name.format(1)``, ... the
    directory holds. Every file of the pattern must take its place in
    that numbering: a gap raises, naming the first missing file."""
    prefix, _, rest = name.partition("{")
    suffix = rest.partition("}")[2]
    present = {f for f in os.listdir(directory) if f.startswith(prefix) and f.endswith(suffix)}
    for i in range(len(present)):
        if name.format(i) not in present:
            raise ValueError(f"{directory}: {name.format(i)} missing; files {prefix}* "
                             f"must be numbered from {name.format(0)} without gaps")
    return len(present)


class VideoSource:
    """One video directory: frame_%05d.ppm and, in eval splits,
    mask_%05d.pgm, each numbered from 00000 without gaps.

    The source keeps the directory and the two counts, checked once at
    construction, and names a file when it reads it. Frames are decoded
    on demand: ``source[i]`` reads frame i, and a slice reads only its
    frames, as one (n, H, W, 3) float32 array, each checked against the
    video's shape from :meth:`check`. :meth:`masks` reads each mask once
    and checks it against the frames. A file that fails names itself."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.source_id = self.directory.name
        self._frame_count = (_numbered_files(self.directory, FRAME_NAME)
                             if self.directory.is_dir() else 0)
        if not self._frame_count:
            raise ValueError(f"no frames under {self.directory}")
        self._mask_count = _numbered_files(self.directory, MASK_NAME)
        self.has_masks = self._mask_count > 0
        self._shape = None

    def __len__(self):
        return self._frame_count

    def _frame_path(self, i):
        return self.directory / FRAME_NAME.format(range(self._frame_count)[i])

    def _mask_path(self, i):
        return self.directory / MASK_NAME.format(range(self._mask_count)[i])

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return read_ppm(self._frame_path(i))
        shape = self.check()
        paths = [self._frame_path(j) for j in range(self._frame_count)[i]]
        frames = [read_ppm(path) for path in paths]
        for path, frame in zip(paths, frames):
            _check_frame_shape(path, frame.shape, shape)
        return np.stack(frames)

    def mask(self, i):
        return read_pgm(self._mask_path(i))

    def check(self):
        """The (H, W, 3) shape of every frame, checked on the first call
        from each file's header and size alone, without decoding pixels:
        magic P6, maxval 255, the first frame's width and height, and
        every pixel byte present."""
        if self._shape is None:
            shapes = []
            for i in range(self._frame_count):
                path = self._frame_path(i)
                with open(path, "rb") as fh:
                    shapes.append(_pnm_header(fh, path, b"P6", 3))
                _check_frame_shape(path, shapes[-1], shapes[0])
            self._shape = shapes[0]
        return self._shape

    def frames(self):
        """Every frame as one (T, H, W, 3) float32 array: ``self[:]``."""
        return self[:]

    def masks(self, frames, first_only=False):
        """The (T, H, W) uint8 masks of ``frames``, this video's (T, H, W, 3)
        array, or with first_only the first frame's alone, (1, H, W). Any
        other mask count, or a mask whose shape is not the frames', raises."""
        count = min(self._mask_count, 1) if first_only else self._mask_count
        if count != (1 if first_only else len(frames)):
            raise ValueError(f"{self.directory}: {self._mask_count} masks for {len(frames)} "
                             f"frames, need {'the first' if first_only else 'one per frame'}")
        paths = [self._mask_path(i) for i in range(count)]
        masks = [read_pgm(path) for path in paths]
        for path, mask in zip(paths, masks):
            if mask.shape != frames.shape[1:3]:
                raise ValueError(f"{path}: mask shape {mask.shape} "
                                 f"differs from its frame's {frames.shape[1:3]}")
        return np.stack(masks)


def write_video_dir(root, name, frames, masks=None):
    """Store frames (and optional masks) as frame_%05d.ppm / mask_%05d.pgm."""
    directory = Path(root) / name
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_ppm(directory / FRAME_NAME.format(i), frame)
    if masks is not None:
        for i, mask in enumerate(masks):
            write_pgm(directory / MASK_NAME.format(i), mask)
    return directory


def write_index(root, names):
    Path(root, "videos.txt").write_text("".join(f"{n}\n" for n in names))


def load_store(root):
    """All videos listed in videos.txt, in index order."""
    root = Path(root)
    index = root / "videos.txt"
    if not index.exists():
        raise FileNotFoundError(f"missing index {index}")
    names = [line.strip() for line in index.read_text().splitlines() if line.strip()]
    return [VideoSource(root / name) for name in names]
