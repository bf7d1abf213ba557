"""Deterministic synthetic data: rendered shape scenes with
grammar-generated captions, templated text QA, a fixed word-level
vocabulary, and batch packing with modality mixing. An image is its
[H, W, 3] float32 pixel array in [0, 1].

Everything is a pure function of (seed, index); the held-out pool lives
in a disjoint index range.
"""

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .distill import supervised
from .model import SequenceLayout
from .vision import patchify

# ---------------------------------------------------------------------------
# vocabulary

COLOR_NAMES = ("red", "blue", "green", "yellow", "purple", "orange", "pink", "brown", "gray", "cyan")
SHAPE_NAMES = ("circle", "square", "triangle")
SIZE_NAMES = ("tiny", "small", "large", "huge")
NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen", "seventeen", "eighteen",
    "nineteen", "twenty",
)

_WORD_GROUPS = (
    ("<pad>", "<bos>", "<eos>", "<img>"),
    COLOR_NAMES,
    SHAPE_NAMES,
    ("circles", "squares", "triangles"),
    SIZE_NAMES,
    ("left", "right", "above", "below", "of", "beside", "between", "inside"),
    ("a", "an", "the", "and", "is", "are", "on", "in", "with", "to", "there", "it", "this", "that"),
    NUMBER_WORDS,
    ("what", "plus", "minus", "times", "equals", "repeat", "reverse", "say", "answer", "question", "how", "many"),
    (":", "?"),
    ("image", "picture", "background", "object", "objects", "shape", "color", "colors", "count",
     "number", "word", "words", "sentence", "text", "token", "tokens", "letter", "letters", "line",
     "lines", "grid", "row", "column", "corner", "edge", "side", "center", "middle", "top", "bottom"),
    ("big", "little", "dark", "light", "bright", "pale", "solid", "empty", "full", "wide", "tall",
     "short", "round", "flat", "thick", "thin", "deep", "high", "low", "new", "old", "good", "bad",
     "same", "different", "plain"),
    ("over", "under", "before", "after", "at", "by", "from", "for", "near", "far", "first", "last",
     "next", "then"),
    ("second", "third", "fourth", "when", "where", "which", "who", "why"),
    ("has", "have", "had", "contains", "shows", "show", "draw", "drawn", "placed", "located", "see",
     "look", "find", "tell", "give", "made"),
    ("yes", "no", "true", "false", "not", "or", "if", "than", "so", "because"),
    ("up", "down", "out", "off", "again", "once", "twice", "every", "each", "all", "some", "none",
     "both", "very", "most"),
)

VOCAB = tuple(w for group in _WORD_GROUPS for w in group)
assert len(VOCAB) == len(set(VOCAB)) == 200, f"vocabulary drifted: {len(VOCAB)} words"
TOKEN_TO_ID = {w: i for i, w in enumerate(VOCAB)}
PAD, BOS, EOS, IMG = (TOKEN_TO_ID[w] for w in ("<pad>", "<bos>", "<eos>", "<img>"))
VOCAB_SIZE = len(VOCAB)


def encode(words):
    if isinstance(words, str):
        words = words.split()
    return [TOKEN_TO_ID[w] for w in words]


def decode(ids):
    return " ".join(VOCAB[i] for i in ids)


# ---------------------------------------------------------------------------
# samples

@dataclass
class Sample:
    image: np.ndarray | None  # [H, W, 3] float32; None for a text sample
    prompt_tokens: list
    answer_tokens: list

    def __post_init__(self):
        if not self.answer_tokens:
            raise ValueError("answer must be nonempty")


PALETTE = np.array(
    [
        (0.90, 0.10, 0.10),  # red
        (0.10, 0.20, 0.90),  # blue
        (0.10, 0.80, 0.20),  # green
        (0.95, 0.90, 0.10),  # yellow
        (0.60, 0.15, 0.80),  # purple
        (0.95, 0.55, 0.10),  # orange
        (0.95, 0.55, 0.75),  # pink
        (0.55, 0.35, 0.15),  # brown
        (0.50, 0.50, 0.50),  # gray
        (0.10, 0.85, 0.90),  # cyan
    ],
    dtype=np.float32,
)
BACKGROUND = np.float32(0.92)

MIN_EDGE = 8
MAX_EDGE = 96


@dataclass
class SceneShape:
    kind: int  # index into SHAPE_NAMES
    color: int  # index into PALETTE / COLOR_NAMES
    cx: float
    cy: float
    radius: float


def _relation_tokens(first, second):
    dx = second.cx - first.cx
    dy = second.cy - first.cy
    if abs(dx) >= abs(dy):
        return ["left", "of"] if dx > 0 else ["right", "of"]
    return ["above"] if dy > 0 else ["below"]


def caption_tokens(shapes):
    """Fixed grammar over the scene graph; pure function of the shapes."""
    words = ["a", COLOR_NAMES[shapes[0].color], SHAPE_NAMES[shapes[0].kind]]
    if len(shapes) >= 2:
        words += _relation_tokens(shapes[0], shapes[1])
        words += ["a", COLOR_NAMES[shapes[1].color], SHAPE_NAMES[shapes[1].kind]]
    for extra in shapes[2:]:
        words += ["and", "a", COLOR_NAMES[extra.color], SHAPE_NAMES[extra.kind]]
    return words


def render_scene(shapes, height, width):
    """Hard-edged rasterization onto a plain background."""
    px = np.full((height, width, 3), BACKGROUND, dtype=np.float32)
    yy, xx = np.mgrid[0:height, 0:width]
    yy = yy + 0.5
    xx = xx + 0.5
    for sh in shapes:
        if sh.kind == 0:  # circle
            mask = (xx - sh.cx) ** 2 + (yy - sh.cy) ** 2 <= sh.radius**2
        elif sh.kind == 1:  # square
            mask = np.maximum(np.abs(xx - sh.cx), np.abs(yy - sh.cy)) <= 0.9 * sh.radius
        else:  # triangle, apex up
            mask = (yy >= sh.cy - sh.radius) & (yy <= sh.cy + sh.radius)
            mask &= np.abs(xx - sh.cx) <= (yy - (sh.cy - sh.radius)) / 2.0
        px[mask] = PALETTE[sh.color]
    return px


def make_scene(rng, height, width, n_shapes=None):
    """Place 1-4 distinctly-colored shapes on a 2x2 cell grid (no overlap)."""
    n = int(rng.integers(1, 5)) if n_shapes is None else n_shapes
    cells = rng.permutation(4)[:n]
    colors = rng.choice(len(PALETTE), size=n, replace=False)
    kinds = rng.integers(0, len(SHAPE_NAMES), size=n)
    cell_h, cell_w = height / 2.0, width / 2.0
    shapes = []
    for cell, color, kind in zip(cells, colors, kinds):
        r, c = divmod(int(cell), 2)
        jitter_y = rng.uniform(-0.08, 0.08) * cell_h
        jitter_x = rng.uniform(-0.08, 0.08) * cell_w
        cy = r * cell_h + cell_h / 2.0 + jitter_y
        cx = c * cell_w + cell_w / 2.0 + jitter_x
        radius = rng.uniform(0.22, 0.38) * min(cell_h, cell_w)
        shapes.append(SceneShape(int(kind), int(color), float(cx), float(cy), float(radius)))
    return shapes


def check_resolution(resolution, patch):
    """Raise ValueError unless both edges are patch multiples in [MIN_EDGE, MAX_EDGE]."""
    h, w = resolution
    if h % patch or w % patch:
        raise ValueError(f"resolution {resolution} not a multiple of patch {patch}")
    if not (MIN_EDGE <= h <= MAX_EDGE and MIN_EDGE <= w <= MAX_EDGE):
        raise ValueError(f"resolution {resolution} out of bounds [{MIN_EDGE}, {MAX_EDGE}]")


def gen_image_caption(seed, resolution=(32, 32), patch=8):
    """Deterministic scene + caption; same seed gives identical pixels."""
    check_resolution(resolution, patch)
    h, w = resolution
    rng = np.random.default_rng([seed, 1])
    shapes = make_scene(rng, h, w)
    return Sample(
        image=render_scene(shapes, h, w),
        prompt_tokens=[BOS],
        answer_tokens=encode(caption_tokens(shapes)),
    )


_CONTENT_POOL = COLOR_NAMES + SHAPE_NAMES + SIZE_NAMES


def gen_text_sample(seed):
    """Templated QA with a deterministic answer (results stay in 0..20)."""
    rng = np.random.default_rng([seed, 2])
    kind = int(rng.integers(0, 5))
    if kind == 0:  # addition
        a = int(rng.integers(0, 21))
        b = int(rng.integers(0, 21 - a))
        prompt = ["what", "is", NUMBER_WORDS[a], "plus", NUMBER_WORDS[b]]
        answer = [NUMBER_WORDS[a + b]]
    elif kind == 1:  # subtraction
        a = int(rng.integers(0, 21))
        b = int(rng.integers(0, a + 1))
        prompt = ["what", "is", NUMBER_WORDS[a], "minus", NUMBER_WORDS[b]]
        answer = [NUMBER_WORDS[a - b]]
    elif kind == 2:  # multiplication
        a = int(rng.integers(0, 7))
        b = int(rng.integers(0, 21 if a == 0 else 20 // a + 1))
        prompt = ["what", "is", NUMBER_WORDS[a], "times", NUMBER_WORDS[b]]
        answer = [NUMBER_WORDS[a * b]]
    elif kind == 3:  # copy
        k = int(rng.integers(1, 4))
        words = [str(w) for w in rng.choice(_CONTENT_POOL, size=k, replace=False)]
        prompt = ["repeat", ":"] + words
        answer = list(words)
    else:  # reversal
        k = int(rng.integers(1, 4))
        words = [str(w) for w in rng.choice(_CONTENT_POOL, size=k, replace=False)]
        prompt = ["reverse", ":"] + words
        answer = list(reversed(words))
    return Sample(
        image=None,
        prompt_tokens=[BOS] + encode(prompt),
        answer_tokens=encode(answer),
    )


# ---------------------------------------------------------------------------
# batching

HELDOUT_BASE = 1 << 30  # held-out samples draw seeds at or above this


@dataclass
class DataConfig:
    image_fraction: float = 0.82  # share of image-caption samples per batch
    resolution: tuple = (32, 32)  # (height, width) in fixed-resolution mode
    patch: int = 8  # patch edge length, pixels
    anyres: bool = False  # sample a random patch-multiple resolution per image
    anyres_min: int = 16  # smallest anyres edge, pixels
    anyres_max: int = 48  # largest anyres edge, pixels

    def __post_init__(self):
        if not 0.0 <= self.image_fraction <= 1.0:
            raise ValueError("image_fraction must lie in [0, 1]")
        check_resolution(self.resolution, self.patch)  # the held-out captions' resolution
        if self.anyres:  # the smallest and the largest edge _pick_resolution can draw
            check_resolution((self.anyres_min, self.anyres_max), self.patch)
            if self.anyres_min > self.anyres_max:
                raise ValueError(f"anyres_min ({self.anyres_min}) exceeds anyres_max ({self.anyres_max})")

    def images_per_batch(self, batch_size):
        """Image-caption samples in a ``make_batch`` batch of batch_size."""
        return int(round(batch_size * self.image_fraction))


@dataclass
class PackedBatch:
    tokens: np.ndarray  # [B, S] int64, IMG in vision spans, PAD tail
    layouts: list
    patches: np.ndarray  # [n_vision, patch*patch*3]: every image's patch rows, image after image
    grids: list  # (rows, cols) | None per sequence
    whole: tuple | None = None  # (supervised positions, images) of the batch this is a shard of

    def shards(self, n):
        """The batch dealt into min(n, B) shards, sequence i to shard i % n:
        each a batch of its own (tokens trimmed to its longest sequence, its
        layouts, grids and patch rows) whose ``whole`` holds the loss
        normalisers of this batch. Dealing alternates because the images
        lead the batch (``pack_samples``). One shard is the batch itself."""
        count = min(n, len(self.layouts))
        if count == 1:
            return [self]
        starts = np.cumsum([0] + [lay.n_vision for lay in self.layouts])
        whole = (int(supervised(self.layouts, self.tokens.shape[1]).sum()), self.n_image)
        out = []
        for k in range(count):
            seqs = range(k, len(self.layouts), count)
            layouts = self.layouts[k::count]
            width = max(lay.length for lay in layouts)
            out.append(PackedBatch(np.ascontiguousarray(self.tokens[k::count, :width]), layouts,
                                   np.concatenate([self.patches[starts[i]:starts[i + 1]] for i in seqs]),
                                   self.grids[k::count], whole))
        return out

    @property
    def n_image(self):
        return sum(grid is not None for grid in self.grids)

    @property
    def runs(self):
        """(grid, n_images) per run of equal grids over the image rows, in
        row order: the runs of ``patches`` that the vision embed and the
        teacher take with it."""
        return [(grid, len(list(group))) for grid, group in groupby(g for g in self.grids if g is not None)]

    @property
    def n_vision(self):
        """Vision tokens of the batch: the first rows of the flat order."""
        return self.patches.shape[0]

    @property
    def rows(self):
        """[B, S] index of each position into the flat order of the batch's
        live tokens, -1 at padding. The flat order holds every image's
        vision span first, image after image (so row r < n_vision is patch
        row r), then every sequence's text span, sequence after sequence."""
        v1 = np.array([lay.n_vision for lay in self.layouts])
        t1 = np.array([lay.length for lay in self.layouts])
        n_text = t1 - v1
        col = np.arange(self.tokens.shape[1])[None, :]
        vis = (np.cumsum(v1) - v1)[:, None] + col
        text = (self.n_vision + np.cumsum(n_text) - n_text - v1)[:, None] + col
        rows = np.where(col < v1[:, None], vis, text)
        rows[col >= t1[:, None]] = -1
        return rows


def _anyres_cells(dcfg):
    """Smallest and largest anyres edge, in patches."""
    return dcfg.anyres_min // dcfg.patch, dcfg.anyres_max // dcfg.patch


def _pick_resolution(rng, dcfg):
    if not dcfg.anyres:
        return dcfg.resolution
    lo, hi = _anyres_cells(dcfg)
    h = int(rng.integers(lo, hi + 1)) * dcfg.patch
    w = int(rng.integers(lo, hi + 1)) * dcfg.patch
    return (h, w)


def max_packed_len(dcfg):
    """The longest row pack_samples gets under dcfg: the largest grid's
    vision span (the fixed resolution of the held-out captions, or the
    largest anyres grid), BOS, the longest caption and EOS. Text rows are
    shorter."""
    h, w = dcfg.resolution
    cells = (h // dcfg.patch) * (w // dcfg.patch)
    if dcfg.anyres:
        cells = max(cells, _anyres_cells(dcfg)[1] ** 2)
    # make_scene draws at most four shapes: "a C S", a two-word relation,
    # "a C S", then "and a C S" twice
    return cells + 1 + 3 + 2 + 3 + 4 * 2 + 1


def _grid(sample, patch):
    return None if sample.image is None else (sample.image.shape[0] // patch, sample.image.shape[1] // patch)


def pack_samples(samples, patch, max_seq):
    """[IMG-span][prompt][answer][EOS] per sequence, PAD to the batch max.

    Rows are reordered: image samples first, stable-sorted by grid, then
    text samples in their given order, so rows sharing a grid are adjacent.
    Each image is patchified once, into the batch's flat patch stack.
    """
    ordered = sorted(samples, key=lambda smp: (smp.image is None, _grid(smp, patch) or ()))
    rows = []
    layouts = []
    grids = [_grid(sample, patch) for sample in ordered]
    for sample, grid in zip(ordered, grids):
        s_v = grid[0] * grid[1] if grid else 0
        ids = [IMG] * s_v + list(sample.prompt_tokens) + list(sample.answer_tokens) + [EOS]
        if len(ids) > max_seq:
            raise ValueError(f"packed length {len(ids)} exceeds max_seq {max_seq}")
        layouts.append(SequenceLayout(s_v, len(ids), s_v + len(sample.prompt_tokens)))
        rows.append(ids)
    images = [patchify(sample.image, patch) for sample in ordered if sample.image is not None]
    patches = np.concatenate(images) if images else np.zeros((0, patch * patch * 3), dtype=np.float32)
    s_max = max(len(r) for r in rows)
    tokens = np.full((len(rows), s_max), PAD, dtype=np.int64)
    for i, r in enumerate(rows):
        tokens[i, : len(r)] = r
    return PackedBatch(tokens=tokens, layouts=layouts, patches=patches, grids=grids)


def make_batch(rng, batch_size, image_fraction=None, dcfg=None, max_seq=160, heldout=False):
    """Draw a packed batch; image samples first, counts match the fraction
    within rounding. ``rng`` drives both sample selection and resolutions."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    dcfg = dcfg or DataConfig()
    if image_fraction is not None:
        dcfg = replace(dcfg, image_fraction=image_fraction)
    n_img = dcfg.images_per_batch(batch_size)
    base = HELDOUT_BASE if heldout else 0
    samples = []
    for i in range(batch_size):
        idx = base + int(rng.integers(0, HELDOUT_BASE))
        if i < n_img:
            samples.append(gen_image_caption(idx, _pick_resolution(rng, dcfg), patch=dcfg.patch))
        else:
            samples.append(gen_text_sample(idx))
    return pack_samples(samples, dcfg.patch, max_seq)

