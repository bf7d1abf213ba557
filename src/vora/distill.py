"""Feature-alignment objective: per-block projection heads, the per-block
cosine distillation loss and the supervised-span LM loss (one tape node
each, ``cosine_loss`` and ``cross_entropy``), and their unweighted sum.
``trainer.compute_losses`` combines the per-block terms per DISTILL_MODE.
"""

import numpy as np

from . import tensor as T
from .model import init_tensors

DISTILL_MODES = ("none", "last_block", "block_wise")


class AuxHead:
    """RMS-norm + linear projection from model width to teacher width.

    One head per distilled block, its block the head's position in the
    pipeline's list; ``params`` is the name -> Tensor table of
    ``shapes(cfg, block)``. Trained during pre-training, discarded at
    fine-tune.
    """

    def __init__(self, params):
        self.params = params
        self.norm_gain, self.proj = params.values()

    @staticmethod
    def shapes(cfg, block):
        """The head's norm gain and projection, name -> shape in init order."""
        return {f"aux.{block}.gain": (cfg.d_model,), f"aux.{block}.proj": (cfg.d_vit, cfg.d_model)}

    @classmethod
    def init(cls, cfg, block, seed=0):
        return cls(init_tensors(cls.shapes(cfg, block), np.random.default_rng(seed), requires_grad=True))

    def forward(self, h):
        return T.linear(T.rms_norm(h, self.norm_gain), self.proj)


def init_heads(cfg, seed=0):
    return [AuxHead.init(cfg, i, seed=seed + 31 * i) for i in range(cfg.n_vit)]


def distilled_blocks(mode, n_vit):
    """Blocks whose taps (and aux heads) a distill mode aligns."""
    blocks = list(range(n_vit))
    return {"none": [], "last_block": blocks[-1:], "block_wise": blocks}[mode]


def block_distill_loss(h_llm, h_vit, head, weights=None):
    """(1/S) sum_s (1 - cos(head(h_llm[s]), h_vit[s])); value in [0, 2].

    h_llm: Tensor [S, d_model] (or [B, S, d_model], whose B*S rows count
    as S) restricted to the vision span; h_vit: the matching float32
    teacher states, an array treated as constant. weights: optional [S]
    row weights summing to 1, which replace the uniform 1/S (a batch
    weighs each image's rows 1/(n_image * S_image), the mean over images).
    One ``T.cosine_loss`` node: unequal token counts are a ShapeError, a
    zero row a ValueError.
    """
    if weights is None:
        lead = h_vit.shape[:-1]
        weights = np.full(lead, 1.0 / np.prod(lead), dtype=np.float32)
    return T.cosine_loss(head.forward(h_llm), h_vit, weights)


def supervised(layouts, s):
    """[B, s-1] bool: entry (i, t-1) is True iff position t of sequence i
    is supervised, i.e. supervise_from <= t < length."""
    live = np.zeros((len(layouts), s - 1), dtype=bool)
    for i, lay in enumerate(layouts):
        if lay.supervise_from >= lay.length:
            raise ValueError(f"no supervised positions in sequence {i}")
        if lay.supervise_from < 1:
            raise ValueError("position 0 cannot be supervised (nothing precedes it)")
        live[i, lay.supervise_from - 1 : lay.length - 1] = True
    return live


def lm_loss(logits, layouts, tokens, n=None):
    """Next-token cross entropy, the mean over supervised positions only
    (their sum over n, the supervised positions of the whole batch, for
    a shard of it).

    tokens: [B, S] int array of packed ids; layouts: one SequenceLayout
    per sequence. Position t is supervised iff supervise_from <= t <
    length, predicted from the logits at t-1. logits: [n, V], just the n
    predictions of the supervised positions, in the row-major order of
    ``supervised``, so padding and unsupervised positions never count.
    """
    return T.cross_entropy(logits, tokens[:, 1:][supervised(layouts, tokens.shape[1])], n)


def total_loss(distill, lm):
    """Unweighted sum of the two objectives."""
    return distill + lm
