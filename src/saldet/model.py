"""The learnable network and its losses, with exact analytic gradients.

Per-proposal features pass through a fully-connected ReLU trunk. A small
saliency branch (hidden ReLU layer + scalar sigmoid) predicts a
category-free saliency score P_i per proposal; the trunk output is
multiplied by P_i before feeding two linear stream heads. The
classification stream is a softmax over classes within each proposal,
the detection stream a softmax over proposals within each class; their
elementwise product is the score matrix, and summing it over proposals
gives the image-level class scores used by the binary log loss.

Everything internal runs in float64; checkpoints are stored in float32.
Gradients flow through the saliency weighting into both the branch and
the trunk. Seed/negative indices are inputs here, never differentiated.

One step kernel per parameter set holds the maths: ``forward``,
``forward_images``, ``step_losses``, ``backward`` and ``loss_and_grads``
all run it, the last in one reused workspace, which is what a training
step calls. Every array of a pass lives in one :class:`ForwardTrace`,
over a run of whole images: ``forward`` returns a new one over one
image and ``forward_images`` a new one over many (evaluation scores a
split in chunks this way); only the kernel's workspace, for one image,
views a buffer the kernel keeps. A run of images gives every image the
bits it gets alone: the matrix products and the per-image column
reductions run per image, everything elementwise once over all rows.
``ForwardTrace.check_ranges`` is the one check of the ranges a pass must
stay in.
"""

import functools
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .core import check_finite_floats

_EPSILON = 1e-8  # clamp for the log arguments of the image and seed classification losses


@dataclass(frozen=True)
class ModelConfig:
    """Architecture widths, loss weights and the saliency branch switch."""

    feature_dim: int
    num_classes: int
    trunk_widths: tuple[int, ...] = (128, 128)
    saliency_hidden: int = 32
    lambda_seed_cls: float = 0.1   # weight of the seed classification loss
    lambda_seed_sal: float = 1.0   # weight of the seed saliency loss
    lambda_l2: float = 5e-4        # weight of the L2 term (weights only)
    saliency_enabled: bool = True

    def __post_init__(self):
        check_finite_floats(self)
        if self.feature_dim < 1 or self.num_classes < 1:
            raise ValueError("feature_dim and num_classes must be >= 1")
        if not self.trunk_widths or any(w < 1 for w in self.trunk_widths):
            raise ValueError("trunk widths must all be >= 1")
        if self.saliency_hidden < 1:
            raise ValueError("saliency_hidden must be >= 1")
        if min(self.lambda_seed_cls, self.lambda_seed_sal, self.lambda_l2) < 0:
            raise ValueError("loss weights must be >= 0")
        object.__setattr__(self, "trunk_widths", tuple(self.trunk_widths))

    @property
    def trunk_out(self) -> int:
        return self.trunk_widths[-1]


def _tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) pairs in canonical declaration order."""
    shapes = []
    d_in = config.feature_dim
    for l, width in enumerate(config.trunk_widths):
        shapes.append((f"trunk{l}.w", (d_in, width)))
        shapes.append((f"trunk{l}.b", (width,)))
        d_in = width
    shapes.append(("sal_hidden.w", (config.trunk_out, config.saliency_hidden)))
    shapes.append(("sal_hidden.b", (config.saliency_hidden,)))
    shapes.append(("sal_out.w", (config.saliency_hidden,)))
    shapes.append(("sal_out.b", (1,)))
    shapes.append(("cls.w", (config.trunk_out, config.num_classes)))
    shapes.append(("cls.b", (config.num_classes,)))
    shapes.append(("det.w", (config.trunk_out, config.num_classes)))
    shapes.append(("det.b", (config.num_classes,)))
    return shapes


def _is_weight(name: str) -> bool:
    return name.endswith(".w")


def _is_saliency(name: str) -> bool:
    return name.startswith("sal_")


class ParamLayout:
    """Where each named tensor lives in one flat float64 vector.

    ``shapes`` lists (name, shape) pairs in declaration order; the buffer
    stores them in ``flat_order`` (default: declaration order). The first
    ``l2_end`` entries of the buffer are the L2-penalised weights.
    """

    def __init__(self, shapes, flat_order=None, l2_end=0):
        shape_of = dict(shapes)
        starts, off = {}, 0
        for name in flat_order or shape_of:
            starts[name] = off
            off += math.prod(shape_of[name])
        self.size = off
        self.l2_end = l2_end
        # declaration order, which is the order ``views`` iterates in
        self.tensors = tuple(
            (name, shape, slice(starts[name], starts[name] + math.prod(shape)))
            for name, shape in shapes
        )

    def views(self, flat: np.ndarray) -> MappingProxyType:
        """Read-only name -> reshaped view of ``flat``, in declaration order."""
        return MappingProxyType(
            {name: flat[sl].reshape(shape) for name, shape, sl in self.tensors}
        )


@functools.lru_cache(maxsize=64)
def param_layout(config: ModelConfig) -> ParamLayout:
    """Weights outside the saliency branch, then saliency weights, then biases.

    The L2 set is then one prefix: it ends after the saliency weights
    when the branch is enabled, before them when it is not.
    """
    shapes = _tensor_shapes(config)
    weights = [n for n, _ in shapes if _is_weight(n) and not _is_saliency(n)]
    sal_weights = [n for n, _ in shapes if _is_weight(n) and _is_saliency(n)]
    biases = [n for n, _ in shapes if not _is_weight(n)]
    shape_of = dict(shapes)
    l2_names = weights + sal_weights if config.saliency_enabled else weights
    return ParamLayout(
        shapes,
        flat_order=weights + sal_weights + biases,
        l2_end=sum(math.prod(shape_of[n]) for n in l2_names),
    )


class ModelParams:
    """All learnable tensors in one float64 vector, momentum in a second.

    ``values`` and ``velocity`` map each tensor name, in declaration
    order, to a reshaped view of its slice of ``flat_values`` /
    ``flat_velocity``. Their entries cannot be rebound; write in place
    (``params.values[name][...] = x``). A new instance is all zeros.

    The first forward or training step builds a step kernel bound to
    these buffers and keeps it with them, so one instance must not run
    steps from two threads at once.
    """

    def __init__(self, layout: ParamLayout):
        self.layout = layout
        self.flat_values = np.zeros(layout.size)
        self.flat_velocity = np.zeros(layout.size)
        self.values = layout.views(self.flat_values)
        self.velocity = layout.views(self.flat_velocity)
        self._kernel = None

    def copy(self) -> "ModelParams":
        out = ModelParams(self.layout)
        out.flat_values[...] = self.flat_values
        out.flat_velocity[...] = self.flat_velocity
        return out


def init_params(config: ModelConfig, rng_seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(rng_seed)
    params = ModelParams(param_layout(config))
    for name, shape in _tensor_shapes(config):
        if _is_weight(name):
            fan_in = shape[0]
            scale = 1.0 / math.sqrt(fan_in)
            params.values[name][...] = rng.uniform(-scale, scale, size=shape)
    return params


# ---------------------------------------------------------------------------
# losses; each returns (value, gradient w.r.t. its own input)

def seed_classification_loss(scores, seeds, epsilon):
    """-sum log score of each class seed; gradient w.r.t. the score matrix.

    ``seeds`` is an iterable of (class_id, proposal_index) pairs. Scores
    at or below ``epsilon`` are clamped and contribute zero gradient.
    """
    total, terms = _seed_classification_terms(scores, seeds, epsilon)
    grad = np.zeros_like(scores)
    for i, c, d in terms:
        grad[i, c] += d
    return total, grad


def _seed_classification_terms(scores, seeds, epsilon):
    """The loss and its nonzero gradient entries as (proposal, class, value)."""
    total, terms = 0.0, []
    for c, i in seeds:
        s = scores[i, c]
        if s > epsilon:
            total -= math.log(s)
            terms.append((i, c, -(1.0 / s)))
        else:
            total -= math.log(epsilon)
    return total, terms


def seed_saliency_loss(saliency, sample_indices, targets):
    """Squared error of P against the 1/0 targets on the sampled proposals."""
    idx = np.asarray(sample_indices, dtype=np.int64)
    residual = saliency[idx] - np.asarray(targets, dtype=np.float64)
    grad = np.zeros_like(saliency)
    np.add.at(grad, idx, 2.0 * residual)
    return float(residual @ residual), grad


def image_classification_loss(image_scores, labels_y, epsilon):
    """Binary log loss on the per-class image scores; gradient w.r.t. them.

    The log argument is tau for positive classes and 1 - tau for negative
    ones; arguments at or below ``epsilon`` are clamped with zero gradient.
    A label vector not shaped like the scores is a ValueError.
    """
    y = np.asarray(labels_y, dtype=np.float64)
    if y.shape != image_scores.shape:
        raise ValueError(f"labels shape {y.shape} != image scores shape {image_scores.shape}")
    arg = y * (image_scores - 0.5) + 0.5
    clamped = np.maximum(arg, epsilon)
    total = float(-np.log(clamped).sum())
    grad = np.where(arg > epsilon, -y / clamped, 0.0)
    return total, grad


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step loss terms; ``total`` is the weighted training objective."""

    image_cls: float
    seed_cls: float
    seed_sal: float
    l2: float
    total: float


# ---------------------------------------------------------------------------
# forward, losses and backward of one image, run by one step kernel

# Beyond |logit| ~36.7 a float64 sigmoid rounds to exactly 0 or 1; the cap
# keeps P inside the open interval ``check_ranges`` asserts. Gradients
# there are ~2e-16 either way, so the chain rule needs no special casing.
_SAL_LOGIT_CAP = 36.0

# how many proposal counts a step kernel keeps workspace views for: the
# views of one count take ~10 kB and rebuilding them ~40 us, and a dense
# dataset of 100-200 proposals per image has ~90 distinct counts
_KEPT_COUNTS = 128


def _check_finite(arr, layer: str):
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite activation in {layer}")


def _dot_rows(pairs, w):
    """``out = x @ w`` for every (x, out) pair: one product per image.

    Stacking the images into one product changes bits: a 1-row product
    is a gemv, and the BLAS kernel also changes with the row count.
    """
    for x, out in pairs:
        np.dot(x, w, out=out)


def _reduce_columns(ufunc, pairs):
    """``out = ufunc.reduce(x, axis=0)`` for every (x, out) pair: one per image."""
    for x, out in pairs:
        ufunc.reduce(x, axis=0, out=out)


def _check_features(features, config: ModelConfig) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.feature_dim:
        raise ValueError(f"features must be (N_R, {config.feature_dim}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one proposal")
    return x


# a plan takes ~3.5 kB and ~20 us to build; a kernel's workspaces need
# one per proposal count (dense datasets have ~100) and evaluation one
# per chunk shape
@functools.lru_cache(maxsize=256)
def _workspace_plan(config: ModelConfig, n: int, images: int, backward: bool):
    """Buffer size, and name -> (start, stop, shape) of every array of a pass.

    ``n`` rows of ``images`` whole images. Arrays are in buffer order: the
    input copy and the pre-activations first, in layer order, then the
    score matrix and the image scores, then the softmax sums, the rest of
    the forward arrays and, with ``backward``, the backward pass's scratch.
    """
    c, k, hid = config.num_classes, config.trunk_out, config.saliency_hidden
    widths, sal = config.trunk_widths, config.saliency_enabled
    shapes = {"features": (n, config.feature_dim)}
    shapes.update({f"pre{l}": (n, w) for l, w in enumerate(widths)})
    if sal:
        shapes.update(sal_pre=(n, hid), sal_raw=(n,))
    tau = (c,) if images == 1 else (images, c)
    shapes.update(s_cls=(n, c), s_det=(n, c), scores=(n, c), image_scores=tau,
                  sums=(n + images * c,))
    shapes.update({f"act{l}": (n, w) for l, w in enumerate(widths)})
    if sal:
        shapes.update(sal_hidden=(n, hid), sal_logit=(n,), denominator=(n,))
    shapes.update(saliency=(n,), weighted=(n, k), cls_softmax=(n, c), det_softmax=(n, c))
    if backward:
        shapes.update(d_scores=(n, c), d_sal=(n,), d_cls=(n, c), d_det=(n, c), tmp=(n, c))
        shapes.update(d_g=(n, k), tmp_g=(n, k), d_h=(n, k))
        if sal:
            shapes.update(d_p=(n,), d_logit=(n,), one_minus_p=(n,), d_u=(n, hid), d_z_sal=(n, hid))
        shapes.update({f"d_z{l}": (n, w) for l, w in enumerate(widths)})
        shapes.update({f"d_in{l}": (n, widths[l - 1]) for l in range(1, len(widths))})
    plan, off = {}, 0
    for name, shape in shapes.items():
        plan[name] = (off, off + math.prod(shape), shape)
        off += math.prod(shape)
    return off, plan


class ForwardTrace:
    """All arrays of one forward pass over a run of whole images, carved from one float64 buffer.

    ``counts`` lists the images' proposal counts; their rows are stacked
    in that order, N rows in all. A training step or a ``forward`` call
    is a run of one image. ``features`` (N, D) is the input copy;
    ``trunk_pre`` lists each trunk layer's pre-activations and
    ``trunk_act`` is [features, h_1, ..., h_L]. ``sal_pre``,
    ``sal_hidden`` and ``sal_logit`` are the saliency branch's (None
    without it), ``saliency`` is P, (N,), all ones without the branch,
    and ``weighted`` is P[:, None] * trunk output. ``cls_softmax`` rows
    (one per proposal) sum to 1 over classes; ``det_softmax`` columns sum
    to 1 over each image's proposals, per class. ``scores`` is their
    elementwise product, (N, C), and ``image_scores`` its per-class sum
    over each image's proposals: (C,) for one image, (images, C) for
    more. The other attributes are named as in :func:`_workspace_plan`.

    The work whose bits depend on an image's shape runs per image, on
    views of that image's rows built here once, as lists of per-image
    (input, output) pairs: the matrix products (``trunk_dots`` per layer,
    ``sal_dots`` and ``head_dots``) and the column reductions
    (``det_max`` and ``det_sum`` of the detection softmax, ``tau_sum`` of
    the image scores). Everything else runs once over all rows.

    Three runs of the buffer are checked with one reduction each: ``pre``
    (the input copy and every pre-activation), ``unit`` (score matrix and
    image scores) and ``sums`` (the softmax sums). The trace allocates
    its buffer, except a step kernel's workspace, which passes the
    kernel's shared ``buf`` and ``backward``, so that the buffer also
    holds the backward pass's scratch.
    """

    def __init__(self, config: ModelConfig, counts, buf: np.ndarray | None = None,
                 backward: bool = False):
        counts = tuple(counts)
        n, images, c = sum(counts), len(counts), config.num_classes
        size, plan = _workspace_plan(config, n, images, backward)
        if buf is None:
            buf = np.empty(size)
        vars(self).update(
            (name, buf[lo:hi].reshape(shape)) for name, (lo, hi, shape) in plan.items()
        )
        self.pre = buf[: plan["scores"][0]]
        self.unit = buf[plan["scores"][0] : plan["sums"][0]]
        self.row_sums, self.col_sums = self.sums[:n], self.sums[n:]
        # the softmax max and sum temporaries share the sums' slots; ``row``
        # holds one row of column values per image
        self.col, self.row = self.row_sums.reshape(n, 1), self.col_sums.reshape(images, c)

        depth = len(config.trunk_widths)
        self.trunk_pre = [getattr(self, f"pre{l}") for l in range(depth)]
        self.trunk_act = [self.features] + [getattr(self, f"act{l}") for l in range(depth)]
        self.saliency_enabled = sal = config.saliency_enabled
        if not sal:
            self.sal_pre = self.sal_hidden = self.sal_logit = None
        # pre-activations in layer order, under the names their errors give
        self.layers = [("input features", self.features)]
        self.layers += [(f"trunk layer {l}", z) for l, z in enumerate(self.trunk_pre)]
        if sal:
            self.layers += [
                ("saliency hidden layer", self.sal_pre),
                ("saliency output layer", self.sal_raw),
            ]
        self.layers += [("classification stream", self.s_cls), ("detection stream", self.s_det)]
        if backward:
            self.d_z = [getattr(self, f"d_z{l}") for l in range(depth)]
            self.d_in = [None] + [getattr(self, f"d_in{l}") for l in range(1, depth)]

        bounds = np.cumsum((0,) + counts).tolist()
        rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

        def dots(x, out):  # each image's rows of both
            return [(x[r], out[r]) for r in rows]

        def columns(x, out):  # each image's rows of x, its row of out
            return [(x[r], out[i]) for i, r in enumerate(rows)]

        self.trunk_dots = [dots(x, z) for x, z in zip(self.trunk_act, self.trunk_pre)]
        self.sal_dots = (
            (dots(self.trunk_act[-1], self.sal_pre), dots(self.sal_hidden, self.sal_raw))
            if sal else None
        )
        self.head_dots = (dots(self.weighted, self.s_cls), dots(self.weighted, self.s_det))
        self.det_max = columns(self.s_det, self.row)
        self.det_sum = columns(self.det_softmax, self.row)
        self.tau_sum = columns(self.scores, self.image_scores.reshape(images, c))
        # the image of every row, for ``spread_row``
        self.row_image = np.repeat(np.arange(images), counts) if images > 1 else None

    def spread_row(self) -> np.ndarray:
        """Each image's row of ``row`` (images, C) repeated over the image's rows.

        Several images fill ``scores``, which the pass writes last, with
        the repeated rows; one image broadcasts its row.
        """
        if self.row_image is None:
            return self.row
        return np.take(self.row, self.row_image, axis=0, out=self.scores)

    def check_finite(self):
        """One check over every pre-activation; on failure name the first bad layer.

        Their sum is finite unless one of them is not, or the sum
        overflows; then the walk finds no bad layer and nothing is raised.
        """
        if not math.isfinite(np.add.reduce(self.pre)):
            for layer, arr in self.layers:
                _check_finite(arr, layer)

    def check_ranges(self):
        """Raise a FloatingPointError naming the first range the pass left.

        The checks run in this order: P in the open interval (0, 1), the
        score matrix and then the image scores in [0, 1], the softmax rows
        and then columns summing to 1 within 1e-6. The passing path
        reduces P, ``unit`` and ``sums`` whole, after one column sum per
        image; only a failed run is split to name its part.
        """
        p = self.saliency
        if self.saliency_enabled and (
            np.minimum.reduce(p) <= 0.0 or np.maximum.reduce(p) >= 1.0
        ):
            raise FloatingPointError("saliency prediction left the open interval (0, 1)")
        if np.minimum.reduce(self.unit) < 0.0 or np.maximum.reduce(self.unit) > 1.0:
            if self.scores.min() < 0.0 or self.scores.max() > 1.0:
                raise FloatingPointError("score matrix left [0, 1]")
            raise FloatingPointError("image scores left [0, 1]")
        np.add.reduce(self.cls_softmax, axis=1, out=self.row_sums)
        _reduce_columns(np.add, self.det_sum)
        self.sums -= 1.0
        np.abs(self.sums, out=self.sums)
        if np.maximum.reduce(self.sums) > 1e-6:
            if self.row_sums.max() > 1e-6:
                raise FloatingPointError("classification softmax rows do not sum to 1")
            raise FloatingPointError("detection softmax columns do not sum to 1")


class _StepKernel:
    """Forward, losses, backward and L2 term of one image for one ModelParams.

    The parameter and gradient views are bound once. Training steps run
    in one workspace buffer sized to the largest proposal count seen so
    far, and the views of the last few counts are kept. ``grad`` is
    overwritten by every backward pass, so callers hand out copies. The
    order of every float operation is that of the per-layer formulation
    (``tests/oracles.py`` keeps it as a reference), so results match it
    bit for bit.
    """

    def __init__(self, params: ModelParams, config: ModelConfig):
        layout = param_layout(config)
        if params.layout is not layout and params.layout.tensors != layout.tensors:
            raise ValueError("gradient shape mismatch: parameters do not fit the config")
        if params.layout.l2_end != layout.l2_end:  # same tensors: the other saliency switch
            raise ValueError(
                f"saliency mismatch: parameters fit saliency_enabled={not config.saliency_enabled}"
            )
        self.config = config
        self.grad = np.zeros(layout.size)
        v, gv = params.values, layout.views(self.grad)
        trunk = [f"trunk{l}" for l in range(len(config.trunk_widths))]
        self.trunk = [(v[f"{m}.w"], v[f"{m}.b"]) for m in trunk]
        self.trunk_grad = [(gv[f"{m}.w"], gv[f"{m}.b"]) for m in trunk]
        sal = ("sal_hidden.w", "sal_hidden.b", "sal_out.w", "sal_out.b")
        self.sal = [v[name] for name in sal]
        self.sal_grad = [gv[name] for name in sal]
        head = ("cls.w", "cls.b", "det.w", "det.b")
        self.head = [v[name] for name in head]
        self.head_grad = [gv[name] for name in head]
        self.l2_values = params.flat_values[: layout.l2_end]
        self.l2_grad = self.grad[: layout.l2_end]
        self.l2_tmp = np.empty(layout.l2_end)
        self.buffer = np.empty(0)
        self._workspaces = {}

    def workspace(self, n: int) -> ForwardTrace:
        """Views of the shared buffer for one image of ``n`` proposals; the buffer only grows."""
        ws = self._workspaces.get(n)
        if ws is None:
            size, _ = _workspace_plan(self.config, n, 1, True)
            if size > self.buffer.size:
                self.buffer = np.empty(size)
                self._workspaces.clear()
            elif len(self._workspaces) >= _KEPT_COUNTS:
                self._workspaces.clear()
            ws = ForwardTrace(self.config, (n,), self.buffer, backward=True)
            self._workspaces[n] = ws
        return ws

    # overflow surfaces as a FloatingPointError from the finiteness check,
    # so the numpy warning would only duplicate it
    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, ws: ForwardTrace) -> None:
        """Run the pass on the checked features in ``ws.features``, then check its ranges.

        Each matrix product runs per image, on the shapes of one image.
        """
        for (w, b), dots, z, out in zip(self.trunk, ws.trunk_dots, ws.trunk_pre, ws.trunk_act[1:]):
            _dot_rows(dots, w)
            z += b
            h = np.maximum(z, 0.0, out=out)

        p = ws.saliency
        if ws.saliency_enabled:
            w, b, w_out, b_out = self.sal
            dots_hidden, dots_out = ws.sal_dots
            _dot_rows(dots_hidden, w)
            ws.sal_pre += b
            np.maximum(ws.sal_pre, 0.0, out=ws.sal_hidden)
            _dot_rows(dots_out, w_out)
            ws.sal_raw += b_out
            logit = ws.sal_logit
            np.maximum(ws.sal_raw, -_SAL_LOGIT_CAP, out=logit)
            np.minimum(logit, _SAL_LOGIT_CAP, out=logit)
            # sigmoid: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
            # below; the numerator is exp(min(x, 0)), the denominator
            # 1 + exp(-|x|)
            den = ws.denominator
            np.minimum(logit, 0.0, out=p)
            np.exp(p, out=p)
            np.abs(logit, out=den)
            np.negative(den, out=den)
            np.exp(den, out=den)
            den += 1.0
            p /= den
        else:
            p.fill(1.0)

        g = ws.weighted
        np.multiply(h, p[:, None], out=g)
        w_cls, b_cls, w_det, b_det = self.head
        dots_cls, dots_det = ws.head_dots
        _dot_rows(dots_cls, w_cls)
        ws.s_cls += b_cls
        _dot_rows(dots_det, w_det)
        ws.s_det += b_det
        ws.check_finite()

        a, col = ws.cls_softmax, ws.col
        np.maximum.reduce(ws.s_cls, axis=1, keepdims=True, out=col)
        np.subtract(ws.s_cls, col, out=a)
        np.exp(a, out=a)
        np.add.reduce(a, axis=1, keepdims=True, out=col)
        a /= col
        # the detection softmax runs over each image's proposals: only its
        # column max and sum are taken per image
        b = ws.det_softmax
        _reduce_columns(np.maximum, ws.det_max)
        np.subtract(ws.s_det, ws.spread_row(), out=b)
        np.exp(b, out=b)
        _reduce_columns(np.add, ws.det_sum)
        b /= ws.spread_row()

        np.multiply(a, b, out=ws.scores)
        # the per-class sum is <= 1 exactly; min() only absorbs summation rounding
        _reduce_columns(np.add, ws.tau_sum)
        np.minimum(ws.image_scores, 1.0, out=ws.image_scores)
        ws.check_ranges()

    def losses(self, trace, labels_y, assignment, d_scores, d_sal) -> LossBreakdown:
        """Every loss term; writes the weighted total's gradients w.r.t. scores and P."""
        config = self.config
        if assignment is not None:
            n = trace.scores.shape[0]
            last = max(assignment.sample_indices, default=-1)
            if last >= n:
                raise ValueError(
                    f"assignment proposal index {last} out of range for {n} proposals"
                )
        l_ic, d_tau = image_classification_loss(trace.image_scores, labels_y, _EPSILON)
        d_scores[...] = d_tau

        l_sc = 0.0
        if assignment is not None and config.lambda_seed_cls > 0:
            l_sc, terms = _seed_classification_terms(
                trace.scores, assignment.seeds, _EPSILON
            )
            # seed classes are distinct, so each entry gets one term
            for i, c, d in terms:
                d_scores[i, c] += config.lambda_seed_cls * d

        l_ss = 0.0
        if (
            assignment is not None
            and config.saliency_enabled
            and config.lambda_seed_sal > 0
            and len(assignment.sample_indices) > 0
        ):
            l_ss, d_p = seed_saliency_loss(
                trace.saliency, assignment.sample_indices, assignment.targets
            )
            np.multiply(d_p, config.lambda_seed_sal / 2.0, out=d_sal)
        else:
            d_sal.fill(0.0)

        l_reg = float(self.l2_values @ self.l2_values)
        total = (
            l_ic
            + config.lambda_seed_cls * l_sc
            + (config.lambda_seed_sal / 2.0) * l_ss
            + (config.lambda_l2 / 2.0) * l_reg
        )
        return LossBreakdown(
            image_cls=l_ic, seed_cls=l_sc, seed_sal=l_ss, l2=l_reg, total=total
        )

    def backward(self, trace, d_scores, d_sal, ws: ForwardTrace) -> None:
        """Write the gradient of the weighted total into ``grad``, using ``ws`` as scratch."""
        a, b = trace.cls_softmax, trace.det_softmax
        d_cls, d_det, tmp = ws.d_cls, ws.d_det, ws.tmp
        np.multiply(d_scores, b, out=d_cls)
        np.multiply(d_scores, a, out=d_det)
        # softmax backward: d_s = a * (d_a - sum(d_a * a)) per row, per column for b
        np.multiply(d_cls, a, out=tmp)
        np.add.reduce(tmp, axis=1, keepdims=True, out=ws.col)
        d_cls -= ws.col
        d_cls *= a
        np.multiply(d_det, b, out=tmp)
        np.add.reduce(tmp, axis=0, keepdims=True, out=ws.row)
        d_det -= ws.row
        d_det *= b

        g = trace.weighted
        w_cls, _, w_det, _ = self.head
        gw_cls, gb_cls, gw_det, gb_det = self.head_grad
        np.dot(g.T, d_cls, out=gw_cls)
        np.add.reduce(d_cls, axis=0, out=gb_cls)
        np.dot(g.T, d_det, out=gw_det)
        np.add.reduce(d_det, axis=0, out=gb_det)
        d_g = ws.d_g
        np.dot(d_cls, w_cls.T, out=d_g)
        np.dot(d_det, w_det.T, out=ws.tmp_g)
        d_g += ws.tmp_g

        h = trace.trunk_act[-1]
        p = trace.saliency
        d_h = np.multiply(d_g, p[:, None], out=ws.d_h)

        if self.config.saliency_enabled:
            w, _, w_out, _ = self.sal
            gw, gb, gw_out, gb_out = self.sal_grad
            d_p, d_logit = ws.d_p, ws.d_logit
            np.multiply(d_g, h, out=ws.tmp_g)
            np.add.reduce(ws.tmp_g, axis=1, out=d_p)
            d_p += d_sal
            np.multiply(d_p, p, out=d_logit)
            np.subtract(1.0, p, out=ws.one_minus_p)
            d_logit *= ws.one_minus_p
            np.dot(trace.sal_hidden.T, d_logit, out=gw_out)
            gb_out[0] = d_logit.sum()
            d_z = ws.d_z_sal
            np.multiply(d_logit[:, None], w_out, out=ws.d_u)
            np.greater(trace.sal_pre, 0.0, out=d_z)
            d_z *= ws.d_u
            np.dot(h.T, d_z, out=gw)
            np.add.reduce(d_z, axis=0, out=gb)
            np.dot(d_z, w.T, out=ws.tmp_g)
            d_h += ws.tmp_g

        for l in reversed(range(len(self.trunk))):
            d_z = ws.d_z[l]
            np.greater(trace.trunk_pre[l], 0.0, out=d_z)
            d_z *= d_h
            gw, gb = self.trunk_grad[l]
            np.dot(trace.trunk_act[l].T, d_z, out=gw)
            np.add.reduce(d_z, axis=0, out=gb)
            if l:  # the gradient w.r.t. the input features is not needed
                d_h = np.dot(d_z, self.trunk[l][0].T, out=ws.d_in[l])

        np.multiply(self.l2_values, self.config.lambda_l2, out=self.l2_tmp)
        self.l2_grad += self.l2_tmp


def _step_kernel(params: ModelParams, config: ModelConfig) -> _StepKernel:
    """The kernel kept with ``params``, rebuilt when the config changes."""
    kernel = params._kernel
    if kernel is None or (kernel.config is not config and kernel.config != config):
        kernel = params._kernel = _StepKernel(params, config)
    return kernel


def forward(params: ModelParams, features: np.ndarray, config: ModelConfig) -> ForwardTrace:
    """Run the network on one image's proposal features.

    The trace's arrays are new on every call.
    """
    return forward_images(params, [features], config)


def forward_images(params: ModelParams, features, config: ModelConfig) -> ForwardTrace:
    """Run the network on a run of whole images, one (N_R, D) features array each.

    The images' rows are stacked in order in one :class:`ForwardTrace`,
    and every score is the one ``forward`` gives for its image alone.
    The trace's arrays are new on every call.
    """
    xs = [_check_features(f, config) for f in features]
    if not xs:
        raise ValueError("need at least one image")
    trace = ForwardTrace(config, [x.shape[0] for x in xs])
    np.concatenate(xs, out=trace.features)
    _step_kernel(params, config).forward(trace)
    return trace


def _check_one_image(trace: ForwardTrace) -> None:
    if trace.row_image is not None:
        raise ValueError(f"need one image's trace, got a trace of {len(trace.image_scores)} images")


def step_losses(params, trace, labels_y, assignment, config):
    """All loss terms for one image plus gradients w.r.t. scores and P.

    Returns ``(breakdown, d_scores, d_saliency)`` where the gradients are
    of the weighted total. ``assignment`` may be None (no seed terms,
    e.g. at test time or with seed supervision disabled); a seed or
    negative index >= N_R is a ValueError.
    """
    _check_one_image(trace)
    d_scores = np.empty(trace.scores.shape)
    d_sal = np.empty(trace.saliency.shape)
    kernel = _step_kernel(params, config)
    breakdown = kernel.losses(trace, labels_y, assignment, d_scores, d_sal)
    return breakdown, d_scores, d_sal


def backward(params, trace, d_scores, d_saliency, config):
    """Exact reverse-mode gradients of the weighted total w.r.t. every tensor.

    ``d_scores`` and ``d_saliency`` are the gradients of the objective
    w.r.t. the score matrix and P (both already lambda-weighted); the L2
    term is added here. Disabled-branch tensors get zero gradients.
    Returns a new flat vector laid out like ``params.flat_values``;
    ``params.layout.views(grad)`` names its tensors.
    """
    _check_one_image(trace)
    if d_scores.shape != trace.scores.shape:
        raise ValueError("d_scores shape mismatch")
    kernel = _step_kernel(params, config)
    kernel.backward(trace, d_scores, d_saliency, kernel.workspace(d_scores.shape[0]))
    return kernel.grad.copy()


def loss_and_grads(params, features, labels_y, assignment, config):
    """Forward, losses, backward and L2 term in one call; returns (breakdown, flat grad).

    The same maths as ``forward``, ``step_losses`` and ``backward`` in
    turn, run in the kernel kept with ``params``, with the same
    ValueError for an assignment index >= N_R. The gradient is a new
    array on every call.
    """
    x = _check_features(features, config)
    kernel = _step_kernel(params, config)
    ws = kernel.workspace(x.shape[0])
    np.copyto(ws.features, x)
    kernel.forward(ws)
    breakdown = kernel.losses(ws, labels_y, assignment, ws.d_scores, ws.d_sal)
    kernel.backward(ws, ws.d_scores, ws.d_sal, ws)
    return breakdown, kernel.grad.copy()


# ---------------------------------------------------------------------------
# checkpoint serialization: one header encoding, then float32 tensors

_CKPT_MAGIC = b"SALDETC\x00"
_CKPT_VERSION = 1


def _checkpoint_header(config: ModelConfig) -> bytes:
    """The magic, then little-endian u32s: version, tensor count, feature_dim,
    num_classes, saliency_hidden, saliency flag (0/1), trunk depth, the trunk
    widths, and per tensor in declaration order its ndim and dims."""
    shapes = _tensor_shapes(config)
    fields = [_CKPT_VERSION, len(shapes), config.feature_dim, config.num_classes,
              config.saliency_hidden, 1 if config.saliency_enabled else 0,
              len(config.trunk_widths), *config.trunk_widths]
    for _, shape in shapes:
        fields += [len(shape), *shape]
    return _CKPT_MAGIC + struct.pack(f"<{len(fields)}I", *fields)


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """Write the header, then each tensor as little-endian float32.

    Values are clipped to the float32 finite range so a checkpoint can
    never hold inf; this only matters for rescue checkpoints written
    after divergence, where weights may exceed 3.4e38.
    """
    f4_max = float(np.finfo(np.float32).max)
    blob = bytearray(_checkpoint_header(config))
    for name, shape in _tensor_shapes(config):
        arr = params.values[name]
        if tuple(arr.shape) != shape:
            raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        blob += np.clip(arr, -f4_max, f4_max).astype("<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config) with default loss weights."""
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:8] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")

    def read_u32s(offset, count):
        if offset + 4 * count > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        return struct.unpack_from(f"<{count}I", blob, offset)

    feature_dim, num_classes, sal_hidden, sal_enabled, n_trunk = read_u32s(16, 5)
    if sal_enabled not in (0, 1):
        raise ValueError(f"{path}: saliency flag {sal_enabled} is neither 0 nor 1")
    config = ModelConfig(
        feature_dim=feature_dim,
        num_classes=num_classes,
        trunk_widths=read_u32s(36, n_trunk),
        saliency_hidden=sal_hidden,
        saliency_enabled=bool(sal_enabled),
    )
    # the header alone must not size the buffers: a forged width would
    # otherwise allocate before the missing data is noticed
    header, layout = _checkpoint_header(config), param_layout(config)
    if len(blob) < len(header) + 4 * layout.size:
        raise ValueError(f"{path}: truncated checkpoint")
    if len(blob) > len(header) + 4 * layout.size:
        raise ValueError(f"{path}: trailing bytes after tensor data")
    if blob[: len(header)] != header:
        raise ValueError(f"{path}: shape table does not match the architecture")
    params = ModelParams(layout)
    run = np.frombuffer(blob, dtype="<f4", offset=len(header))
    for name, arr in params.values.items():  # declaration order
        arr[...] = run[: arr.size].reshape(arr.shape)
        run = run[arr.size :]
        # saving clips to the finite float32 range, so only damage yields these
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name} holds non-finite values")
    return params, config


# ---------------------------------------------------------------------------
# finite-difference gradient verification

@dataclass
class GradCheckReport:
    max_rel_error: float
    per_instance: list[tuple[str, float]]  # (description, max rel error)
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < 1e-5


def run_gradient_check(seed: int = 7, instances: int = 20, step: float = 1e-5):
    """Compare analytic gradients of the full objective to central differences.

    Cycles through small architectures over C in {2, 5}, N_R in {1, 3, 8},
    D in {4, 16} with random parameters, labels, and seed assignments.
    Per coordinate the relative error is |ga - fd| / max(|ga|, |fd|, 1e-6).
    A central difference of a loss of magnitude f cannot resolve anything
    below ~f*eps/(2*step), so absolute differences under 64x that floor
    count as matched; the detection-stream bias, whose true gradient is
    exactly zero by the column-softmax shift invariance, is the canonical
    case. Real defects (wrong terms, missing factors, sign flips) sit
    orders of magnitude above the floor.
    """
    from .seeds import SeedAssignment  # local import to avoid a cycle

    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    rng = np.random.default_rng(seed)
    grid = [
        (c, n, d) for c in (2, 5) for n in (1, 3, 8) for d in (4, 16)
    ]
    start = time.perf_counter()
    per_instance = []
    worst = 0.0
    for k in range(instances):
        c, n, d = grid[k % len(grid)]
        config = ModelConfig(
            feature_dim=d, num_classes=c, trunk_widths=(6, 5), saliency_hidden=4,
        )
        params = init_params(config, rng_seed=int(rng.integers(2**31)))
        # non-zero biases move pre-activations off the ReLU kink
        for name, arr in params.values.items():
            if not _is_weight(name):
                arr[...] = rng.uniform(-0.1, 0.1, arr.shape)
        features = rng.normal(size=(n, d))

        y = rng.choice([-1, 1], size=c)
        y[int(rng.integers(c))] = 1
        positives = np.flatnonzero(y == 1)
        seeds_pairs = tuple(
            (int(cls), int(rng.integers(n))) for cls in positives
        )
        free = [i for i in range(n) if i not in {i for _, i in seeds_pairs}]
        rng.shuffle(free)
        negatives = tuple(free[: len(seeds_pairs)])
        assignment = SeedAssignment(seeds=seeds_pairs, negatives=negatives)

        def total_loss():
            return loss_and_grads(params, features, y, assignment, config)[0].total

        breakdown, grad = loss_and_grads(params, features, y, assignment, config)
        noise_floor = 64.0 * abs(breakdown.total) * np.finfo(np.float64).eps / (2.0 * step)

        inst_worst = 0.0
        flat = params.flat_values
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            plus = total_loss()
            flat[j] = orig - step
            minus = total_loss()
            flat[j] = orig
            fd = (plus - minus) / (2.0 * step)
            if abs(grad[j] - fd) < noise_floor:
                continue
            denom = max(abs(grad[j]), abs(fd), 1e-6)
            inst_worst = max(inst_worst, abs(grad[j] - fd) / denom)
        per_instance.append((f"C={c} N_R={n} D={d}", inst_worst))
        worst = max(worst, inst_worst)
    return GradCheckReport(
        max_rel_error=worst,
        per_instance=per_instance,
        elapsed_s=time.perf_counter() - start,
    )
