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
all run it, ``sgd_step`` runs its update, and a training step is one
call of its ``step``. One trace per pass: every array of a pass lives
in one :class:`ForwardTrace` over a run of whole images, and the
kernel's forward, losses and backward take only that trace. ``forward``
returns a new one over one image and ``forward_images`` a new one over
many (evaluation scores a split in chunks this way); a training step
and ``loss_and_grads`` run in the kernel's workspace, a one-image trace
viewing a buffer the kernel keeps. Only a one-image trace holds the
step's scratch. A run of images gives every image the bits it gets
alone: the matrix products and the per-image column reductions run once
per run of consecutive images of equal proposal count, stacked (images,
rows, width) when the run holds more than one image, so each image's
share runs on its own shape; everything elementwise runs once over all
rows. The two streams' arrays of one kind sit side by side, so an
elementwise op or a same-axis reduction runs once over their (2, N, C)
pair. A training step allocates no vector the size of the parameters:
the gradient, the L2 term and the update's ``lr * v`` are written into
vectors the kernel keeps, and ``loss_and_grads`` returns a copy of the
gradient.

A step is its numpy calls and little else. A trace binds every view
its pass reads when it is built, and the kernel its parameter and
gradient views, transposes included; forward, losses and backward read
them by name, with the per-run product and reduction loops inline. A
trace's views never change, and the kernel drops its kept traces when
its buffer grows or it has kept ``_KEPT_COUNTS`` counts; a new config
builds a new kernel.
The float operands are read-only 0-d float64 arrays kept for good
(``_kept``): numpy converts a Python float operand to an array on every
call, and a kept one gives the same bits. Without the saliency branch
P = 1 and its zero gradient are written once, when a trace is built.
``ForwardTrace.check_ranges`` is the one check of the ranges a pass must stay in.
"""

import functools
import itertools
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .core import check_label_values, check_number_fields

_EPSILON = 1e-8  # clamp for the log arguments of the image and seed classification losses


def _kept(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, kept as a ufunc operand.

    numpy converts a Python float operand to an array on every call; a
    kept array holds the same float64 and is taken as it is.
    """
    const = np.array(value, dtype=np.float64)
    const.flags.writeable = False
    return const


# the float operands of a pass
_ZERO, _ONE, _MINUS_ONE, _HALF, _TWO = map(_kept, (0.0, 1.0, -1.0, 0.5, 2.0))
_EPSILON_KEPT = _kept(_EPSILON)

_add_reduce, _max_reduce, _min_reduce = np.add.reduce, np.maximum.reduce, np.minimum.reduce
# a step's ufuncs, bound once: numpy's module ``__getattr__`` leaves every
# ``np.<name>`` load unspecialized, and a step makes ~45 of them. Its
# matrix products are ndarray methods, which skip ``np.dot``'s
# ``__array_function__`` dispatch and run the same product
_abs, _copysign, _divide, _exp, _greater, _log = (
    np.abs, np.copysign, np.divide, np.exp, np.greater, np.log)
_maximum, _minimum, _multiply, _negative, _subtract = (
    np.maximum, np.minimum, np.multiply, np.negative, np.subtract)


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
        check_number_fields(self)
        if self.feature_dim < 1 or self.num_classes < 1:
            raise ValueError("feature_dim and num_classes must be >= 1")
        if not self.trunk_widths or any(w < 1 for w in self.trunk_widths):
            raise ValueError("trunk widths must all be >= 1")
        if self.saliency_hidden < 1:
            raise ValueError("saliency_hidden must be >= 1")
        if min(self.lambda_seed_cls, self.lambda_seed_sal, self.lambda_l2) < 0:
            raise ValueError("loss weights must be >= 0")

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
    for name, arr in params.values.items():  # declaration order
        if _is_weight(name):
            scale = 1.0 / math.sqrt(arr.shape[0])
            arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    return params


def _check_fit(params: ModelParams, config: ModelConfig) -> ParamLayout:
    layout = param_layout(config)
    if params.layout is not layout and params.layout.tensors != layout.tensors:
        raise ValueError("parameters do not fit the config")
    if params.layout.l2_end != layout.l2_end:  # same tensors: the other saliency switch
        other = not config.saliency_enabled
        raise ValueError(f"saliency mismatch: parameters fit saliency_enabled={other}")
    return layout


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
    # numpy's index rules: a negative index counts from the end, one out of range raises
    idx = np.arange(saliency.size)[np.asarray(sample_indices, dtype=np.int64)]
    loss, grad = _seed_saliency_loss(saliency, idx, np.asarray(targets, dtype=np.float64))
    return loss, grad.astype(saliency.dtype, copy=False)  # bincount of no indices gives ints


def _seed_saliency_loss(saliency, idx, targets):
    """The loss and its gradient w.r.t. P, which the duplicates of an index sum into."""
    residual = saliency[idx]
    residual -= targets
    total = float(residual.dot(residual))
    residual *= _TWO
    # bincount adds each index's terms in order into zeros, as np.add.at would
    return total, np.bincount(idx, residual, minlength=saliency.size)


def image_classification_loss(image_scores, labels_y, epsilon):
    """Binary log loss on the per-class image scores; gradient w.r.t. them.

    The log argument is tau for positive classes and 1 - tau for negative
    ones; arguments at or below ``epsilon`` are clamped with zero gradient.
    Labels not shaped like the scores or not all +1 or -1 are a ValueError.
    """
    y = _check_labels(labels_y, image_scores.shape)
    grad, *scratch = np.empty((3, *image_scores.shape))
    mask = np.empty(image_scores.shape, dtype=bool)
    return _image_classification_loss(image_scores, y, epsilon, grad, *scratch, mask), grad


def _check_labels(labels_y, shape) -> np.ndarray:
    y = np.asarray(labels_y, dtype=np.float64)
    if y.shape != shape:
        raise ValueError(f"labels shape {y.shape} != image scores shape {shape}")
    check_label_values(y)
    return y


def _image_classification_loss(tau, y, epsilon, grad, arg, clamped, mask):
    """The loss for checked float64 labels ``y``; its gradient goes to
    ``grad``, the other arrays are scratch."""
    _subtract(tau, _HALF, out=arg)
    arg *= y
    arg += _HALF
    _maximum(arg, epsilon, out=clamped)
    total = float(-_add_reduce(_log(clamped, out=grad)))
    # -y / clamped where arg > epsilon, else 0.0: the negation turns the
    # -0.0 left outside the mask into 0.0
    _greater(arg, epsilon, out=mask)
    grad.fill(-0.0)
    _divide(y, clamped, out=grad, where=mask)
    _negative(grad, out=grad)
    return total


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
# views of one count take ~20 kB and rebuilding them ~40 us, and a dense
# dataset of 100-200 proposals per image has ~90 distinct counts
_KEPT_COUNTS = 128


def _check_finite(arr, layer: str):
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite activation in {layer}")


def _check_features(features, config: ModelConfig) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.feature_dim:
        raise ValueError(f"features must be (N_R, {config.feature_dim}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one proposal")
    return x


def _check_targets(labels_y, assignment, n: int, config: ModelConfig) -> np.ndarray:
    """The labels as float64, once they and the assignment fit an image of ``n`` proposals.

    The assignment's largest index is checked first, then the labels' shape.
    """
    if assignment is not None:
        last = max(assignment.sample_indices, default=-1)
        if last >= n:
            raise ValueError(f"assignment proposal index {last} out of range for {n} proposals")
    return _check_labels(labels_y, (config.num_classes,))


# a plan takes ~3.5 kB and ~20 us to build; a kernel's workspaces need
# one per proposal count (dense datasets have ~100) and evaluation one
# per chunk shape
@functools.lru_cache(maxsize=256)
def _workspace_plan(config: ModelConfig, n: int, images: int):
    """Buffer size, and name -> (start, stop, shape) of every array of a pass.

    ``n`` rows of ``images`` whole images. Arrays are in buffer order: the
    input copy and the pre-activations first, in layer order, then the
    score matrix and the image scores, then the softmax sums, the rest of
    the forward arrays and, for one image, the step's scratch. Without
    the saliency branch P and its gradient are not in the buffer.
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
    if sal:  # without the branch ``weighted`` is the trunk output itself
        shapes.update(sal_hidden=(n, hid), sal_logit=(n,), denominator=(n,), saliency=(n,),
                      weighted=(n, k))
    shapes.update(cls_softmax=(n, c), det_softmax=(n, c), tmp=(2, n, c))
    if images == 1:
        shapes.update(d_scores=(n, c))
        if sal:
            shapes.update(d_sal=(n,))
        shapes.update(d_cls=(n, c), d_det=(n, c), d_g=(n, k), tmp_g=(n, k))
        if sal:  # and ``d_h`` is ``d_g``
            shapes.update(d_h=(n, k), d_p=(n,), d_logit=(n,), one_minus_p=(n,),
                          d_u=(n, hid))
        # laid out as the pre-activations they mask: the trunk's, then the branch's
        shapes.update({f"d_z{l}": (n, w) for l, w in enumerate(widths)})
        if sal:
            shapes.update(d_z_sal=(n, hid))
        shapes.update({f"d_in{l}": (n, widths[l - 1]) for l in range(1, len(widths))})
    plan, off = {}, 0
    for name, shape in shapes.items():
        plan[name] = (off, off + math.prod(shape), shape)
        off += math.prod(shape)
    return off, plan


class ForwardTrace:
    """All arrays of one forward pass over a run of whole images, carved from one float64 buffer.

    ``counts`` lists the images' proposal counts; their rows are stacked
    in that order, N rows in all. One trace per pass: a training step or
    a ``forward`` call is a run of one image, and only such a trace holds
    the step's scratch: ``d_scores`` and ``d_sal``, which the losses write
    and backward reads, and backward's arrays. ``features`` (N, D) is the input copy;
    ``trunk_pre`` lists each trunk layer's pre-activations and
    ``trunk_act`` is [features, h_1, ..., h_L]. ``sal_pre``,
    ``sal_hidden`` and ``sal_logit`` are the saliency branch's (None
    without it), ``saliency`` is P, (N,), all ones without the branch,
    and ``weighted`` is P[:, None] * trunk output, the trunk output
    itself without the branch (and ``d_h`` is ``d_g``). ``cls_softmax`` rows
    (one per proposal) sum to 1 over classes; ``det_softmax`` columns sum
    to 1 over each image's proposals, per class. ``scores`` is their
    elementwise product, (N, C), and ``image_scores`` its per-class sum
    over each image's proposals: (C,) for one image, (images, C) for
    more. The other attributes are named as in :func:`_workspace_plan`.

    The work whose bits depend on an image's shape runs once per run of
    consecutive images of equal count, on views built here once, as
    tuples of per-run entries: the matrix products (``trunk_dots`` per
    layer, ``sal_dots`` and ``head_dots``) as (product, x, out), the
    product ``np.ndarray.dot`` for a run of one image (``np.dot``'s
    bits, without its ``__array_function__`` dispatch) and ``np.matmul``
    for a stack, which runs each image's product on that image's shape and so
    gives it the bits of its own ``np.dot`` (1-row images, the saliency
    gemv and 600-row stacks included; one product over the concatenated
    rows would not, as the BLAS kernel changes with the row count), and
    the column reductions (``det_max`` and ``det_sum`` of the detection
    softmax, ``tau_sum`` of the image scores) as (x, out). A
    run of one image has 2-D views of its rows; a run of k images has its
    rows stacked (k, rows, width) and its outputs of the reductions as
    (k, C). Everything else runs once over all rows.
    ``streams`` (the two heads' outputs), ``softmax`` (the two softmaxes)
    and, for one image, ``d_streams`` view each stream pair as
    one (2, N, C) array, and ``sigmoid`` the [denominator, P] pair. For
    one image ``relu_pre`` views every ReLU layer's pre-activations as one
    block and ``relu_d_z`` their ``d_z`` arrays, laid out alike, so one op
    writes every layer's 0/1 mask. The softmax's per-row and per-image
    shifts and sums are spread over the scratch pair ``tmp`` (``row`` by
    ``row_image``, each row's image, when there are several images), so
    that the pair takes one same-shape op, cheaper on small arrays than
    two that broadcast.

    Every view a pass reads, transposes and column views included, is
    bound here once, so that a pass makes none; ``trunk_layers`` zips
    each trunk layer's products, pre-activations and output, and, for
    one image, ``trunk_layers_back`` what its backward reads. The views
    never change: a trace is built for one buffer and one count list,
    and a kernel builds a new one when its buffer grows. Without the
    saliency branch P = 1 and, for one image, its zero gradient ``d_sal``
    are arrays of the trace's own, written here once; no pass writes them.

    Three runs of the buffer are checked with one reduction each: ``pre``
    (the input copy and every pre-activation), ``unit`` (score matrix and
    image scores) and ``sums`` (the softmax sums). A trace allocates its
    buffer, unless given the kernel's shared ``buf`` as a workspace.
    """

    def __init__(self, config: ModelConfig, counts, buf: np.ndarray | None = None):
        counts = tuple(counts)
        n, images, c = sum(counts), len(counts), config.num_classes
        size, plan = _workspace_plan(config, n, images)
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
        h = self.trunk_act[-1]
        self.saliency_enabled = sal = config.saliency_enabled
        if not sal:
            self.sal_pre = self.sal_hidden = self.sal_logit = None
            self.weighted = h
            self.saliency = np.ones(n)
            if images == 1:
                self.d_sal = np.zeros(n)

        def pair(first, second):  # two arrays side by side; the reshape refuses others
            return buf[plan[first][0] : plan[second][1]].reshape(2, *plan[first][2])

        self.streams = pair("s_cls", "s_det")
        self.softmax = pair("cls_softmax", "det_softmax")
        if sal:
            self.sigmoid = pair("denominator", "saliency")
        # pre-activations in layer order, under the names their errors give
        self.layers = [("input features", self.features)]
        self.layers += [(f"trunk layer {l}", z) for l, z in enumerate(self.trunk_pre)]
        if sal:
            self.layers += [
                ("saliency hidden layer", self.sal_pre),
                ("saliency output layer", self.sal_raw),
            ]
        self.layers += [("classification stream", self.s_cls), ("detection stream", self.s_det)]

        # runs of consecutive images of equal count: (rows, images, k, count)
        runs, row, image = [], 0, 0
        for m, run in itertools.groupby(counts):
            k = len(tuple(run))
            runs.append((slice(row, row + k * m), slice(image, image + k), k, m))
            row, image = row + k * m, image + k

        def stacked(x, rows, k, m):  # one image's rows, or k images' stacked
            return x[rows] if k == 1 else x[rows].reshape(k, m, *x.shape[1:])

        def dots(x, out):  # each run's rows of both
            return tuple((np.ndarray.dot if k == 1 else np.matmul,
                          stacked(x, rows, k, m), stacked(out, rows, k, m))
                         for rows, _, k, m in runs)

        def columns(x, out):  # each run's rows of x, its images' rows of out
            return tuple((stacked(x, rows, k, m), out[images] if k > 1 else out[images.start])
                         for rows, images, k, m in runs)

        self.trunk_dots = [dots(x, z) for x, z in zip(self.trunk_act, self.trunk_pre)]
        self.sal_dots = (dots(h, self.sal_pre), dots(self.sal_hidden, self.sal_raw)) if sal else None
        self.head_dots = (dots(self.weighted, self.s_cls), dots(self.weighted, self.s_det))
        self.det_max = columns(self.s_det, self.row)
        self.det_sum = columns(self.det_softmax, self.row)
        self.tau_sum = columns(self.scores, self.image_scores.reshape(images, c))
        self.row_image = np.repeat(np.arange(images), counts) if images > 1 else None
        self.tmp_cls, self.tmp_det = self.tmp
        self.trunk_layers = tuple(zip(self.trunk_dots, self.trunk_pre, self.trunk_act[1:]))
        self.trunk_out = h
        if sal:
            self.saliency_col = self.saliency[:, None]
        if images == 1:  # the step's scratch
            self.d_streams = pair("d_cls", "d_det")
            # every ReLU layer's pre-activations and their d_z, laid out alike
            last = ("sal_pre", "d_z_sal") if sal else (f"pre{depth - 1}", f"d_z{depth - 1}")
            self.relu_pre = buf[plan["pre0"][0] : plan[last[0]][1]]
            self.relu_d_z = buf[plan["d_z0"][0] : plan[last[1]][1]]
            self.weighted_t = self.weighted.T
            if sal:
                self.sal_hidden_t, self.trunk_out_t = self.sal_hidden.T, h.T
                self.d_logit_col = self.d_logit[:, None]
            else:
                self.d_h = self.d_g
            d_z = [getattr(self, f"d_z{l}") for l in range(depth)]
            d_in = [None] + [getattr(self, f"d_in{l}") for l in range(1, depth)]
            # the trunk's layers from the last: d_z, its input transposed, its d_in
            self.trunk_layers_back = tuple(zip(d_z, (x.T for x in self.trunk_act), d_in))[::-1]

    def check_ranges(self):
        """Raise a FloatingPointError naming the first range the pass left.

        The checks run in this order: P in the open interval (0, 1), the
        score matrix and then the image scores in [0, 1], the softmax rows
        and then columns summing to 1 within 1e-6. The passing path
        reduces P, ``unit`` and ``sums`` whole, after one column sum per
        image; only a failed run is split to name its part. NaN fails each test.
        """
        if self.saliency_enabled:
            p = self.saliency
            if not (_min_reduce(p) > 0.0 and _max_reduce(p) < 1.0):
                raise FloatingPointError("saliency prediction left the open interval (0, 1)")
        unit = self.unit
        if not (_min_reduce(unit) >= 0.0 and _max_reduce(unit) <= 1.0):
            if not (self.scores.min() >= 0.0 and self.scores.max() <= 1.0):
                raise FloatingPointError("score matrix left [0, 1]")
            raise FloatingPointError("image scores left [0, 1]")
        row_sums, sums = self.row_sums, self.sums
        _add_reduce(self.cls_softmax, axis=1, out=row_sums)
        for x, out in self.det_sum:
            _add_reduce(x, axis=-2, out=out)
        sums -= _ONE
        _abs(sums, out=sums)
        if not _max_reduce(sums) <= 1e-6:
            if not row_sums.max() <= 1e-6:
                raise FloatingPointError("classification softmax rows do not sum to 1")
            raise FloatingPointError("detection softmax columns do not sum to 1")


class _StepKernel:
    """Forward, losses, backward, L2 term and update of one image for one ModelParams.

    One trace per pass: ``forward``, ``losses`` and ``backward`` take no
    array but the pass's trace, whose ``d_scores`` and ``d_sal`` the
    losses write and backward reads. Each reads by name the trace's
    arrays and the kernel's parameter and gradient views, transposes
    included, and runs its numpy calls back to back. The views are
    bound here once: the kernel is built for one ModelParams and one
    config, and a new config builds a new kernel. ``step`` is a whole
    training step and ``run`` the part of it that ``loss_and_grads``
    shares; both run in one workspace buffer sized to the largest
    proposal count seen so far, and the traces of the last few counts
    are kept. A new buffer, or more
    counts than ``_KEPT_COUNTS``, drops them all, so every kept trace
    views the current buffer. ``grad`` holds the gradient of the total,
    overwritten by every backward pass, which adds the L2 term in place;
    ``scratch``, a vector of the same size, takes the L2 term and the
    update's ``lr * v`` first, so that a step allocates no vector.
    ``head_bias`` and ``head_bias_grad`` view cls.b and det.b as one
    pair, and ``tau_work`` holds the image classification loss's
    gradient and scratch. The float operands are kept 0-d arrays: the
    module's ``_ZERO`` and the like, and the kernel's ``logit_cap``
    (-cap, cap), ``lambda_l2`` and ``half_lambda_sal`` of its config.
    The order of every float operation is that of the per-layer
    formulation (``tests/oracles.py`` keeps it as a reference), so
    results match it bit for bit.
    """

    def __init__(self, params: ModelParams, config: ModelConfig):
        layout = _check_fit(params, config)
        self.config = config
        self.layout = layout
        self.flat_values, self.flat_velocity = params.flat_values, params.flat_velocity
        self.grad = np.zeros(layout.size)
        self.scratch = np.empty(layout.size)
        v, gv = params.values, layout.views(self.grad)
        trunk = [f"trunk{l}" for l in range(len(config.trunk_widths))]
        # ``param_layout`` puts det.b right after cls.b; the reshape refuses other layouts
        c = config.num_classes
        cls_b, det_b = (sl for name, _, sl in layout.tensors if name in ("cls.b", "det.b"))
        self.head_bias = params.flat_values[cls_b.start : det_b.stop].reshape(2, 1, c)
        self.head_bias_grad = self.grad[cls_b.start : det_b.stop].reshape(2, c)
        self.l2_values = params.flat_values[: layout.l2_end]
        self.tau_work = (*np.empty((3, c)), np.empty(c, dtype=bool))
        self.logit_cap = (_kept(-_SAL_LOGIT_CAP), _kept(_SAL_LOGIT_CAP))
        self.lambda_l2 = _kept(config.lambda_l2)
        self.half_lambda_sal = _kept(config.lambda_seed_sal / 2.0)
        # the loss weights of the total, as the per-layer formulation computes them
        self.total_weights = (config.lambda_seed_cls, config.lambda_seed_sal / 2.0,
                              config.lambda_l2 / 2.0)
        # the parameter views a pass reads and the gradient views backward writes
        sal = ("sal_hidden.w", "sal_hidden.b", "sal_out.w", "sal_out.b")
        self.trunk_params = tuple((v[f"{m}.w"], v[f"{m}.b"]) for m in trunk)
        self.sal_w, self.sal_b, self.sal_out_w = (v[name] for name in sal[:3])
        # sal_out.b as a 0-d view, an operand cheaper than its (1,) array
        self.sal_out_b = v["sal_out.b"].reshape(())
        self.cls_w, self.det_w = v["cls.w"], v["det.w"]
        self.sal_w_t, self.cls_w_t, self.det_w_t = self.sal_w.T, self.cls_w.T, self.det_w.T
        self.sal_w_grad, self.sal_b_grad, self.sal_out_w_grad, self.sal_out_b_grad = (
            gv[name] for name in sal)
        self.cls_w_grad, self.det_w_grad = gv["cls.w"], gv["det.w"]
        # the trunk's layers from the last: weight and bias gradients, the weight
        # transposed for d_in (not needed for the first layer)
        self.trunk_grads = tuple((gv[f"{m}.w"], gv[f"{m}.b"], v[f"{m}.w"].T if l else None)
                                 for l, m in enumerate(trunk))[::-1]
        self.l2_grad, self.l2_term = self.grad[: layout.l2_end], self.scratch[: layout.l2_end]
        self.buffer = np.empty(0)
        self._workspaces = {}

    def workspace(self, n: int) -> ForwardTrace:
        """The trace of one image of ``n`` proposals in the shared buffer, which only grows."""
        ws = self._workspaces.get(n)
        if ws is None:
            size, _ = _workspace_plan(self.config, n, 1)
            if size > self.buffer.size:
                self.buffer = np.empty(size)
                self._workspaces.clear()
            elif len(self._workspaces) >= _KEPT_COUNTS:
                self._workspaces.clear()
            ws = ForwardTrace(self.config, (n,), self.buffer)
            self._workspaces[n] = ws
        return ws

    def forward(self, trace: ForwardTrace) -> None:
        """Run the pass on the checked features in ``trace.features``, then check its ranges.

        Each matrix product runs once per run of equal counts, on the
        shapes of one image, stacked when the run has several.
        """
        for (w, bias), (dots, z, h) in zip(self.trunk_params, trace.trunk_layers):
            for product, x, out in dots:
                product(x, w, out=out)
            h[...] = bias  # a same-shape add costs less than one that broadcasts
            z += h
            _maximum(z, _ZERO, out=h)

        if trace.saliency_enabled:
            hidden_dots, out_dots = trace.sal_dots
            sal_pre, hidden, raw = trace.sal_pre, trace.sal_hidden, trace.sal_raw
            logit, p, den = trace.sal_logit, trace.saliency, trace.denominator
            for product, x, out in hidden_dots:
                product(x, self.sal_w, out=out)
            hidden[...] = self.sal_b
            sal_pre += hidden
            _maximum(sal_pre, _ZERO, out=hidden)
            for product, x, out in out_dots:
                product(x, self.sal_out_w, out=out)
            raw += self.sal_out_b
            low, high = self.logit_cap
            _maximum(raw, low, out=logit)
            _minimum(logit, high, out=logit)
            # sigmoid: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
            # below; the numerator is exp(min(x, 0)), the denominator
            # 1 + exp(-|x|), and one exp takes the [denominator, P] pair
            _minimum(logit, _ZERO, out=p)
            _copysign(logit, _MINUS_ONE, out=den)
            sigmoid = trace.sigmoid
            _exp(sigmoid, out=sigmoid)
            den += _ONE
            p /= den
            weighted = trace.weighted
            weighted[...] = trace.saliency_col
            weighted *= trace.trunk_out
        # without the branch P = 1 and ``weighted`` is h

        cls_dots, det_dots = trace.head_dots
        for product, x, out in cls_dots:
            product(x, self.cls_w, out=out)
        for product, x, out in det_dots:
            product(x, self.det_w, out=out)
        tmp, streams = trace.tmp, trace.streams
        tmp[...] = self.head_bias
        streams += tmp
        # one sum checks every pre-activation; it is finite unless one of
        # them is not, or it overflows, and then the walk names no layer
        if not math.isfinite(_add_reduce(trace.pre)):
            for layer, arr in trace.layers:
                _check_finite(arr, layer)

        # the classification softmax runs over each proposal's classes, the
        # detection softmax over each image's proposals, whose column max
        # and sum are taken per image; one exp takes both streams, and the
        # shifts and sums are spread over ``tmp`` first
        col, row, row_image = trace.col, trace.row, trace.row_image
        tmp_cls, tmp_det = trace.tmp_cls, trace.tmp_det
        softmax, a = trace.softmax, trace.cls_softmax
        _max_reduce(trace.s_cls, axis=1, keepdims=True, out=col)
        for x, out in trace.det_max:
            _max_reduce(x, axis=-2, out=out)
        tmp_cls[...] = col
        if row_image is None:
            tmp_det[...] = row
        else:
            np.take(row, row_image, axis=0, out=tmp_det)
        _subtract(streams, tmp, out=softmax)
        _exp(softmax, out=softmax)
        _add_reduce(a, axis=1, keepdims=True, out=col)
        for x, out in trace.det_sum:
            _add_reduce(x, axis=-2, out=out)
        tmp_cls[...] = col
        if row_image is None:
            tmp_det[...] = row
        else:
            np.take(row, row_image, axis=0, out=tmp_det)
        softmax /= tmp

        _multiply(a, trace.det_softmax, out=trace.scores)
        # the per-class sum is <= 1 exactly; min() only absorbs summation rounding
        for x, out in trace.tau_sum:
            _add_reduce(x, axis=-2, out=out)
        image_scores = trace.image_scores
        _minimum(image_scores, _ONE, out=image_scores)
        trace.check_ranges()

    def losses(self, trace, y, assignment) -> tuple[float, float, float, float, float]:
        """The loss terms (image_cls, seed_cls, seed_sal, l2, total) of checked targets.

        ``y`` and ``assignment`` are as ``_check_targets`` passes them. The
        total's gradients w.r.t. scores and P go to the trace; without
        the saliency branch the trace's zero ``d_sal`` is left as it is.
        """
        config, d_scores = self.config, trace.d_scores
        l_ic = _image_classification_loss(trace.image_scores, y, _EPSILON_KEPT, *self.tau_work)
        d_scores[...] = self.tau_work[0]

        l_sc = 0.0
        if assignment is not None and config.lambda_seed_cls > 0:
            l_sc, terms = _seed_classification_terms(trace.scores, assignment.seeds, _EPSILON)
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
            l_ss, d_p = _seed_saliency_loss(trace.saliency, assignment._sample_array,
                                            assignment.targets)
            _multiply(d_p, self.half_lambda_sal, out=trace.d_sal)
        elif config.saliency_enabled:
            trace.d_sal.fill(0.0)

        l_values = self.l2_values
        l_reg = float(l_values.dot(l_values))
        lambda_sc, half_lambda_ss, half_lambda_l2 = self.total_weights
        total = l_ic + lambda_sc * l_sc + half_lambda_ss * l_ss + half_lambda_l2 * l_reg
        return l_ic, l_sc, l_ss, l_reg, total

    def backward(self, trace: ForwardTrace) -> None:
        """The total's gradient into ``grad``, from ``trace.d_scores`` and ``d_sal``."""
        d_scores, d_cls, d_det = trace.d_scores, trace.d_cls, trace.d_det
        _multiply(d_scores, trace.det_softmax, out=d_cls)
        _multiply(d_scores, trace.cls_softmax, out=d_det)
        # softmax backward: d_s = a * (d_a - sum(d_a * a)) per row, per column for b
        d_streams, softmax, tmp = trace.d_streams, trace.softmax, trace.tmp
        tmp_cls, tmp_det, col, row = trace.tmp_cls, trace.tmp_det, trace.col, trace.row
        _multiply(d_streams, softmax, out=tmp)
        _add_reduce(tmp_cls, axis=1, keepdims=True, out=col)
        _add_reduce(tmp_det, axis=0, keepdims=True, out=row)
        tmp_cls[...] = col
        tmp_det[...] = row
        d_streams -= tmp
        d_streams *= softmax

        g_t, d_g, tmp_g = trace.weighted_t, trace.d_g, trace.tmp_g
        g_t.dot(d_cls, out=self.cls_w_grad)
        g_t.dot(d_det, out=self.det_w_grad)
        _add_reduce(d_streams, axis=1, out=self.head_bias_grad)
        d_cls.dot(self.cls_w_t, out=d_g)
        d_det.dot(self.det_w_t, out=tmp_g)
        d_g += tmp_g

        # every ReLU layer's 0/1 mask at once, each in its layer's d_z
        _greater(trace.relu_pre, _ZERO, out=trace.relu_d_z)
        # without the branch ``d_h`` is ``d_g`` itself, where P = 1
        d_h = trace.d_h
        if trace.saliency_enabled:
            p, d_p, d_logit = trace.saliency, trace.d_p, trace.d_logit
            one_minus_p, d_u, d_z = trace.one_minus_p, trace.d_u, trace.d_z_sal
            d_h[...] = trace.saliency_col
            d_h *= d_g
            _multiply(d_g, trace.trunk_out, out=tmp_g)
            _add_reduce(tmp_g, axis=1, out=d_p)
            d_p += trace.d_sal
            _multiply(d_p, p, out=d_logit)
            _subtract(_ONE, p, out=one_minus_p)
            d_logit *= one_minus_p
            trace.sal_hidden_t.dot(d_logit, out=self.sal_out_w_grad)
            _add_reduce(d_logit, keepdims=True, out=self.sal_out_b_grad)
            _multiply(trace.d_logit_col, self.sal_out_w, out=d_u)
            d_z *= d_u
            trace.trunk_out_t.dot(d_z, out=self.sal_w_grad)
            _add_reduce(d_z, axis=0, out=self.sal_b_grad)
            d_z.dot(self.sal_w_t, out=tmp_g)
            d_h += tmp_g

        for (d_z, x_t, d_in), (gw, gb, w_t) in zip(trace.trunk_layers_back, self.trunk_grads):
            d_z *= d_h
            x_t.dot(d_z, out=gw)
            _add_reduce(d_z, axis=0, out=gb)
            if d_in is not None:  # the gradient w.r.t. the input features is not needed
                d_h = d_z.dot(w_t, out=d_in)

        # the L2 term joins last: g + lambda * w
        l2_grad = self.l2_grad
        l2_grad += _multiply(self.l2_values, self.lambda_l2, out=self.l2_term)

    def run(self, x: np.ndarray, y: np.ndarray, assignment):
        """Forward, losses and backward of one image's checked inputs in the workspace.

        ``x``, ``y`` and ``assignment`` fit, as ``loss_and_grads`` and
        ``train()`` ensure. Returns the loss terms; the gradient is in ``grad``.
        """
        ws = self.workspace(x.shape[0])
        ws.features[...] = x
        self.forward(ws)
        terms = self.losses(ws, y, assignment)
        self.backward(ws)
        return terms

    def step(self, x: np.ndarray, y: np.ndarray, assignment, lr: float, momentum: float):
        """One training step of one image's checked inputs: ``run``, then ``sgd_step``'s update.

        Returns the loss terms. The forward pass's checks, then a
        non-finite total loss, then a non-finite gradient raise a
        FloatingPointError in that order, before any value or velocity
        changes. Runs in ``_quiet()``.
        """
        terms = self.run(x, y, assignment)
        if not math.isfinite(terms[4]):
            raise FloatingPointError("non-finite total loss")
        _momentum_update(self.layout, self.flat_values, self.flat_velocity, self.grad,
                         lr, momentum, self.scratch)
        return terms


def _momentum_update(layout, w, v, grad, lr, momentum, scratch) -> None:
    """Refuse a non-finite ``grad``, then v <- momentum*v + grad; w <- w - lr*v.

    ``lr * v`` is written to ``scratch``. The check runs before anything
    is written: one sum of squares, and only when that is not finite a
    walk over the tensors, which names the first non-finite one (a sum
    that overflows on finite entries finds none and the step is taken).
    Runs in ``_quiet()``, where that overflow raises no warning.
    """
    if not math.isfinite(grad.dot(grad)):
        for name, g in layout.views(grad).items():
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {name}")
    v *= momentum
    v += grad
    w -= _multiply(v, lr, out=scratch)


def _quiet():
    """The floating-point state a pass runs in: overflow and invalid values raise no warning.

    Each ends in an error that names it: the trace's finiteness check,
    or the trainer's non-finite total loss or gradient. The warning
    would only duplicate it, and under warnings-as-errors replace it.
    """
    return np.errstate(over="ignore", invalid="ignore")


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
    with _quiet():
        _step_kernel(params, config).forward(trace)
    return trace


def _check_one_image(trace: ForwardTrace) -> None:
    if trace.row_image is not None:
        raise ValueError(f"need one image's trace, got a trace of {len(trace.image_scores)} images")


def step_losses(params, trace, labels_y, assignment, config):
    """All loss terms for one image plus gradients w.r.t. scores and P.

    Returns ``(breakdown, d_scores, d_saliency)`` where the gradients are
    of the weighted total, copies of those the trace holds. ``assignment``
    may be None (no seed terms, e.g. at test time or with seed supervision
    disabled); a seed or negative index >= N_R is a ValueError.
    """
    _check_one_image(trace)
    y = _check_targets(labels_y, assignment, trace.scores.shape[0], config)
    with _quiet():
        terms = _step_kernel(params, config).losses(trace, y, assignment)
    return LossBreakdown(*terms), trace.d_scores.copy(), trace.d_sal.copy()


def backward(params, trace, d_scores, d_saliency, config):
    """Exact reverse-mode gradients of the weighted total w.r.t. every tensor.

    ``d_scores`` and ``d_saliency`` are the gradients of the objective
    w.r.t. the score matrix and P (both already lambda-weighted); the L2
    term is added here. Disabled-branch tensors get zero gradients. Both
    are written into ``trace``, which the pass runs in; without the
    saliency branch P is constant, and ``d_saliency`` is checked alike but
    not kept, so the trace's ``d_sal`` stays zero. Returns a new flat
    vector laid out like ``params.flat_values``; ``params.layout.views(grad)``
    names its tensors.
    """
    _check_one_image(trace)
    if d_scores.shape != trace.scores.shape:
        raise ValueError("d_scores shape mismatch")
    np.copyto(trace.d_scores, d_scores)
    # None, which numpy would store as NaN, is refused
    d_sal = trace.d_sal if trace.saliency_enabled else np.empty_like(trace.d_sal)
    np.copyto(d_sal, d_saliency)
    kernel = _step_kernel(params, config)
    with _quiet():
        kernel.backward(trace)
    return kernel.grad.copy()


def loss_and_grads(params, features, labels_y, assignment, config):
    """Forward, losses, backward and L2 term in one call; returns (breakdown, flat grad).

    The same maths as ``forward``, ``step_losses`` and ``backward`` in
    turn, run in the kernel kept with ``params`` as a training step's
    first part, with the same ValueError for an assignment index >= N_R.
    The gradient is a new array on every call, a copy of the kernel's.
    """
    x = _check_features(features, config)
    y = _check_targets(labels_y, assignment, x.shape[0], config)
    kernel = _step_kernel(params, config)
    with _quiet():
        terms = kernel.run(x, y, assignment)
    return LossBreakdown(*terms), kernel.grad.copy()


def sgd_step(params: ModelParams, grad: np.ndarray, lr: float, momentum: float) -> None:
    """In-place heavy-ball update: v <- momentum*v + g; w <- w - lr*v.

    ``grad`` is one flat vector laid out like ``params.flat_values``. It
    is checked before anything changes, so a rejected step leaves all
    values and velocities as they were. Only a non-finite sum of squares
    walks the tensors to name the first non-finite one. The update is
    the one a training step makes in the step kernel.
    """
    w, v = params.flat_values, params.flat_velocity
    if grad.shape != w.shape:
        raise ValueError(f"gradient shape mismatch: {grad.shape} != {w.shape}")
    with _quiet():
        _momentum_update(params.layout, w, v, grad, lr, momentum, np.empty_like(w))


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

    Parameters that do not fit ``config`` are a ValueError; nothing is
    written. Values are clipped to the finite float32 range, so that a
    rescue checkpoint, whose weights may exceed 3.4e38, holds no inf.
    """
    _check_fit(params, config)
    f4_max = float(np.finfo(np.float32).max)
    run = np.concatenate([arr.ravel() for arr in params.values.values()])  # declaration order
    tensors = np.clip(run, -f4_max, f4_max).astype("<f4").tobytes()
    Path(path).write_bytes(_checkpoint_header(config) + tensors)


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
    trunk_widths = read_u32s(36, n_trunk)
    try:
        config = ModelConfig(
            feature_dim=feature_dim,
            num_classes=num_classes,
            trunk_widths=trunk_widths,
            saliency_hidden=sal_hidden,
            saliency_enabled=bool(sal_enabled),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
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
