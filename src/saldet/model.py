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
"""

import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class ModelConfig:
    """Architecture widths and loss weighting factors."""

    feature_dim: int
    num_classes: int
    trunk_widths: tuple[int, ...] = (128, 128)
    saliency_hidden: int = 32
    epsilon: float = 1e-8          # clamp for log arguments
    lambda_seed_cls: float = 0.1   # weight of the seed classification loss
    lambda_seed_sal: float = 1.0   # weight of the seed saliency loss
    lambda_l2: float = 5e-4        # weight of the L2 term (weights only)
    saliency_enabled: bool = True

    def __post_init__(self):
        if self.feature_dim < 1 or self.num_classes < 1:
            raise ValueError("feature_dim and num_classes must be >= 1")
        if not self.trunk_widths or any(w < 1 for w in self.trunk_widths):
            raise ValueError("trunk widths must all be >= 1")
        if self.saliency_hidden < 1:
            raise ValueError("saliency_hidden must be >= 1")
        if not (0.0 < self.epsilon < 1e-3):
            raise ValueError("epsilon must be in (0, 1e-3)")
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


@dataclass
class ModelParams:
    """All learnable tensors plus parallel momentum buffers, float64."""

    values: dict[str, np.ndarray]
    velocity: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(
            values={k: v.copy() for k, v in self.values.items()},
            velocity={k: v.copy() for k, v in self.velocity.items()},
        )


def init_params(config: ModelConfig, rng_seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(rng_seed)
    values = {}
    for name, shape in _tensor_shapes(config):
        if _is_weight(name):
            fan_in = shape[0]
            scale = 1.0 / math.sqrt(fan_in)
            values[name] = rng.uniform(-scale, scale, size=shape)
        else:
            values[name] = np.zeros(shape)
    velocity = {k: np.zeros_like(v) for k, v in values.items()}
    return ModelParams(values=values, velocity=velocity)


@dataclass
class ForwardTrace:
    """Cached activations of one forward pass.

    ``cls_softmax`` rows (one per proposal) sum to 1 over classes;
    ``det_softmax`` columns (one per class) sum to 1 over proposals.
    ``scores`` is their elementwise product, shape (N_R, C), and
    ``image_scores`` its per-class sum over proposals.
    """

    features: np.ndarray          # (N_R, D)
    trunk_pre: list[np.ndarray]   # pre-activations per trunk layer
    trunk_act: list[np.ndarray]   # [features, h_1, ..., h_L]
    sal_pre: np.ndarray | None
    sal_hidden: np.ndarray | None
    sal_logit: np.ndarray | None
    saliency: np.ndarray          # P, (N_R,); all-ones when branch disabled
    weighted: np.ndarray          # P[:, None] * trunk output
    cls_softmax: np.ndarray       # (N_R, C)
    det_softmax: np.ndarray       # (N_R, C)
    scores: np.ndarray            # (N_R, C)
    image_scores: np.ndarray      # (C,)
    saliency_enabled: bool

    def validate(self):
        p = self.saliency
        if self.saliency_enabled and (p.min() <= 0.0 or p.max() >= 1.0):
            raise FloatingPointError("saliency prediction left the open interval (0, 1)")
        if self.scores.min() < 0.0 or self.scores.max() > 1.0:
            raise FloatingPointError("score matrix left [0, 1]")
        if self.image_scores.min() < 0.0 or self.image_scores.max() > 1.0:
            raise FloatingPointError("image scores left [0, 1]")
        if np.abs(self.cls_softmax.sum(axis=1) - 1.0).max() > 1e-6:
            raise FloatingPointError("classification softmax rows do not sum to 1")
        if np.abs(self.det_softmax.sum(axis=0) - 1.0).max() > 1e-6:
            raise FloatingPointError("detection softmax columns do not sum to 1")


# Beyond |logit| ~36.7 a float64 sigmoid rounds to exactly 0 or 1; the cap
# keeps P inside the open interval the trace validation asserts. Gradients
# there are ~2e-16 either way, so the chain rule needs no special casing.
_SAL_LOGIT_CAP = 36.0


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_finite(arr, layer: str):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite activation in {layer}")


def forward(params: ModelParams, features: np.ndarray, config: ModelConfig) -> ForwardTrace:
    """Run the network on one image's proposal features."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.feature_dim:
        raise ValueError(f"features must be (N_R, {config.feature_dim}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("need at least one proposal")
    _check_finite(x, "input features")
    # overflow surfaces as a FloatingPointError from the finiteness checks
    # below, so the numpy warning would only duplicate it
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_impl(params, x, config)


def _forward_impl(params, x, config):
    v = params.values

    trunk_pre, trunk_act = [], [x]
    h = x
    for l in range(len(config.trunk_widths)):
        z = h @ v[f"trunk{l}.w"] + v[f"trunk{l}.b"]
        _check_finite(z, f"trunk layer {l}")
        trunk_pre.append(z)
        h = np.maximum(z, 0.0)
        trunk_act.append(h)

    if config.saliency_enabled:
        sal_pre = h @ v["sal_hidden.w"] + v["sal_hidden.b"]
        _check_finite(sal_pre, "saliency hidden layer")
        sal_hidden = np.maximum(sal_pre, 0.0)
        sal_logit = sal_hidden @ v["sal_out.w"] + v["sal_out.b"][0]
        _check_finite(sal_logit, "saliency output layer")
        sal_logit = np.clip(sal_logit, -_SAL_LOGIT_CAP, _SAL_LOGIT_CAP)
        p = _sigmoid(sal_logit)
    else:
        sal_pre = sal_hidden = sal_logit = None
        p = np.ones(x.shape[0])

    g = p[:, None] * h

    s_cls = g @ v["cls.w"] + v["cls.b"]
    _check_finite(s_cls, "classification stream")
    s_det = g @ v["det.w"] + v["det.b"]
    _check_finite(s_det, "detection stream")

    e_cls = np.exp(s_cls - s_cls.max(axis=1, keepdims=True))
    a = e_cls / e_cls.sum(axis=1, keepdims=True)
    e_det = np.exp(s_det - s_det.max(axis=0, keepdims=True))
    b = e_det / e_det.sum(axis=0, keepdims=True)

    phi = a * b
    # the per-class sum is <= 1 exactly; min() only absorbs summation rounding
    tau = np.minimum(phi.sum(axis=0), 1.0)

    trace = ForwardTrace(
        features=x, trunk_pre=trunk_pre, trunk_act=trunk_act,
        sal_pre=sal_pre, sal_hidden=sal_hidden, sal_logit=sal_logit,
        saliency=p, weighted=g, cls_softmax=a, det_softmax=b,
        scores=phi, image_scores=tau, saliency_enabled=config.saliency_enabled,
    )
    trace.validate()
    return trace


# ---------------------------------------------------------------------------
# losses; each returns (value, gradient w.r.t. its own input)

def seed_classification_loss(scores, seeds, epsilon):
    """-sum log score of each class seed; gradient w.r.t. the score matrix.

    ``seeds`` is an iterable of (class_id, proposal_index) pairs. Scores
    at or below ``epsilon`` are clamped and contribute zero gradient.
    """
    grad = np.zeros_like(scores)
    total = 0.0
    for c, i in seeds:
        s = scores[i, c]
        if s > epsilon:
            total -= math.log(s)
            grad[i, c] -= 1.0 / s
        else:
            total -= math.log(epsilon)
    return total, grad


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
    """
    y = np.asarray(labels_y, dtype=np.float64)
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


def l2_penalty(params: ModelParams, config: ModelConfig) -> float:
    """Sum of squared weights (biases excluded; saliency branch only if active)."""
    total = 0.0
    for name, arr in params.values.items():
        if not _is_weight(name):
            continue
        if not config.saliency_enabled and _is_saliency(name):
            continue
        total += float((arr * arr).sum())
    return total


def step_losses(params, trace, labels_y, assignment, config):
    """All loss terms for one image plus gradients w.r.t. scores and P.

    Returns ``(breakdown, d_scores, d_saliency)`` where the gradients are
    of the weighted total. ``assignment`` may be None (no seed terms,
    e.g. at test time or with seed supervision disabled).
    """
    l_ic, d_tau = image_classification_loss(
        trace.image_scores, labels_y, config.epsilon
    )
    d_scores = np.broadcast_to(d_tau, trace.scores.shape).copy()

    l_sc = 0.0
    if assignment is not None and config.lambda_seed_cls > 0:
        l_sc, d_phi = seed_classification_loss(
            trace.scores, assignment.seeds, config.epsilon
        )
        d_scores += config.lambda_seed_cls * d_phi

    l_ss = 0.0
    d_sal = np.zeros_like(trace.saliency)
    if (
        assignment is not None
        and config.saliency_enabled
        and config.lambda_seed_sal > 0
        and len(assignment.sample_indices) > 0
    ):
        l_ss, d_p = seed_saliency_loss(
            trace.saliency, assignment.sample_indices, assignment.targets
        )
        d_sal = (config.lambda_seed_sal / 2.0) * d_p

    l_reg = l2_penalty(params, config)
    total = (
        l_ic
        + config.lambda_seed_cls * l_sc
        + (config.lambda_seed_sal / 2.0) * l_ss
        + (config.lambda_l2 / 2.0) * l_reg
    )
    breakdown = LossBreakdown(
        image_cls=l_ic, seed_cls=l_sc, seed_sal=l_ss, l2=l_reg, total=total
    )
    return breakdown, d_scores, d_sal


def backward(params, trace, d_scores, d_saliency, config):
    """Exact reverse-mode gradients of the weighted total w.r.t. every tensor.

    ``d_scores`` and ``d_saliency`` are the gradients of the objective
    w.r.t. the score matrix and P (both already lambda-weighted); the L2
    term is added here. Disabled-branch tensors get zero gradients.
    """
    v = params.values
    a, b = trace.cls_softmax, trace.det_softmax
    if d_scores.shape != trace.scores.shape:
        raise ValueError("d_scores shape mismatch")

    d_a = d_scores * b
    d_b = d_scores * a
    d_s_cls = a * (d_a - (d_a * a).sum(axis=1, keepdims=True))
    d_s_det = b * (d_b - (d_b * b).sum(axis=0, keepdims=True))

    g = trace.weighted
    grads = {
        "cls.w": g.T @ d_s_cls,
        "cls.b": d_s_cls.sum(axis=0),
        "det.w": g.T @ d_s_det,
        "det.b": d_s_det.sum(axis=0),
    }
    d_g = d_s_cls @ v["cls.w"].T + d_s_det @ v["det.w"].T

    h = trace.trunk_act[-1]
    p = trace.saliency
    d_h = d_g * p[:, None]

    if config.saliency_enabled:
        d_p = (d_g * h).sum(axis=1) + d_saliency
        d_logit = d_p * p * (1.0 - p)
        grads["sal_out.w"] = trace.sal_hidden.T @ d_logit
        grads["sal_out.b"] = np.array([d_logit.sum()])
        d_u = np.outer(d_logit, v["sal_out.w"])
        d_z = d_u * (trace.sal_pre > 0)
        grads["sal_hidden.w"] = h.T @ d_z
        grads["sal_hidden.b"] = d_z.sum(axis=0)
        d_h = d_h + d_z @ v["sal_hidden.w"].T
    else:
        for name in ("sal_hidden.w", "sal_hidden.b", "sal_out.w", "sal_out.b"):
            grads[name] = np.zeros_like(v[name])

    for l in reversed(range(len(config.trunk_widths))):
        d_z = d_h * (trace.trunk_pre[l] > 0)
        grads[f"trunk{l}.w"] = trace.trunk_act[l].T @ d_z
        grads[f"trunk{l}.b"] = d_z.sum(axis=0)
        d_h = d_z @ v[f"trunk{l}.w"].T

    for name, arr in v.items():
        if _is_weight(name) and (config.saliency_enabled or not _is_saliency(name)):
            grads[name] = grads[name] + config.lambda_l2 * arr
        if grads[name].shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    return grads


def loss_and_grads(params, features, labels_y, assignment, config):
    """Forward, losses, and backward in one call; returns (breakdown, grads)."""
    trace = forward(params, features, config)
    breakdown, d_scores, d_sal = step_losses(params, trace, labels_y, assignment, config)
    grads = backward(params, trace, d_scores, d_sal, config)
    return breakdown, grads


# ---------------------------------------------------------------------------
# checkpoint serialization: versioned header, shape table, float32 tensors

_CKPT_MAGIC = b"SALDETC\x00"
_CKPT_VERSION = 1


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """Write architecture header + tensors (little-endian float32).

    Values are clipped to the float32 finite range so a checkpoint can
    never hold inf; this only matters for rescue checkpoints written
    after divergence, where weights may exceed 3.4e38.
    """
    f4_max = float(np.finfo(np.float32).max)
    shapes = _tensor_shapes(config)
    blob = bytearray()
    blob += _CKPT_MAGIC
    blob += struct.pack("<II", _CKPT_VERSION, len(shapes))
    blob += struct.pack(
        "<IIII",
        config.feature_dim,
        config.num_classes,
        config.saliency_hidden,
        1 if config.saliency_enabled else 0,
    )
    blob += struct.pack("<I", len(config.trunk_widths))
    for w in config.trunk_widths:
        blob += struct.pack("<I", w)
    for name, shape in shapes:
        blob += struct.pack("<I", len(shape))
        for d in shape:
            blob += struct.pack("<I", d)
    for name, shape in shapes:
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
    version, n_tensors = struct.unpack("<II", blob[8:16])
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    off = 16
    feature_dim, num_classes, sal_hidden, sal_enabled = struct.unpack(
        "<IIII", blob[off : off + 16]
    )
    off += 16
    (n_trunk,) = struct.unpack("<I", blob[off : off + 4])
    off += 4
    widths = struct.unpack(f"<{n_trunk}I", blob[off : off + 4 * n_trunk])
    off += 4 * n_trunk
    config = ModelConfig(
        feature_dim=feature_dim,
        num_classes=num_classes,
        trunk_widths=tuple(widths),
        saliency_hidden=sal_hidden,
        saliency_enabled=bool(sal_enabled),
    )
    shapes = _tensor_shapes(config)
    if len(shapes) != n_tensors:
        raise ValueError(f"{path}: shape table length mismatch")
    stored = []
    for _ in range(n_tensors):
        (ndim,) = struct.unpack("<I", blob[off : off + 4])
        off += 4
        dims = struct.unpack(f"<{ndim}I", blob[off : off + 4 * ndim])
        off += 4 * ndim
        stored.append(tuple(dims))
    values = {}
    for (name, shape), dims in zip(shapes, stored):
        if shape != dims:
            raise ValueError(f"{path}: tensor {name} shape {dims} != expected {shape}")
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
        off += 4 * count
        values[name] = arr.reshape(shape).astype(np.float64)
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes after tensor data")
    velocity = {k: np.zeros_like(v) for k, v in values.items()}
    return ModelParams(values=values, velocity=velocity), config


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
        for name in params.values:
            if not _is_weight(name):
                params.values[name] = rng.uniform(-0.1, 0.1, params.values[name].shape)
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
            trace = forward(params, features, config)
            breakdown, _, _ = step_losses(params, trace, y, assignment, config)
            return breakdown.total

        breakdown, grads = loss_and_grads(params, features, y, assignment, config)
        noise_floor = 64.0 * abs(breakdown.total) * np.finfo(np.float64).eps / (2.0 * step)

        inst_worst = 0.0
        for name, arr in params.values.items():
            flat = arr.ravel()
            g_flat = grads[name].ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                plus = total_loss()
                flat[j] = orig - step
                minus = total_loss()
                flat[j] = orig
                fd = (plus - minus) / (2.0 * step)
                if abs(g_flat[j] - fd) < noise_floor:
                    continue
                denom = max(abs(g_flat[j]), abs(fd), 1e-6)
                inst_worst = max(inst_worst, abs(g_flat[j] - fd) / denom)
        per_instance.append((f"C={c} N_R={n} D={d}", inst_worst))
        worst = max(worst, inst_worst)
    return GradCheckReport(
        max_rel_error=worst,
        per_instance=per_instance,
        elapsed_s=time.perf_counter() - start,
    )
