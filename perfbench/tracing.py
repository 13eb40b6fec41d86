"""Span tracing of saldet's public functions, installed from outside the package.

A :class:`Tracer` replaces each function in :data:`TARGETS` with a timing
wrapper in every ``saldet`` module namespace that binds it by name (for
example ``saldet.trainer.loss_and_grads`` and ``saldet.model.loss_and_grads``
are the same function object, so both bindings are wrapped). Each call
records one span ``(name, start, end, parent span, run id)`` in memory;
:meth:`Tracer.uninstall` puts every original binding back.

Self time is a span's duration minus the time its child spans cover.
Counters (computed bytes of the grid kernels, NMS pair counts, NMS keep
ratio, bytes read and written) are taken from the call arguments and
results inside the same wrappers, so they exist only in traced runs.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module (under ``saldet.``) -> public functions traced in it
TARGETS = {
    "dataio": ("generate_synthetic", "save_dataset", "load_dataset"),
    "seeds": ("select_seeds", "select_negatives", "threshold_baseline"),
    "_accel": (
        "adjacency_matrix",
        "superpixel_sums",
        "superpixel_counts",
        "connected_components",
        "nms_keep",
    ),
    "model": (
        "loss_and_grads",
        "forward",
        "step_losses",
        "backward",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "trainer": ("train", "precompute_assignments", "sgd_step"),
    "evaluate": (
        "evaluate",
        "score_dataset",
        "nms",
        "detection_ap",
        "corloc",
        "classification_ap",
    ),
    "cli": ("main",),
}

GRID_KERNELS = TARGETS["_accel"][:4]
SETUP_RUN_ID = -1


def metric_prefix(module: str, function: str) -> str:
    """Metric names must start with a letter, so ``_accel`` reports as ``accel``."""
    return f"{module.lstrip('_')}.{function}"


def _kernel_bytes(function, args):
    """Bytes a grid kernel reads plus writes, computed from array sizes."""
    if function == "adjacency_matrix":
        labels, n_sp = args[0], int(args[1])
        return labels.nbytes + n_sp * n_sp
    if function == "superpixel_sums":
        labels, values, n_sp = args[0], args[1], int(args[2])
        return labels.nbytes + values.nbytes + 8 * n_sp
    if function == "superpixel_counts":
        labels, n_sp = args[0], int(args[1])
        return labels.nbytes + 8 * n_sp
    mask = args[0]  # connected_components: bool mask in, int32 labels out
    return mask.nbytes + 4 * mask.size


def _dataset_bytes(manifest_path, manifest):
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    rec_dir = path.parent / "records"
    total = path.stat().st_size
    for stem in manifest.images:
        total += (rec_dir / f"{stem}.json").stat().st_size
        total += (rec_dir / f"{stem}.bin").stat().st_size
    return total


def _make_hook(module, function):
    """Counter update run after a traced call, or None for plain spans."""
    prefix = metric_prefix(module, function)
    if module == "_accel" and function in GRID_KERNELS:
        def hook(counters, args, result):
            counters[f"{prefix}.bytes"] += _kernel_bytes(function, args)
    elif function == "nms_keep":
        def hook(counters, args, result):
            m = int(args[0].shape[0])
            counters[f"{prefix}.pairs"] += m * (m - 1) // 2
    elif module == "evaluate" and function == "nms":
        def hook(counters, args, result):
            counters["evaluate.nms.in"] += len(args[0])
            counters["evaluate.nms.kept"] += len(result)
    elif function == "load_dataset":
        def hook(counters, args, result):
            counters[f"{prefix}.bytes"] += _dataset_bytes(args[0], result[1])
    elif function == "save_checkpoint":
        def hook(counters, args, result):
            counters[f"{prefix}.bytes"] += Path(args[0]).stat().st_size
    else:
        hook = None
    return hook


class Tracer:
    """Wraps the traced functions in place and records their spans."""

    def __init__(self):
        self.names = [                      # span name per name id
            metric_prefix(module, function)
            for module, functions in TARGETS.items()
            for function in functions
        ]
        self.spans: list[tuple] = []        # (name id, start, end, parent, run id)
        # counters of the traced set-up (True) and of the traced runs (False)
        self.counters = {True: defaultdict(float), False: defaultdict(float)}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []     # (module, attribute, original)

    def _wrap(self, name_id, original, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.run_id)
            if hook is not None:
                hook(self.counters[self.run_id == SETUP_RUN_ID], args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded ``saldet`` module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "saldet" or name.startswith("saldet."))
        ]
        for module, functions in TARGETS.items():
            owner = sys.modules[f"saldet.{module}"]
            for function in functions:
                original = getattr(owner, function)
                wrapper = self._wrap(
                    self.names.index(metric_prefix(module, function)),
                    original,
                    _make_hook(module, function),
                )
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        """Restore every binding replaced by :meth:`install`."""
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # reductions

    def layer_times(self, setup: bool):
        """Per span name: (calls, total seconds, self seconds).

        ``setup`` selects the spans recorded with run id ``SETUP_RUN_ID``;
        otherwise those of every workload run are summed.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for k, (name_id, start, end, _, run_id) in enumerate(self.spans):
            if (run_id == SETUP_RUN_ID) != setup:
                continue
            entry = stats[self.names[name_id]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[k]
        return stats

    def step_times_us(self):
        """One ``loss_and_grads`` plus the ``sgd_step`` that follows it, in us."""
        lag = self.names.index("model.loss_and_grads")
        sgd = self.names.index("trainer.sgd_step")
        last_lag = {}
        steps = []
        for name_id, start, end, parent, _ in self.spans:
            if name_id == lag:
                last_lag[parent] = end - start
            elif name_id == sgd and parent in last_lag:
                steps.append((last_lag.pop(parent) + end - start) * 1e6)
        return steps

    def write(self, path):
        """Write all spans as gzip JSON lines: a name table, then one span per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for name_id, start, end, parent, run_id in self.spans:
                fh.write(f"[{name_id},{start:.9f},{end:.9f},{parent},{run_id}]\n")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    specs = []
    for module, functions in TARGETS.items():
        for function in functions:
            prefix = metric_prefix(module, function)
            specs += [
                (f"{prefix}.calls", "count"),
                (f"{prefix}.total_s", "s"),
                (f"{prefix}.self_s", "s"),
            ]
    specs += [
        ("trainer.step_us_p50", "us"),
        ("trainer.step_us_p99", "us"),
    ]
    specs += [(f"accel.{k}.bytes", "bytes_computed") for k in GRID_KERNELS]
    specs += [
        ("accel.nms_keep.pairs", "count"),
        ("evaluate.nms.keep_ratio", "fraction"),
        ("dataio.load_dataset.bytes", "bytes"),
        ("model.save_checkpoint.bytes", "bytes"),
        ("seeds.seed_hit_rate", "fraction"),
        ("seeds.negative_hit_rate", "fraction"),
        ("trace_overhead_frac", "fraction"),
    ]
    return specs
