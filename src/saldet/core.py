"""Geometry and dataset domain types shared by every stage of the pipeline.

Boxes use half-open integer pixel intervals [x0, x1) x [y0, y1), so the
area is exactly (x1 - x0) * (y1 - y0) and IoU arithmetic is exact.
Superpixel adjacency is 4-connected: two superpixels are neighbors iff
some pixel pair of theirs shares a horizontal or vertical edge. Each
grid holds its pixels grouped by id and each superpixel's pixel count
and box, all from one sort of the label grid, and its neighbour lists,
built on first use. A proposal is its grid and its superpixel ids;
``proposal_geometry`` derives proposals' member pairs and boxes from the
grid's tables in one pass, and a record takes only proposals on its own
grid and keeps both. Seed selection reads the lists, never an
n_sp x n_sp matrix. A record keys its saliency maps by class. Records
may share one grid: the generator gives all its records one, and loading
gives consecutive records with identical label grids one. All types are
immutable after construction (arrays are marked read-only, and an array
the caller could still write to is copied first), which is what makes
that sharing safe.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain
from typing import get_args, get_origin

import numpy as np

from . import _accel


def _as_int(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an int or numpy integer.

    A bool is refused: it would pass as 0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned half-open pixel rectangle with positive area and integer corners."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        # four plain ints, the usual input, need no check one by one
        if not type(x0) is type(y0) is type(x1) is type(y1) is int:
            for name, value in zip(("x0", "y0", "x1", "y1"), (x0, y0, x1, y1)):
                object.__setattr__(self, name, _as_int(value, f"box {name}"))
            x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        if x0 < 0 or y0 < 0:
            raise ValueError(f"box origin must be >= 0, got {self}")
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"box must have positive extent, got {self}")

    @property
    def area(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two half-open boxes, in [0, 1]."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def check_number_fields(config) -> None:
    """Raise ValueError naming the first bool or number field of a dataclass
    that is wrong; store each checked field as a plain Python value.

    A ``bool`` field must hold a bool or numpy bool. A ``float`` field
    must hold a finite int, float or numpy number that is not a bool; an
    int stays an int. An ``int`` field, and each entry of a tuple-of-``int``
    field, must be an int or numpy integer, not a bool; the field is
    stored as an int or a tuple of ints. An ``int | None`` field may also
    hold None.
    """
    for f in fields(config):
        value, kind = getattr(config, f.name), f.type
        if kind == int | None:
            if value is None:
                continue
            kind = int
        is_bool = isinstance(value, (bool, np.bool_))
        if kind is bool:
            if not is_bool:
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
            value = bool(value)
        elif kind is float:
            if is_bool or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if isinstance(value, np.generic):
                value = value.item()
        elif kind is int:
            value = _as_int(value, f.name)
        elif get_origin(kind) is tuple and int in get_args(kind):
            if not isinstance(value, (tuple, list)):
                raise ValueError(f"{f.name} must be a tuple of integers, got {value!r}")
            value = tuple(_as_int(entry, f"{f.name} entry") for entry in value)
        else:
            continue
        object.__setattr__(config, f.name, value)


def _freeze(arr: np.ndarray, given=None) -> np.ndarray:
    """``arr`` contiguous and read-only.

    ``given`` is what the caller passed, of which ``arr`` is the cast:
    ``np.asarray`` hands back a writeable array of the right dtype as it
    is, and such an array is copied first, so that the caller's array
    stays writeable and later writes to it do not reach the record. A
    read-only one (the loader's buffer views) is kept as it is.
    """
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable and given is not None and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SuperpixelGrid:
    """Row-major grid of superpixel ids covering every pixel.

    Every id in [0, n_superpixels) must occur at least once.
    ``pixel_counts`` (n_superpixels,) int64 holds each superpixel's pixel
    count and ``boxes`` (n_superpixels, 4) int64 its half-open box
    (x0, y0, x1, y1). ``pixel_order`` (height * width,) int32 lists the
    flat pixel indices grouped by ascending id, each id's ``pixel_counts``
    pixels in scan order, so seed scoring can gather the pixels of a few
    superpixels. The counts and boxes are read off the same order, so the
    label grid is sorted once. All three are computed once, here.
    ``neighbors`` holds the 4-connected neighbour lists, built on first use.
    """

    width: int
    height: int
    labels: np.ndarray  # (height, width) int32
    pixel_counts: np.ndarray = field(init=False, repr=False)
    boxes: np.ndarray = field(init=False, repr=False)
    pixel_order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int32)
        if labels.shape != (self.height, self.width):
            raise ValueError(
                f"labels shape {labels.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        if labels.size == 0:
            raise ValueError("grid must contain at least one pixel")
        if labels.min() < 0:
            raise ValueError("labels: negative superpixel id")
        n = int(labels.max()) + 1
        # checked before ``label_pixels`` sizes its offsets by the largest id
        if n > labels.size:
            raise ValueError(f"labels: id {n - 1} exceeds the pixel count {labels.size}")
        lists = _accel.label_pixels(labels, n)
        counts = np.diff(lists[0])
        if not counts.all():
            raise ValueError("labels: every id in [0, n_superpixels) must occur")
        object.__setattr__(self, "labels", _freeze(labels, self.labels))
        object.__setattr__(self, "pixel_counts", _freeze(counts))
        # int32 while the flat indices fit, as the ids do: half the memory
        order = lists[1].astype(np.int32 if labels.size <= 2**31 else np.int64)
        object.__setattr__(self, "pixel_order", _freeze(order))
        object.__setattr__(self, "boxes", _freeze(_accel.label_boxes(lists, self.width)))

    @property
    def n_superpixels(self) -> int:
        return int(self.pixel_counts.size)

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR ``(offsets, ids)``, int64: the neighbours of
        superpixel k are ``ids[offsets[k]:offsets[k + 1]]``, ascending.

        About 40 kB for a regular 1024-superpixel grid, against 1 MB for
        the dense matrix, so records sharing the grid share one copy.
        """
        offsets, ids = _accel.adjacency_lists(self.labels, self.n_superpixels)
        return _freeze(offsets), _freeze(ids)


@dataclass(frozen=True, eq=False)
class Proposal:
    """A region proposal: a nonempty union of superpixels of ``grid``.

    It holds only the grid and its sorted, unique ``superpixel_ids``;
    ``bbox`` is derived on each read by ``proposal_geometry``.
    """

    grid: SuperpixelGrid = field(repr=False)
    superpixel_ids: tuple[int, ...]

    def __post_init__(self):
        ids = list(self.superpixel_ids)
        if set(map(type, ids)) != {int}:  # a list of ints, the usual input, needs no check
            ids = [_as_int(i, "proposal superpixel id") for i in ids]
        ids.sort()
        n_sp = self.grid.n_superpixels
        if not ids:
            raise ValueError("proposal must contain at least one superpixel")
        if ids[0] < 0 or ids[-1] >= n_sp:
            raise ValueError(f"superpixel id out of range [0, {n_sp})")
        if len(set(ids)) != len(ids):
            raise ValueError("proposal superpixel ids must be unique")
        object.__setattr__(self, "superpixel_ids", tuple(ids))

    @property
    def bbox(self) -> Box:
        """The box enclosing the member superpixels' boxes."""
        return Box(*proposal_geometry(self.grid, [self])[1][0].tolist())


def proposal_geometry(grid: SuperpixelGrid, proposals) -> tuple[tuple, np.ndarray]:
    """``((rows, ids), boxes)``, read-only int64: every (proposal index,
    superpixel id) member pair, proposal by proposal, and each proposal's
    (P, 4) box, the segment min / max of its members' grid boxes."""
    sizes = [len(p.superpixel_ids) for p in proposals]
    rows = np.repeat(np.arange(len(sizes)), sizes)
    ids = np.fromiter(chain(*[p.superpixel_ids for p in proposals]), np.int64, rows.size)
    starts = np.fromiter(accumulate(sizes[:-1], initial=0), np.int64, len(sizes))
    member = grid.boxes.take(ids, axis=0)
    boxes = np.empty((len(sizes), 4), dtype=np.int64)
    np.minimum.reduceat(member[:, :2], starts, out=boxes[:, :2])
    np.maximum.reduceat(member[:, 2:], starts, out=boxes[:, 2:])
    for arr in (rows, ids, boxes):  # each is new and contiguous
        arr.flags.writeable = False
    return (rows, ids), boxes


def proposal_from_superpixels(grid: SuperpixelGrid, ids) -> Proposal:
    """The proposal of superpixel ``ids`` on ``grid``; same as ``Proposal(grid, ids)``."""
    return Proposal(grid, ids)


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Per-pixel non-negative evidence for the class that keys it in a record."""

    values: np.ndarray  # (height, width) float32

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError("saliency values must be a 2-d grid")
        if not np.isfinite(values).all():
            raise ValueError("saliency values must be finite")
        if values.min() < 0:
            raise ValueError("saliency values must be >= 0")
        object.__setattr__(self, "values", _freeze(values, self.values))


def check_label_values(y: np.ndarray) -> np.ndarray:
    """The mask of ``y``'s +1 entries, once every entry is +1 or -1 (NaN is neither)."""
    positive = y == 1
    if not (positive | (y == -1)).all():
        raise ValueError("labels: entries must be +1 or -1")
    return positive


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Image-level presence/absence labels, entries in {+1, -1}.

    ``positives`` lists the +1 classes in ascending order.
    """

    y: np.ndarray  # (C,) int8
    positives: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("labels must be a nonempty 1-d vector")
        positive = check_label_values(y)  # as given: the int8 cast would wrap 255 to -1
        y = y.astype(np.int8)
        positives = tuple(positive.nonzero()[0].tolist())
        if not positives:
            raise ValueError("labels: at least one positive class required")
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "positives", positives)

    @property
    def num_classes(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """One example: superpixel grid, proposals, features, labels, saliency.

    Every proposal must be on ``grid`` itself, not on an equal copy.
    ``proposal_members`` and ``proposal_boxes`` are the proposals'
    ``proposal_geometry``, derived once here.
    ``saliency`` maps each positive class id to its class-specific map;
    maps must exist exactly for the positive classes. ``gt_boxes`` is the
    optional list of (class_id, Box) ground truth used only by evaluation.
    Array payloads are stored in float32, the on-disk precision.
    """

    id: str
    grid: SuperpixelGrid
    proposals: list[Proposal]
    features: np.ndarray  # (N_R, D) float32
    labels: LabelVector
    saliency: dict[int, SaliencyMap]
    gt_boxes: list[tuple[int, Box]] = field(default_factory=list)
    proposal_members: tuple = field(init=False, repr=False)  # (rows, ids) member pairs
    proposal_boxes: np.ndarray = field(init=False, repr=False)  # (N_R, 4) int64 proposal bboxes

    def __post_init__(self):
        if not self.proposals:
            raise ValueError(f"record {self.id}: needs at least one proposal")
        features = np.asarray(self.features, dtype=np.float32)
        if features.ndim != 2 or features.shape[0] != len(self.proposals):
            raise ValueError(
                f"record {self.id}: features shape {features.shape} does not "
                f"match {len(self.proposals)} proposals"
            )
        if not np.isfinite(features).all():
            raise ValueError(f"record {self.id}: non-finite feature values")
        object.__setattr__(self, "features", _freeze(features, self.features))

        shape = (self.grid.height, self.grid.width)
        if set(self.saliency) != set(self.labels.positives):
            raise ValueError(
                f"record {self.id}: saliency classes {sorted(self.saliency)} != "
                f"positive classes {sorted(self.labels.positives)}"
            )
        for c, m in self.saliency.items():
            if m.values.shape != shape:
                raise ValueError(
                    f"record {self.id}: saliency map {c} shape {m.values.shape} "
                    f"does not match grid {shape}"
                )
        for k, p in enumerate(self.proposals):
            if p.grid is not self.grid:
                raise ValueError(f"record {self.id}: proposal {k} is on another grid")
        members, boxes = proposal_geometry(self.grid, self.proposals)
        object.__setattr__(self, "proposal_members", members)
        object.__setattr__(self, "proposal_boxes", boxes)
        gt_boxes = [(_as_int(c, f"record {self.id}: gt box class"), box)
                    for c, box in self.gt_boxes]
        object.__setattr__(self, "gt_boxes", gt_boxes)
        for c, box in gt_boxes:
            if not (0 <= c < self.labels.num_classes):
                raise ValueError(f"record {self.id}: gt box class {c} out of range")
            if box.x1 > self.grid.width or box.y1 > self.grid.height:
                raise ValueError(f"record {self.id}: gt box {box} exceeds grid bounds")

    @property
    def num_proposals(self) -> int:
        return len(self.proposals)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def check_records(records: list[ImageRecord], config, owner: str = "model") -> None:
    """Raise ValueError naming the first record whose id repeats an earlier
    one or whose features or labels do not fit ``config``, which the
    messages call ``owner`` (a model config or a dataset manifest)."""
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"record id {rec.id!r} is repeated")
        seen.add(rec.id)
        if rec.feature_dim != config.feature_dim:
            raise ValueError(
                f"image {rec.id}: feature dim {rec.feature_dim} "
                f"!= {owner} feature dim {config.feature_dim}"
            )
        if rec.labels.num_classes != config.num_classes:
            raise ValueError(
                f"record {rec.id}: {rec.labels.num_classes} classes, "
                f"{owner} has {config.num_classes}"
            )
