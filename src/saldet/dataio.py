"""Dataset serialization, validated loading, and the synthetic generator.

On-disk layout (all integers and floats little-endian):

    manifest.json                dataset-level metadata (version 1)
    records/<id>.json            per-image header: labels, proposals as
                                 superpixel-id lists, gt boxes
    records/<id>.bin             16-byte magic/version header, then the
                                 label grid (uint32), the saliency maps
                                 (float32, ascending class order), and the
                                 feature matrix (float32), all row-major

Proposals are stored as superpixel-id lists only; each is rebuilt on its
record's grid at load, and the record derives its proposals' boxes from
that grid, so no box can disagree with it. Each file stores its own
label grid, but a record whose grid equals the previous record's (same
width, height and ids) is given that record's ``SuperpixelGrid`` at
load, so a run of records on one tiling builds and validates its grid
tables once. A load reads each file once, after checking its header
and size: the label grid goes into one buffer that every record of the
load reuses, and only a grid unlike the previous one is copied out of
it; the maps and features are read as one ``bytes`` object, which the
record's read-only arrays view. So a loaded record keeps its maps,
features and grid, and no second copy of a shared grid. Maps are keyed
by their ``saliency_classes`` entry and stored unnormalized: seed
selection is invariant to positive affine rescaling of the maps, so no
normalization pass is applied anywhere.
"""

import json
import logging
import math
import os
import reprlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Box,
    ImageRecord,
    LabelVector,
    SaliencyMap,
    SuperpixelGrid,
    Proposal,
    check_finite_floats,
)

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
_BIN_MAGIC = b"SALDETB\x00"  # 8 bytes; header = magic + u32 version + u32 reserved


class DatasetError(ValueError):
    """A dataset file is missing, malformed, or violates an invariant."""


@dataclass(frozen=True)
class DatasetManifest:
    """Dataset-level metadata: class list, feature width, record stems."""

    num_classes: int
    feature_dim: int
    class_names: tuple[str, ...]
    images: tuple[str, ...]
    seed: int | None = None

    def __post_init__(self):
        images, seen = tuple(self.images), set()
        for stem in images:
            # a stem names files inside records/, so it must be one plain name
            plain = isinstance(stem, str) and stem not in ("", ".", "..")
            if not plain or any(ch in stem for ch in "/\\\0"):
                raise ValueError(f"image stem {stem!r} is not a plain file name")
            if stem in seen:
                raise ValueError(f"image stem {stem!r} is listed twice")
            seen.add(stem)
        if self.num_classes < 1 or self.feature_dim < 1:
            raise ValueError("num_classes and feature_dim must be >= 1")
        names = tuple(self.class_names)
        if len(names) != self.num_classes or len(set(names)) != len(names):
            raise ValueError("class_names must hold exactly num_classes unique entries")
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "images", images)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic generator; a pure function of this config.

    ``objects_per_image`` is an inclusive (min, max) range; each planted
    object gets a distinct class, so the maximum may not exceed
    ``classes``. ``noise_amplitude`` adds clamped uniform(-a, a) noise to
    the saliency maps and must stay < 1 so planted objects remain the
    salient maximum in expectation. ``feature_snr`` sets the Gaussian
    feature noise to sigma = 1 / snr against unit-scale class templates.
    """

    grid_side: int = 32
    superpixels: int = 64
    objects_per_image: tuple[int, int] = (1, 2)
    images: int = 20
    classes: int = 4
    feature_dim: int = 16
    noise_amplitude: float = 0.2
    feature_snr: float = 4.0
    seed: int = 0

    def __post_init__(self):
        check_finite_floats(self)
        for name in ("grid_side", "superpixels", "images", "classes", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        lo, hi = self.objects_per_image
        if not (1 <= lo <= hi):
            raise ValueError("objects_per_image must satisfy 1 <= min <= max")
        if hi > self.classes:
            raise ValueError("objects_per_image max exceeds classes (one class per object)")
        if not (0.0 <= self.noise_amplitude < 1.0):
            raise ValueError("noise_amplitude must be in [0, 1)")
        if self.feature_snr <= 0:
            raise ValueError("feature_snr must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.feature_dim < self.classes:
            raise ValueError("feature_dim must be >= classes (one-hot class templates)")
        side = math.isqrt(self.superpixels)
        if side * side != self.superpixels:
            raise ValueError("superpixels must be a perfect square (regular tiling)")
        if self.grid_side % side != 0:
            raise ValueError("grid_side must be divisible by sqrt(superpixels)")
        if 4 * hi > self.superpixels:
            raise ValueError("config infeasible: more objects than the tiling can hold")


# ---------------------------------------------------------------------------
# save / load

def save_dataset(records, manifest: DatasetManifest, out_dir) -> Path:
    """Write the directory layout; byte output is deterministic in the inputs.

    The records' ids must be the manifest's image stems, in order."""
    if tuple(r.id for r in records) != manifest.images:
        raise ValueError("record ids must be the manifest's image stems, in order")
    out_dir = Path(out_dir)
    rec_dir = out_dir / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)

    manifest_doc = {
        "version": FORMAT_VERSION,
        "num_classes": manifest.num_classes,
        "feature_dim": manifest.feature_dim,
        "class_names": list(manifest.class_names),
        "images": list(manifest.images),
        "seed": manifest.seed,
    }
    _write_json(out_dir / "manifest.json", manifest_doc)

    for rec in records:
        sal_classes = sorted(rec.saliency)
        header = {
            "version": FORMAT_VERSION,
            "id": rec.id,
            "width": rec.grid.width,
            "height": rec.grid.height,
            "num_superpixels": rec.grid.n_superpixels,
            "num_proposals": rec.num_proposals,
            "labels": [int(v) for v in rec.labels.y],
            "proposals": [list(p.superpixel_ids) for p in rec.proposals],
            "saliency_classes": sal_classes,
            "gt_boxes": [
                {"class_id": c, "box": list(box.as_tuple())} for c, box in rec.gt_boxes
            ],
        }
        _write_json(rec_dir / f"{rec.id}.json", header)

        blob = bytearray()
        blob += _BIN_MAGIC
        blob += struct.pack("<II", FORMAT_VERSION, 0)
        blob += rec.grid.labels.astype("<u4").tobytes()
        for c in sal_classes:
            blob += rec.saliency[c].values.astype("<f4").tobytes()
        blob += rec.features.astype("<f4").tobytes()
        (rec_dir / f"{rec.id}.bin").write_bytes(bytes(blob))
    return out_dir / "manifest.json"


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_dataset(manifest_path):
    """Load and fully validate a dataset; returns (records, manifest).

    Any invariant violation raises :class:`DatasetError` naming the file
    and the offending field.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetError(f"{manifest_path}: manifest file not found")
    doc = _read_json(manifest_path)
    _check_fields(doc, manifest_path, _MANIFEST_FIELDS)
    if not (doc.get("seed") is None or _is_int(doc["seed"])):
        raise DatasetError(f"{manifest_path}: field 'seed' must be an integer or null")
    if doc["version"] != FORMAT_VERSION:
        raise DatasetError(f"{manifest_path}: unsupported version {doc['version']}")
    try:
        manifest = DatasetManifest(
            num_classes=doc["num_classes"],
            feature_dim=doc["feature_dim"],
            class_names=tuple(doc["class_names"]),
            images=tuple(doc["images"]),
            seed=doc.get("seed"),
        )
    except ValueError as exc:
        raise DatasetError(f"{manifest_path}: {exc}") from exc

    rec_dir = manifest_path.parent / "records"
    records = []
    grid_buf = bytearray()  # each record's label grid is read into this
    for stem in manifest.images:
        prev_grid = records[-1].grid if records else None
        records.append(_load_record(rec_dir, stem, manifest, prev_grid, grid_buf))
    return records, manifest


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(check, length=None):
    def is_list(value):
        return (
            isinstance(value, list)
            and (length is None or len(value) == length)
            and all(check(v) for v in value)
        )
    return is_list


def _is_str(value) -> bool:
    return isinstance(value, str)


_INT = (_is_int, "an integer")
_MANIFEST_FIELDS = {
    "version": _INT,
    "num_classes": _INT,
    "feature_dim": _INT,
    "class_names": (_list_of(_is_str), "a list of strings"),
    "images": (_list_of(_is_str), "a list of strings"),
}
_RECORD_FIELDS = {
    "version": _INT,
    "id": (_is_str, "a string"),
    "width": _INT,
    "height": _INT,
    "num_superpixels": _INT,
    "num_proposals": _INT,
    "labels": (_list_of(_is_int), "a list of integers"),
    "proposals": (_list_of(_list_of(_is_int)), "a list of integer lists"),
    "saliency_classes": (_list_of(_is_int), "a list of integers"),
    "gt_boxes": (_list_of(lambda v: isinstance(v, dict)), "a list of objects"),
}
_GT_BOX_FIELDS = {
    "class_id": _INT,
    "box": (_list_of(_is_int, 4), "a list of 4 integers"),
}


def _check_fields(doc, where, fields) -> None:
    """Raise DatasetError unless ``doc`` is an object holding each field with its type."""
    if not isinstance(doc, dict):
        raise DatasetError(f"{where}: expected a JSON object")
    for key, (check, kind) in fields.items():
        if key not in doc:
            raise DatasetError(f"{where}: missing field '{key}'")
        if not check(doc[key]):
            raise DatasetError(
                f"{where}: field '{key}' must be {kind}, got {reprlib.repr(doc[key])}"
            )


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path}: invalid JSON ({exc})") from exc


def _load_record(
    rec_dir: Path,
    stem: str,
    manifest: DatasetManifest,
    prev_grid: SuperpixelGrid | None,
    grid_buf: bytearray,
) -> ImageRecord:
    """Load one record; it takes ``prev_grid`` when its label grid equals that one.

    ``grid_buf`` is the load's label-grid buffer; it grows to fit this
    record's grid and is read over by the next record.
    """
    json_path = rec_dir / f"{stem}.json"
    bin_path = rec_dir / f"{stem}.bin"
    for p in (json_path, bin_path):
        if not p.is_file():
            raise DatasetError(f"{p}: record file not found")
    doc = _read_json(json_path)
    _check_fields(doc, json_path, _RECORD_FIELDS)
    for k, gt in enumerate(doc["gt_boxes"]):
        _check_fields(gt, f"{json_path}: gt_boxes[{k}]", _GT_BOX_FIELDS)
    if doc["version"] != FORMAT_VERSION:
        raise DatasetError(f"{json_path}: unsupported version {doc['version']}")
    if doc["id"] != stem:
        raise DatasetError(f"{json_path}: field 'id' ({doc['id']}) != file stem")

    width, height = doc["width"], doc["height"]
    n_sp, n_props = doc["num_superpixels"], doc["num_proposals"]
    if len(doc["labels"]) != manifest.num_classes:
        raise DatasetError(
            f"{json_path}: field 'labels' has {len(doc['labels'])} entries, "
            f"manifest declares {manifest.num_classes} classes"
        )
    if len(doc["proposals"]) != n_props:
        raise DatasetError(f"{json_path}: field 'proposals' length != num_proposals")

    n_px = width * height
    n_maps = len(doc["saliency_classes"])
    grid_bytes = 4 * n_px
    body_bytes = 4 * (n_maps * n_px + n_props * manifest.feature_dim)
    with open(bin_path, "rb", buffering=0) as f:
        head = f.read(16)
        if len(head) < 16 or head[:8] != _BIN_MAGIC:
            raise DatasetError(f"{bin_path}: bad magic header")
        version, _ = struct.unpack("<II", head[8:])
        if version != FORMAT_VERSION:
            raise DatasetError(f"{bin_path}: unsupported version {version}")
        size = os.fstat(f.fileno()).st_size
        expected = 16 + grid_bytes + body_bytes
        if size != expected:
            raise DatasetError(
                f"{bin_path}: blob is {size} bytes, expected {expected} "
                f"(grid {width}x{height}, {n_maps} maps, {n_props}x{manifest.feature_dim} features)"
            )
        # negative sides can still give the blob's size (-32 x -32, -5 x 0)
        if width < 0 or height < 0:
            raise DatasetError(f"{json_path}: grid {width}x{height} has a negative side")
        if len(grid_buf) < grid_bytes:
            grid_buf.extend(bytes(grid_bytes - len(grid_buf)))
        with memoryview(grid_buf)[:grid_bytes] as view:
            got = f.readinto(view)
        body = f.read(body_bytes)
    if got != grid_bytes or len(body) != body_bytes:
        raise DatasetError(
            f"{bin_path}: short read, {16 + got + len(body)} of {expected} bytes"
        )
    labels_grid = np.frombuffer(grid_buf, dtype="<u4", count=n_px)
    maps = {}
    off = 0
    for c in doc["saliency_classes"]:
        if int(c) in maps:
            raise DatasetError(f"{json_path}: field 'saliency_classes' lists class {c} twice")
        values = np.frombuffer(body, dtype="<f4", count=n_px, offset=off)
        off += 4 * n_px
        try:
            maps[int(c)] = SaliencyMap(values.reshape(height, width))
        except ValueError as exc:
            raise DatasetError(f"{bin_path}: saliency map {c}: {exc}") from exc
    features = np.frombuffer(body, dtype="<f4", count=n_props * manifest.feature_dim, offset=off)

    try:
        # a zero side lets the other be too large for an array
        labels_grid = labels_grid.reshape(height, width)
        features = features.reshape(n_props, manifest.feature_dim)
        if prev_grid is not None and np.array_equal(
            prev_grid.labels.view(np.uint32), labels_grid
        ):
            # equal shape and ids: the grid the previous record validated
            grid = prev_grid
        else:
            # a copy, since the buffer is read over by the next record
            grid = SuperpixelGrid(
                width=width, height=height, labels=labels_grid.astype(np.int32)
            )
        if grid.n_superpixels != n_sp:
            raise ValueError(
                f"grid holds {grid.n_superpixels} superpixels, header says {n_sp}"
            )
        proposals = [Proposal(grid, ids) for ids in doc["proposals"]]
        gt_boxes = [(g["class_id"], Box(*g["box"])) for g in doc["gt_boxes"]]
        record = ImageRecord(
            id=doc["id"],
            grid=grid,
            proposals=proposals,
            features=features,
            labels=LabelVector(y=doc["labels"]),
            saliency=maps,
            gt_boxes=gt_boxes,
        )
    except ValueError as exc:
        raise DatasetError(f"{json_path}: {exc}") from exc
    return record


# ---------------------------------------------------------------------------
# synthetic generation

# distractor policy: one part per object, unions of consecutive object pairs,
# and a fixed number of random superpixel rectangles per image
_RANDOM_UNIONS_PER_IMAGE = 4
_OBJECT_SIDES = (2, 3)      # object extent range, in superpixel units
_OBJECT_GAP = 2             # min Chebyshev gap between objects, in superpixels
_PLACEMENT_ATTEMPTS = 200


def generate_synthetic(cfg: SynthConfig):
    """Generate a deterministic synthetic dataset; returns (records, manifest).

    Each image plants 1..k non-overlapping rectangular objects with
    distinct classes on a regular superpixel tiling. The class-c saliency
    map is 1 on the class-c object and 0 elsewhere, plus clamped uniform
    noise. The proposal list holds every planted object's superpixel set
    first, then the distractors: one part per object, unions of object
    pairs, and random superpixel rectangles. Feature row i is the one-hot
    template of the dominant overlapping class scaled by the proposal's
    pixel IoU with that object, plus Gaussian noise.
    """
    rng = np.random.default_rng(cfg.seed)
    sp_side = math.isqrt(cfg.superpixels)
    block = cfg.grid_side // sp_side

    # regular tiling shared by all images
    yy, xx = np.mgrid[0:cfg.grid_side, 0:cfg.grid_side]
    tiling = ((yy // block) * sp_side + (xx // block)).astype(np.int32)
    grid = SuperpixelGrid(width=cfg.grid_side, height=cfg.grid_side, labels=tiling)

    records = []
    for idx in range(cfg.images):
        records.append(_generate_image(cfg, rng, grid, sp_side, block, idx))
    manifest = DatasetManifest(
        num_classes=cfg.classes,
        feature_dim=cfg.feature_dim,
        class_names=tuple(f"class{c:02d}" for c in range(cfg.classes)),
        images=tuple(r.id for r in records),
        seed=cfg.seed,
    )
    return records, manifest


def _generate_image(cfg, rng, grid, sp_side, block, idx) -> ImageRecord:
    n_objects = int(rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1))
    classes = sorted(int(c) for c in rng.choice(cfg.classes, size=n_objects, replace=False))
    rects = _place_objects(rng, sp_side, n_objects)

    # each object as a set of superpixel ids plus its pixel box
    obj_ids = []
    gt_boxes = []
    for (r0, c0, r1, c1), cls in zip(rects, classes):
        ids = [r * sp_side + c for r in range(r0, r1) for c in range(c0, c1)]
        obj_ids.append(ids)
        gt_boxes.append((cls, Box(c0 * block, r0 * block, c1 * block, r1 * block)))

    proposals_ids = [list(ids) for ids in obj_ids]
    proposals_ids.extend(_part_of(rng, rect, sp_side) for rect in rects)
    for a in range(n_objects - 1):
        proposals_ids.append(sorted(obj_ids[a] + obj_ids[a + 1]))
    for _ in range(_RANDOM_UNIONS_PER_IMAGE):
        w = int(rng.integers(1, 4))
        h = int(rng.integers(1, 4))
        r0 = int(rng.integers(0, sp_side - h + 1))
        c0 = int(rng.integers(0, sp_side - w + 1))
        proposals_ids.append(
            [r * sp_side + c for r in range(r0, r0 + h) for c in range(c0, c0 + w)]
        )
    proposals = [Proposal(grid, ids) for ids in proposals_ids]

    saliency = {}
    for ids, cls in zip(obj_ids, classes):
        values = np.zeros((cfg.grid_side, cfg.grid_side), dtype=np.float64)
        values[np.isin(grid.labels, ids)] = 1.0
        if cfg.noise_amplitude > 0:
            values += rng.uniform(
                -cfg.noise_amplitude, cfg.noise_amplitude, size=values.shape
            )
        saliency[cls] = SaliencyMap(np.maximum(values, 0.0))

    features = np.zeros((len(proposals), cfg.feature_dim), dtype=np.float64)
    obj_sets = [set(ids) for ids in obj_ids]
    for i, ids in enumerate(proposals_ids):
        prop_set = set(ids)
        best_cls, best_inter, best_iou = -1, 0, 0.0
        for ids_o, cls in zip(obj_sets, classes):
            inter = len(prop_set & ids_o)
            if inter > best_inter:
                union = len(prop_set | ids_o)
                best_cls, best_inter, best_iou = cls, inter, inter / union
        if best_cls >= 0:
            features[i, best_cls] = best_iou  # superpixels are equal-area: pixel IoU
    features += rng.normal(0.0, 1.0 / cfg.feature_snr, size=features.shape)

    y = np.full(cfg.classes, -1, dtype=np.int8)
    y[classes] = 1
    return ImageRecord(
        id=f"img_{idx:04d}",
        grid=grid,
        proposals=proposals,
        features=features,
        labels=LabelVector(y=y),
        saliency=saliency,
        gt_boxes=gt_boxes,
    )


def _place_objects(rng, sp_side, n_objects):
    """Place non-overlapping object rectangles (superpixel coords, gap >= 2)."""
    for attempt in range(_PLACEMENT_ATTEMPTS):
        # fall back to the minimum size when placement keeps failing
        max_side = _OBJECT_SIDES[1] if attempt < _PLACEMENT_ATTEMPTS // 2 else _OBJECT_SIDES[0]
        rects = []
        ok = True
        for _ in range(n_objects):
            placed = False
            for _ in range(_PLACEMENT_ATTEMPTS):
                h = int(rng.integers(_OBJECT_SIDES[0], max_side + 1))
                w = int(rng.integers(_OBJECT_SIDES[0], max_side + 1))
                r0 = int(rng.integers(0, sp_side - h + 1))
                c0 = int(rng.integers(0, sp_side - w + 1))
                cand = (r0, c0, r0 + h, c0 + w)
                if all(_chebyshev_gap(cand, r) >= _OBJECT_GAP for r in rects):
                    rects.append(cand)
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return rects
    raise ValueError("config infeasible: could not place objects with the required gap")


def _chebyshev_gap(a, b):
    dr = max(a[0] - b[2], b[0] - a[2], 0)
    dc = max(a[1] - b[3], b[1] - a[3], 0)
    return max(dr, dc)


def _part_of(rng, rect, sp_side):
    """A corner sub-rectangle strictly smaller than half the object."""
    r0, c0, r1, c1 = rect
    h, w = r1 - r0, c1 - c0
    ph = max(1, math.ceil(h / 2)) if h > 1 else 1
    pw = max(1, math.ceil(w / 2)) if w > 1 else 1
    # shrink until strictly below half the area so the part's box stays
    # under the 0.5 IoU match threshold against its object
    while ph * pw * 2 > h * w and (ph > 1 or pw > 1):
        if ph >= pw and ph > 1:
            ph -= 1
        else:
            pw -= 1
    corner = int(rng.integers(0, 4))
    rr0 = r0 if corner in (0, 1) else r1 - ph
    cc0 = c0 if corner in (0, 2) else c1 - pw
    return [r * sp_side + c for r in range(rr0, rr0 + ph) for c in range(cc0, cc0 + pw)]
