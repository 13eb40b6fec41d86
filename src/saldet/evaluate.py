"""Test-time scoring and the three ranking metrics.

Detection AP at 0.5 IoU, CorLoc, and per-class image classification AP.
Scoring runs the frozen model over chunks of whole images, one forward
pass per chunk, with each chunk's images in proposal-count order so that
images of equal count share each stacked product; it gives each image
the scores ``forward`` gives it alone; labels and saliency maps are never
used to produce scores. AP uses the continuous interpolation (area under
the monotone precision envelope); an 11-point mode is available for
comparability with older conventions.

Everything after scoring works on one :class:`DetectionTable` per split,
a row per scored (image, class, proposal), with no per-detection Python
objects and no boxes: NMS, AP and CorLoc read a row's box from its
record's ``proposal_boxes`` and its (image, class) group from one
numbering, ``_index``, so no array size or key depends on a class id's
value. What they read of the records (proposal counts and boxes, the
label count, the ground truth, the image-id order) is derived once per
``evaluate()`` call, in one private split object that feeds NMS, AP,
CorLoc and classification AP; a stage called alone derives its own. A
row's group is its class id when every id is below the records' label
count, as in every table ``score_dataset`` makes. A class id past the
records' label count has no ground truth and no positive image: AP skips
it with a log note, and CorLoc never reads it. NMS lays the scores out
as one (group, proposal box) matrix, NaN where no row is, and finds each
image's overlapping proposal pairs once for all classes: over
x0/y0/x1/y1 columns, in tiles of rows against the columns from the
tile's first row on, images of equal proposal count together. Each class
orients those pairs by its scores, every group is suppressed at once,
and only the kept rows are sorted. AP matches ground truth only for the
rows that reach the IoU threshold against some ground-truth box, in
rounds: rows of different (image, class) keys never compete for a box,
so round r matches the r-th such row of every key at once (one round on
the standard splits, three on the dense ones); CorLoc takes the top row
of every group of the NMS output, which NMS never drops.
"""

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .core import ImageRecord, check_records
# scoring runs ``forward_images``; perfbench's tracer also wraps ``forward``
# under this module's name, so the binding stays
from .model import ModelConfig, ModelParams, forward, forward_images  # noqa: F401

log = logging.getLogger(__name__)
NMS_IOU = 0.4    # default IoU at which NMS suppresses a lower-scored box
MATCH_IOU = 0.5  # default IoU at which a detection matches a ground-truth box
# rows of whole records scored in one forward pass, which takes them in
# proposal-count order; a larger image is a chunk alone. Chunks are cut in
# record order: cut after sorting, dense splits took one more chunk and
# ~50% more page faults per scoring call. The pass's trace takes ~3.4 kB
# per row at the standard widths. Scoring a 50-image split of 100-200
# proposals took 18.9, 15.3, 14.4 and 15.3 ms at 128, 512, 1024 and 2048
# rows (one BLAS thread), so larger chunks only cost memory
_CHUNK_ROWS = 512


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Columnar scores: one row per (image, class, proposal).

    ``image`` indexes the evaluated records and ``proposal`` the image's
    proposals. The index columns must be given as integers, and every
    score must be finite and in [0, 1].
    """

    image: np.ndarray     # (K,) int64
    class_id: np.ndarray  # (K,) int64
    proposal: np.ndarray  # (K,) int64
    score: np.ndarray     # (K,) float64

    def __post_init__(self):
        for name in ("image", "class_id", "proposal"):
            column = np.asarray(getattr(self, name))
            # as given: the int64 cast would truncate 2.7 to a real proposal
            if column.size and column.dtype.kind not in "iu":
                raise ValueError(f"detection {name} must be integers, got {column.dtype}")
            object.__setattr__(self, name, np.asarray(column, dtype=np.int64))
        object.__setattr__(self, "score", np.asarray(self.score, dtype=np.float64))
        k = self.score.shape[0]
        columns = (self.image, self.class_id, self.proposal, self.score)
        if any(col.shape != (k,) for col in columns):
            raise ValueError("detection columns must be K rows long")
        if k and min(self.image.min(), self.class_id.min(), self.proposal.min()) < 0:
            raise ValueError("detection image, class and proposal indices must be >= 0")
        bad = ~((self.score >= 0.0) & (self.score <= 1.0))  # NaN fails both
        if bad.any():
            raise ValueError(f"detection score {self.score[bad][0]} outside [0, 1]")

    def __len__(self) -> int:
        return self.score.shape[0]

    def take(self, rows) -> "DetectionTable":
        """The table of the given rows, in that order."""
        return DetectionTable(
            self.image[rows], self.class_id[rows], self.proposal[rows], self.score[rows]
        )


@dataclass
class EvalReport:
    """Per-class metrics and their unweighted means.

    Classes without ground truth (or without positive images) are absent
    from the per-class maps and excluded from the means.
    """

    detection_ap: dict[int, float] = field(default_factory=dict)
    mean_detection_ap: float = 0.0
    corloc: dict[int, float] = field(default_factory=dict)
    mean_corloc: float = 0.0
    classification_ap: dict[int, float] = field(default_factory=dict)
    mean_classification_ap: float = 0.0
    num_images: int = 0
    num_gt_boxes: int = 0

    def as_json_dict(self) -> dict:
        return {
            "num_images": self.num_images,
            "num_gt_boxes": self.num_gt_boxes,
            "detection_ap": {str(c): v for c, v in sorted(self.detection_ap.items())},
            "mean_detection_ap": self.mean_detection_ap,
            "corloc": {str(c): v for c, v in sorted(self.corloc.items())},
            "mean_corloc": self.mean_corloc,
            "classification_ap": {
                str(c): v for c, v in sorted(self.classification_ap.items())
            },
            "mean_classification_ap": self.mean_classification_ap,
        }


def _chunks(counts: list[int]) -> list[tuple[int, int]]:
    """(first, stop) runs of records of at most ``_CHUNK_ROWS`` rows, or of one record."""
    chunks, first, rows = [], 0, 0
    for i, n in enumerate(counts):
        if i > first and rows + n > _CHUNK_ROWS:
            chunks.append((first, i))
            first, rows = i, 0
        rows += n
    return chunks + [(first, len(counts))] if counts else []


def score_dataset(params: ModelParams, records: list[ImageRecord], config: ModelConfig):
    """Forward every image; returns (detections, image_scores).

    ``detections`` is a :class:`DetectionTable` with one row per
    (image, proposal, class), in that order; ``image_scores`` maps
    image_id to the per-class tau vector. The records are run in chunks
    of whole records, one forward pass each, the records of a chunk in
    proposal-count order (stable), and every score is written back to its
    own image: it is the one ``forward`` gives for that image alone.
    """
    check_records(records, config)
    num_classes = config.num_classes
    counts = np.array([rec.num_proposals for rec in records], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    scores = np.empty((counts.sum(), num_classes))
    taus = np.empty((len(records), num_classes))
    for a, b in _chunks(counts.tolist()):
        # in proposal-count order, images of equal count share stacked products
        images = a + np.argsort(counts[a:b], kind="stable")
        trace = forward_images(params, [records[i].features for i in images], config)
        # each trace row's row in record order
        n = counts[images]
        scores[np.repeat(starts[images] - np.cumsum(n) + n, n) + np.arange(n.sum())] = trace.scores
        taus[images] = trace.image_scores
        del trace  # freed before the next chunk's trace is built
    table = DetectionTable(
        image=np.repeat(np.repeat(np.arange(len(records)), counts), num_classes),
        class_id=np.tile(np.arange(num_classes), len(scores)),
        proposal=np.repeat(np.arange(len(scores)) - np.repeat(starts, counts), num_classes),
        score=scores.ravel(),
    )
    return table, {rec.id: tau for rec, tau in zip(records, taus)}


class _Split:
    """What NMS, AP, CorLoc and classification AP read of a split's records, derived on first use.

    ``evaluate()`` makes one per call and hands it to every stage; a
    stage called alone makes its own. Nothing outlives it or is kept on
    the records.
    """

    def __init__(self, records: list[ImageRecord]):
        self.records = records

    @functools.cached_property
    def proposals(self):
        """(counts, starts, boxes): each record's proposal count and first
        row in ``boxes``, the records' proposal boxes concatenated."""
        records = self.records
        counts = np.array([rec.num_proposals for rec in records], dtype=np.int64)
        boxes = [np.empty((0, 4), dtype=np.int64)] + [rec.proposal_boxes for rec in records]
        return counts, np.cumsum(counts) - counts, np.concatenate(boxes)

    @functools.cached_property
    def num_classes(self) -> int:
        """C, the records' largest label count."""
        return max([rec.labels.num_classes for rec in self.records], default=0)

    @functools.cached_property
    def id_rank(self) -> np.ndarray:
        """Each record's position in image-id order, which breaks score ties."""
        records = self.records
        rank = np.empty(len(records), dtype=np.int64)
        rank[sorted(range(len(records)), key=lambda i: records[i].id)] = np.arange(len(records))
        return rank

    @functools.cached_property
    def ground_truth(self):
        """(image, classes, boxes) of every GT box, by (image, class), each
        pair's boxes in record order, which breaks matching ties. A box of
        class c in image i has key ``i * groups + c`` (class c is group c),
        as ``_index``'s rows do."""
        gt = [(i, c, box.as_tuple()) for i, rec in enumerate(self.records)
              for c, box in rec.gt_boxes]
        image = np.array([i for i, _, _ in gt], dtype=np.int64)
        classes = np.array([c for _, c, _ in gt], dtype=np.int64)
        boxes = np.array([b for _, _, b in gt], dtype=np.int64).reshape(-1, 4)
        order = np.lexsort((classes, image))
        return image[order], classes[order], boxes[order]


def _index(d: DetectionTable, split: _Split):
    """(box_of, classes, group): each row's index into the split's proposal
    boxes, the sorted union of 0..C-1 and the table's class ids, and each
    row's index there, so class c < C is group c."""
    counts, starts, _ = split.proposals
    if len(d) and d.image.max() >= counts.size:
        raise ValueError("detection image index outside the evaluated records")
    if (d.proposal >= counts[d.image]).any():
        raise ValueError("detection proposal index outside its image's proposals")
    box_of = starts[d.image] + d.proposal
    num_classes = split.num_classes
    if not len(d) or d.class_id.max() < num_classes:  # every id is its own group
        return box_of, np.arange(num_classes), d.class_id
    classes = np.union1d(np.arange(num_classes), d.class_id)
    # searching the sorted classes makes fewer row-sized temporaries than
    # ``np.unique``'s ``return_inverse``, which raised dense peak RSS
    return box_of, classes, np.searchsorted(classes, d.class_id)


def nms(
    detections: DetectionTable, records: list[ImageRecord], iou_threshold: float = NMS_IOU,
    *, _split: _Split | None = None,
) -> DetectionTable:
    """Greedy non-maximum suppression within each (image, class) group.

    Candidates are visited by descending score (ties by lower proposal
    index); a candidate is dropped when its IoU with an already kept box
    is >= the threshold. A row's box is its proposal's in ``records``,
    and an (image, class, proposal) may occur once. The result is
    ordered by (image, class, descending score, proposal), so it is
    independent of input order.
    """
    check_thresholds(nms_threshold=iou_threshold)
    d = detections
    if not len(d):
        return d
    split = _split or _Split(records)
    box_of, classes, group_of = _index(d, split)
    counts, _, boxes = split.proposals
    groups = classes.size
    # one score cell per (group, box); NaN, which is never kept, where no row is
    cell = group_of * len(boxes) + box_of
    score = np.full(groups * len(boxes), np.nan)
    score[cell] = d.score
    if np.count_nonzero(~np.isnan(score)) != len(d):
        raise ValueError("an (image, class, proposal) occurs more than once")
    # within an image a lower box is a lower proposal, so ``nms_keep``
    # breaks score ties as this function does
    keep = _accel.nms_keep(boxes, iou_threshold, counts, score.reshape(groups, len(boxes)))
    # the kept cells come in (class, image, proposal) order, so a stable
    # sort by descending score, then by (image, class), leaves equal
    # scores in proposal order; only the kept rows are sorted
    kept = np.flatnonzero(keep)
    row_of = np.empty(score.size, dtype=np.int64)
    row_of[cell] = np.arange(len(d))
    rows = row_of[kept]
    order = np.lexsort((-score[kept], d.image[rows] * groups + kept // len(boxes)))
    return d.take(rows[order])


def _pr_curve(tp_flags: np.ndarray, num_positive: int):
    """Cumulative precision/recall from a score-ordered TP/FP sequence."""
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / num_positive
    precision = tp / np.maximum(tp + fp, 1)
    return recall, precision


def _ap_from_pr(recall: np.ndarray, precision: np.ndarray, eleven_point: bool) -> float:
    if eleven_point:
        total = 0.0
        for t in np.linspace(0.0, 1.0, 11):
            mask = recall >= t - 1e-12
            total += precision[mask].max() if mask.any() else 0.0
        return total / 11.0
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.concatenate(([0.0], precision, [0.0]))
    p = np.maximum.accumulate(p[::-1])[::-1]
    steps = np.flatnonzero(r[1:] != r[:-1])
    return float(((r[steps + 1] - r[steps]) * p[steps + 1]).sum())


def check_thresholds(nms_threshold: float = NMS_IOU, iou_threshold: float = MATCH_IOU) -> None:
    """Raise ValueError unless the NMS threshold is in (0, 1) and the matching one in (0, 1]."""
    if not (0.0 < nms_threshold < 1.0):  # NaN fails too
        raise ValueError(f"NMS threshold must be in (0, 1), got {nms_threshold}")
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"IoU matching threshold must be in (0, 1], got {iou_threshold}")


def _gt_pairs(row_keys, row_boxes, gt_keys, gt_boxes):
    """(row, gt, IoU) for every row and GT box of the same (image, class) key."""
    lo = np.searchsorted(gt_keys, row_keys, side="left")
    counts = np.searchsorted(gt_keys, row_keys, side="right") - lo
    row = np.repeat(np.arange(row_keys.size), counts)
    gt = lo[row] + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return row, gt, _accel.box_iou(row_boxes[row], gt_boxes[gt])


def detection_ap(
    detections: DetectionTable,
    records: list[ImageRecord],
    iou_threshold: float = MATCH_IOU,
    eleven_point: bool = False,
    *, _split: _Split | None = None,
) -> dict[int, float]:
    """Per-class average precision of (ideally post-NMS) detections.

    Each detection, in descending score order (ties by image id, then
    proposal index), is matched to the highest-IoU still-unmatched
    ground-truth box of its class in its image; it is a true positive
    when that IoU is >= the threshold, otherwise a false positive
    (duplicates included). A class with rows but no ground truth, as any
    id past the records' label count, is skipped with a log note.
    """
    check_thresholds(iou_threshold=iou_threshold)
    d, split = detections, _split or _Split(records)
    box_of, classes, group = _index(d, split)
    groups = classes.size
    gt_image, gt_cls, gt_boxes = split.ground_truth
    gt_keys = gt_image * groups + gt_cls
    _, _, boxes = split.proposals
    order = np.lexsort((d.proposal, split.id_rank[d.image], -d.score, group))
    keys = d.image[order] * groups + group[order]
    row, gt, iou = _gt_pairs(keys, boxes[box_of[order]], gt_keys, gt_boxes)
    # only rows reaching the threshold against some GT box can be true
    # positives, and rows of different keys never compete for a box: round
    # r takes the r-th reaching row of every key at once, and each takes
    # its first highest-IoU free box if that reaches the threshold
    tp = np.zeros(len(d), dtype=bool)
    used = np.zeros(gt_keys.size, dtype=bool)
    reach = np.unique(row[iou >= iou_threshold])
    lo, hi = np.searchsorted(row, np.stack([reach, reach + 1]))
    # a row's round: how many reaching rows of its key come before it
    by_key = np.argsort(keys[reach], kind="stable")
    sorted_keys = keys[reach[by_key]]
    rounds = np.empty(reach.size, dtype=np.int64)
    rounds[by_key] = np.arange(reach.size) - np.searchsorted(sorted_keys, sorted_keys)
    for r in range(rounds.max(initial=-1) + 1):
        q = np.flatnonzero(rounds == r)
        n = hi[q] - lo[q]
        seg = np.cumsum(n) - n
        pair = np.repeat(lo[q] - seg, n) + np.arange(n.sum())
        free = np.where(used[gt[pair]], -1.0, iou[pair])
        best = np.maximum.reduceat(free, seg)
        take = np.minimum.reduceat(np.where(free == np.repeat(best, n), pair, row.size), seg)
        hit = best >= iou_threshold
        used[gt[take[hit]]] = True
        tp[reach[q[hit]]] = True

    # the ordered rows run class by class, in ``classes`` order
    ends = np.cumsum(np.bincount(group, minlength=groups)).tolist()
    n_gt = np.bincount(gt_cls, minlength=groups).tolist()
    result = {}
    for c, lo, hi, n in zip(classes.tolist(), [0] + ends, ends, n_gt):
        if n:
            result[c] = _ap_from_pr(*_pr_curve(tp[lo:hi], n), eleven_point)
        elif hi > lo:
            log.info("class %d has no ground-truth boxes; AP undefined", c)
    return result


def corloc(
    detections: DetectionTable,
    records: list[ImageRecord],
    iou_threshold: float = MATCH_IOU,
    *, _split: _Split | None = None,
) -> dict[int, float]:
    """Fraction of positive images whose top-scoring box hits a GT box.

    For each (image, positive class) pair the single highest-scoring
    detection of that class (ties by lower proposal index) is checked
    against the class's ground truth at the IoU threshold. Classes with
    no positive images, as any id past the records' label count, are
    skipped. NMS keeps that detection, so the result is the same before
    and after ``nms``.
    """
    check_thresholds(iou_threshold=iou_threshold)
    d, split = detections, _split or _Split(records)
    box_of, classes, group = _index(d, split)
    _, _, boxes = split.proposals
    groups = classes.size
    gt_image, gt_cls, gt_boxes = split.ground_truth
    gt_keys = gt_image * groups + gt_cls
    keys = d.image * groups + group
    order = np.argsort(keys, kind="stable")
    keys, score, box_of = keys[order], d.score[order], box_of[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    # each group's top score, and the lowest of its rows that reach it:
    # within a group a lower box is a lower proposal
    top = np.maximum.reduceat(score, starts)
    reach = score == top[np.cumsum(first) - 1]
    top_box = np.minimum.reduceat(np.where(reach, box_of, len(boxes)), starts)
    top_keys, top_boxes = keys[starts], boxes[top_box]

    positive = [(i * groups + c, c) for i, rec in enumerate(records) for c in rec.labels.positives]
    pos_keys = np.array([k for k, _ in positive], dtype=np.int64)
    pos_class = np.array([c for _, c in positive], dtype=np.int64)
    at = np.searchsorted(top_keys, pos_keys)
    found = at < top_keys.size
    found[found] = top_keys[at[found]] == pos_keys[found]
    found = np.flatnonzero(found)
    row, _, iou = _gt_pairs(pos_keys[found], top_boxes[at[found]], gt_keys, gt_boxes)
    hit = np.zeros(pos_keys.size, dtype=bool)
    hit[found[row[iou >= iou_threshold]]] = True
    return {c: float(np.mean(hit[pos_class == c])) for c in np.unique(pos_class).tolist()}


def classification_ap(
    image_scores: dict[str, np.ndarray],
    records: list[ImageRecord],
    eleven_point: bool = False,
    *, _split: _Split | None = None,
) -> dict[int, float]:
    """Per-class AP of ranking images by their class score tau_c (ties by id)."""
    if not records:
        return {}
    scores = np.stack([image_scores[r.id] for r in records]).astype(np.float64)
    positive = np.stack([r.labels.y == 1 for r in records])
    id_rank = (_split or _Split(records)).id_rank
    result = {}
    for c in range(positive.shape[1]):
        flags = positive[np.lexsort((id_rank, -scores[:, c])), c]
        n_pos = int(flags.sum())
        if n_pos == 0:
            log.info("class %d has no positive images; AP undefined", c)
            continue
        recall, precision = _pr_curve(flags, n_pos)
        result[c] = _ap_from_pr(recall, precision, eleven_point)
    return result


def _mean(values: dict[int, float]) -> float:
    return float(np.mean(list(values.values()))) if values else 0.0


def evaluate(
    params: ModelParams,
    records: list[ImageRecord],
    config: ModelConfig,
    nms_threshold: float = NMS_IOU,
    iou_threshold: float = MATCH_IOU,
    eleven_point: bool = False,
) -> EvalReport:
    """Full pipeline: score, NMS, and all three metrics in one report."""
    check_thresholds(nms_threshold, iou_threshold)
    if not records:
        raise ValueError("cannot evaluate an empty dataset")
    detections, image_scores = score_dataset(params, records, config)
    split = _Split(records)
    kept = nms(detections, records, nms_threshold, _split=split)
    det_ap = detection_ap(kept, records, iou_threshold, eleven_point, _split=split)
    loc = corloc(kept, records, iou_threshold, _split=split)
    cls_ap = classification_ap(image_scores, records, eleven_point, _split=split)
    return EvalReport(
        detection_ap=det_ap,
        mean_detection_ap=_mean(det_ap),
        corloc=loc,
        mean_corloc=_mean(loc),
        classification_ap=cls_ap,
        mean_classification_ap=_mean(cls_ap),
        num_images=len(records),
        num_gt_boxes=sum(len(r.gt_boxes) for r in records),
    )
