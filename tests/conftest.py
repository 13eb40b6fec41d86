"""Shared fixtures: hand-built records with known geometry and saliency."""

from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from saldet.core import (
    Box,
    ImageRecord,
    LabelVector,
    Proposal,
    SaliencyMap,
    SuperpixelGrid,
    proposal_from_superpixels,
)
from saldet.evaluate import DetectionTable

# one detection as the oracles in ``oracles.py`` read it
Row = namedtuple("Row", "image_id class_id bbox score proposal_index")

# the seven layers a forward pass checks for finiteness, in order, and for
# a network with two trunk layers the bias that feeds each one after the input
LAYER_BIAS = {
    "trunk layer 0": "trunk0.b",
    "trunk layer 1": "trunk1.b",
    "saliency hidden layer": "sal_hidden.b",
    "saliency output layer": "sal_out.b",
    "classification stream": "cls.b",
    "detection stream": "det.b",
}
LAYERS = ("input features", *LAYER_BIAS)


def tiling_grid(side_px: int, sp_side: int) -> SuperpixelGrid:
    """Regular sp_side x sp_side tiling of a square image."""
    block = side_px // sp_side
    yy, xx = np.mgrid[0:side_px, 0:side_px]
    labels = ((yy // block) * sp_side + (xx // block)).astype(np.int32)
    return SuperpixelGrid(width=side_px, height=side_px, labels=labels)


# label grids the synthetic generator never makes, for oracle tests
IRREGULAR_LABELS = {
    # 0 is an L wrapped round the square 1; 2 is a strip
    "l_shape": [[0, 0, 0, 2],
                [0, 1, 1, 2],
                [0, 1, 1, 2]],
    # 1 lies inside 0 and touches nothing else; 2 borders 0 only
    "enclosed": [[0, 0, 0, 0, 2],
                 [0, 1, 1, 0, 2],
                 [0, 0, 0, 0, 2]],
    # 1 and 2 share exactly one pixel edge, at the bottom of the middle column
    "one_edge": [[1, 1, 0, 2, 2],
                 [1, 1, 0, 2, 2],
                 [1, 1, 1, 2, 2]],
    # 0 and 3 meet only at a corner; 1 is in two pieces
    "corner_and_split": [[0, 0, 1, 2],
                         [0, 0, 2, 3],
                         [1, 2, 3, 3]],
    "row": [[0, 0, 1, 2, 2, 2, 3, 1]],
    "column": [[0], [1], [1], [2], [0]],
    "one_superpixel": [[0, 0, 0], [0, 0, 0]],
    "one_pixel": [[0]],
}


def irregular_grid(name: str) -> SuperpixelGrid:
    labels = np.array(IRREGULAR_LABELS[name], dtype=np.int32)
    return SuperpixelGrid(width=labels.shape[1], height=labels.shape[0], labels=labels)


def build_record(rec_id, grid, proposal_ids, features, y, saliency_values, gt_boxes):
    """Assemble an ImageRecord from plain arrays."""
    proposals = [proposal_from_superpixels(grid, ids) for ids in proposal_ids]
    saliency = {
        c: SaliencyMap(values=v) for c, v in saliency_values.items()
    }
    return ImageRecord(
        id=rec_id,
        grid=grid,
        proposals=proposals,
        features=np.asarray(features, dtype=np.float64),
        labels=LabelVector(y=np.asarray(y, dtype=np.int8)),
        saliency=saliency,
        gt_boxes=gt_boxes,
    )


def dir_bytes(root: Path) -> dict:
    """Each file's bytes under ``root``, keyed by its relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def detection_table(rows, image_ids):
    """DetectionTable of Rows; an image id's index is its position in ``image_ids``."""
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    return DetectionTable(
        image=[index[r.image_id] for r in rows],
        class_id=[r.class_id for r in rows],
        proposal=[r.proposal_index for r in rows],
        score=[r.score for r in rows],
    )


def row_records(rows, records):
    """Copies of ``records`` whose proposal k has the box of the Rows naming k.

    Each copy keeps the id, labels and gt boxes of its record; a proposal
    no row names is the first pixel. One superpixel per pixel makes any
    box a proposal. All copies share one grid, sized to every row and gt
    box.
    """
    boxes = [r.bbox for r in rows] + [b for rec in records for _, b in rec.gt_boxes]
    width, height = max([b.x1 for b in boxes], default=1), max([b.y1 for b in boxes], default=1)
    grid = SuperpixelGrid(width=width, height=height,
                          labels=np.arange(width * height).reshape(height, width))
    copies = []
    for rec in records:
        named = {}
        for r in rows:
            if r.image_id == rec.id:
                assert named.setdefault(r.proposal_index, r.bbox) == r.bbox, "rows disagree"
        proposals = [
            Proposal(grid, grid.labels[b.y0:b.y1, b.x0:b.x1].ravel())
            for b in (named.get(k, Box(0, 0, 1, 1)) for k in range(max(named, default=0) + 1))
        ]
        copies.append(ImageRecord(
            id=rec.id, grid=grid, proposals=proposals,
            features=np.zeros((len(proposals), 1)), labels=rec.labels,
            saliency={c: SaliencyMap(np.zeros((height, width))) for c in rec.labels.positives},
            gt_boxes=rec.gt_boxes,
        ))
    return copies


def table_rows(table, records):
    """The Rows of a DetectionTable, in table order, with the records' proposal boxes."""
    return [
        Row(records[i].id, c, Box(*records[i].proposal_boxes[p].tolist()), s, p)
        for i, c, s, p in zip(
            table.image.tolist(), table.class_id.tolist(),
            table.score.tolist(), table.proposal.tolist(),
        )
    ]


@pytest.fixture
def touching_objects_record():
    """Two touching 2x2-superpixel objects whose saliency maps bleed into
    each other at 0.55 of the peak.

    Thresholding either map at half its peak merges both objects into one
    component, while the contrast scores still separate them: the exact
    object region scores 1 - 1.1/6, the two-object union only 0.775.
    """
    grid = tiling_grid(16, 4)
    a_ids = [4, 5, 8, 9]     # rows 1-2, cols 0-1
    b_ids = [6, 7, 10, 11]   # rows 1-2, cols 2-3

    map0 = np.zeros((16, 16))
    map0[np.isin(grid.labels, a_ids)] = 1.0
    map0[np.isin(grid.labels, b_ids)] = 0.55
    map1 = np.zeros((16, 16))
    map1[np.isin(grid.labels, b_ids)] = 1.0
    map1[np.isin(grid.labels, a_ids)] = 0.55

    features = np.array(
        [[1.0, 0.0, 0.0, 0.0],
         [0.0, 1.0, 0.0, 0.0],
         [0.5, 0.5, 0.0, 0.0]]
    )
    return build_record(
        "touching",
        grid,
        [a_ids, b_ids, sorted(a_ids + b_ids)],
        features,
        [1, 1],
        {0: map0, 1: map1},
        [(0, Box(0, 4, 8, 12)), (1, Box(8, 4, 16, 12))],
    )


@pytest.fixture
def two_superpixel_record():
    """Minimal record: a 4x2 image split into two 2x2 superpixels.

    Saliency is 0.8 on the left superpixel and 0.2 on the right, so
    RS/NS values are exact rationals for hand checks.
    """
    labels = np.array([[0, 0, 1, 1], [0, 0, 1, 1]], dtype=np.int32)
    grid = SuperpixelGrid(width=4, height=2, labels=labels)
    values = np.where(labels == 0, 0.8, 0.2).astype(np.float64)
    return build_record(
        "twosp",
        grid,
        [[0], [1], [0, 1]],
        np.eye(3, 2),
        [1, -1],
        {0: values},
        [(0, Box(0, 0, 2, 2))],
    )
