"""Grid and box kernels, one numpy implementation each.

Superpixel adjacency is computed as sparse neighbour lists (CSR offsets
plus ids, ``adjacency_lists``); the dense matrix, ``adjacency_matrix``,
expands those lists and is never built by the package itself. The
kernels take under 4% of a standard run, so none has a compiled twin.
``USE_NUMBA`` is always ``False``; ``perfbench/envinfo.py`` still
records it.
"""

import numpy as np

USE_NUMBA = False


# ---------------------------------------------------------------------------
# superpixel adjacency (4-connectivity)

def adjacency_lists(labels, n):
    """Neighbour lists of superpixel ids 0..n-1 from a label grid, as CSR.

    Returns ``(offsets, ids)``, both int64: the neighbours of superpixel
    k are ``ids[offsets[k]:offsets[k + 1]]``, ascending. Two ids are
    neighbours iff some horizontally or vertically adjacent pixel pair
    carries them; each such pair is scanned once, and each pair of ids is
    kept once per direction.
    """
    across = labels[:, :-1] != labels[:, 1:]
    down = labels[:-1, :] != labels[1:, :]
    a = np.concatenate([labels[:, :-1][across], labels[:-1, :][down]]).astype(np.int64)
    b = np.concatenate([labels[:, 1:][across], labels[1:, :][down]]).astype(np.int64)
    # one key row * n + neighbour per direction; sorted, then deduplicated
    keys = np.concatenate([a * n + b, b * n + a])
    keys.sort()
    first = np.empty(keys.size, dtype=np.bool_)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    rows = keys // n
    return np.searchsorted(rows, np.arange(n + 1)), keys - rows * n


def adjacency_matrix(labels, n_sp):
    """Symmetric boolean adjacency of superpixel ids, expanded from ``adjacency_lists``."""
    offsets, ids = adjacency_lists(labels, n_sp)
    adj = np.zeros((n_sp, n_sp), dtype=np.bool_)
    adj[np.repeat(np.arange(n_sp), np.diff(offsets)), ids] = True
    return adj


# ---------------------------------------------------------------------------
# per-superpixel reductions

def superpixel_sums(labels, values, n_sp):
    """Sum of ``values`` over the pixels of each superpixel id.

    ``labels`` and ``values`` pair up pixel by pixel, in any shape: seed
    scoring passes the 1-d ids and values of only the pixels it gathered.
    Each id's values are added in the order given, starting from 0.0, and
    an id that no pixel carries sums to exactly 0.0.
    """
    return np.bincount(labels.ravel(), weights=values.ravel(), minlength=n_sp)


def superpixel_counts(labels, n_sp):
    """Pixel count of each superpixel id."""
    return np.bincount(labels.ravel(), minlength=n_sp).astype(np.int64)


def label_pixels(labels, n):
    """Flat pixel indices of each label 0..n-1 of a 2-d grid, as CSR.

    Returns ``(offsets, pixels)``, both int64: the pixels of label k are
    ``pixels[offsets[k]:offsets[k + 1]]``, in scan order. Negative labels
    are ignored. They are dropped before the sort, so a component grid
    that is mostly background sorts only its foreground; a stable sort of
    the remaining flat labels keeps each label's pixels in scan order.
    """
    flat = labels.ravel()
    pixels = np.flatnonzero(flat >= 0)
    pixels = pixels[np.argsort(flat[pixels], kind="stable")]
    return np.searchsorted(flat[pixels], np.arange(n + 1)), pixels


def label_boxes(lists, width):
    """Half-open box (x0, y0, x1, y1) of each label, as (n, 4) int64.

    ``lists`` is ``label_pixels(labels, n)`` of a grid ``width`` pixels
    wide, in which every label in [0, n) occurs. A label's first and last
    pixels give its rows; its columns are segment minima and maxima.
    """
    offsets, pixels = lists
    xs = pixels[:offsets[-1]] % width
    return np.stack([
        np.minimum.reduceat(xs, offsets[:-1]),
        pixels[offsets[:-1]] // width,
        np.maximum.reduceat(xs, offsets[:-1]) + 1,
        pixels[offsets[1:] - 1] // width + 1,
    ], axis=1)


# ---------------------------------------------------------------------------
# 4-connected components of a binary mask

def connected_components(mask):
    """Label 4-connected True components; background gets -1.

    Returns ``(labels, count)`` with component ids 0..count-1 assigned in
    scan order of each component's first pixel.

    Only foreground pixels take part: they are numbered 0..n-1 in scan
    order, and each starts as its own tree, rooted at its number. Each
    round hooks the larger root of every edge whose ends sit in different
    trees under the smallest root it meets, then jumps pointers until
    each pixel points at its root. At the end a component's root is its
    smallest number, i.e. its first pixel in scan order, and the ranks of
    the roots are scattered back onto the grid.
    """
    h, w = mask.shape
    fg = np.flatnonzero(mask)
    n = fg.size
    node = np.arange(n, dtype=np.int32)
    ids = np.full(h * w, -1, dtype=np.int32)
    ids[fg] = node
    ids = ids.reshape(h, w)
    horiz = mask[:, :-1] & mask[:, 1:]
    vert = mask[:-1, :] & mask[1:, :]
    u = np.concatenate([ids[:, :-1][horiz], ids[:-1, :][vert]])
    v = np.concatenate([ids[:, 1:][horiz], ids[1:, :][vert]])
    parent = node.copy()
    while True:
        ru, rv = parent[u], parent[v]
        split = ru != rv
        if not split.any():
            break
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = np.flatnonzero(parent == node)
    rank = np.empty(n, dtype=np.int32)
    rank[roots] = np.arange(roots.size, dtype=np.int32)
    labels = np.full(h * w, -1, dtype=np.int32)
    labels[fg] = rank[parent]
    return labels.reshape(h, w), int(roots.size)


# ---------------------------------------------------------------------------
# box IoU and greedy NMS

def box_iou(a, b):
    """Elementwise IoU of half-open integer boxes ``(..., 4)``, broadcasting.

    Boxes that share no pixel get exactly 0.0, zero-area ones included.
    Two single boxes give a 0-d array.
    """
    # a trailing unit axis keeps even single boxes' columns arrays for the in-place ops
    return _column_iou(_columns(a[..., None, :]), _columns(b[..., None, :]))[..., 0]


def _columns(boxes):
    """The x0, y0, x1, y1 and area arrays of boxes ``(..., 4)``."""
    x0, y0, x1, y1 = (boxes[..., j] for j in range(4))
    return x0, y0, x1, y1, (x1 - x0) * (y1 - y0)


def _column_iou(a, b):
    """IoU of boxes given as (x0, y0, x1, y1, area) arrays, broadcasting.

    Intersection and union stay in the coordinates' integer dtype, and
    only their quotient is float64.
    """
    ax0, ay0, ax1, ay1, a_area = a
    bx0, by0, bx1, by1, b_area = b
    inter = np.minimum(ax1, bx1)
    inter -= np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1)
    iy -= np.maximum(ay0, by0)
    np.maximum(inter, 0, out=inter)
    np.maximum(iy, 0, out=iy)
    inter *= iy
    union = a_area + b_area
    union -= inter
    # a union of 0 only comes with an intersection of 0
    return inter / np.maximum(union, 1, out=union)


# IoU entries one tile of the pair search may take (see ``nms_keep``),
# 256 KiB of float64 IoUs. Timed on a 2-core Xeon, dense splits of
# 150-200 boxes an image run alike at 2**13-2**16, one 2000-box image
# runs ~12% faster than at 2**14 and within 5% of 2**16, and the dense
# benchmark's peak RSS was lowest here; larger tiles would also compute
# more of the lower triangles, which the search discards
_IOU_BATCH = 2**15


def nms_keep(boxes, threshold, counts=None, score=None):
    """Greedy suppression of half-open boxes, for many groups at once.

    ``boxes`` is (M, 4) int64 rows (x0, y0, x1, y1). Without ``score`` the
    rows are one group in descending priority and the result is an (M,)
    keep mask: a box is dropped when its IoU with any earlier kept box is
    >= threshold; boxes that only touch (no shared pixel) never suppress
    each other.

    ``score`` (G, M) runs G groups over the same boxes: ``score[g, k]`` is
    box k's score in group g, NaN where box k is not in group g; the
    result is a (G, M) mask, False outside each group. Within a group a
    higher score comes first, and of equal scores the lower row. ``counts``
    splits the rows into images, in order: image i has ``counts[i]``
    boxes, and without it all M rows are one image. Counts must be
    integers >= 0 summing to M, else it is a ValueError. Boxes of
    different images never suppress each other.

    The boxes are split once into x0, y0, x1, y1 and area columns. Each
    image is searched in tiles of rows against its columns from the tile's
    first row on, images of equal box count a batch at a time, so no
    temporary passes ``_IOU_BATCH`` entries and most of each image's lower
    triangle is never computed. The overlapping pairs (a, b), a < b, are
    found once whatever the number of groups; each group then orients
    them by its scores.
    """
    m = boxes.shape[0]
    single = score is None
    # equal scores: each group's priority is its row order
    score = np.zeros((1, m)) if single else np.asarray(score, dtype=np.float64)
    # int32 halves the memory traffic; below 2**15 two areas still sum in range
    small = m and 0 <= boxes.min() and boxes.max() < 2**15
    x0, y0, x1, y1 = np.array(boxes.T, dtype=np.int32 if small else np.int64, order="C")
    columns = (x0, y0, x1, y1, (x1 - x0) * (y1 - y0))
    counts = np.asarray([m] if counts is None else counts)
    whole = counts.dtype.kind in "iu" or not counts.size
    if counts.ndim != 1 or not whole or (counts < 0).any() or counts.sum() != m:
        raise ValueError(f"box counts must be integers >= 0 summing to {m}")
    starts = np.cumsum(counts) - counts
    # a positive IoU is at least 2**-63, so touching boxes never reach this
    reach = max(threshold, np.finfo(np.float64).tiny)
    # node ids g * m + k index every (group, box); int32 halves the edge lists
    node = np.int32 if score.size < 2**31 else np.int64
    pair_a, pair_b = [np.zeros(0, dtype=node)], [np.zeros(0, dtype=node)]
    for count in np.unique(counts[counts > 1]).tolist():
        same = starts[counts == count]
        per_batch = max(1, _IOU_BATCH // (count * count))
        for lo in range(0, same.size, per_batch):
            first = same[lo : lo + per_batch]
            rows = first[:, None] + np.arange(count)
            cols = [c[rows] for c in columns]
            r0 = 0
            while r0 < count:
                r1 = min(count, r0 + max(1, _IOU_BATCH // (first.size * (count - r0))))
                iou = _column_iou(
                    [c[:, r0:r1, None] for c in cols], [c[:, None, r0:] for c in cols]
                )
                # flat indices: np.nonzero over the 3-d tile is ~8x slower
                g, a_idx = np.divmod(np.flatnonzero(iou >= reach), (r1 - r0) * (count - r0))
                a_idx, b_idx = np.divmod(a_idx, count - r0)
                upper = a_idx < b_idx
                at = first[g[upper]] + r0
                pair_a.append((at + a_idx[upper]).astype(node))
                pair_b.append((at + b_idx[upper]).astype(node))
                r0 = r1
    pair_a = np.concatenate(pair_a)
    pair_b = np.concatenate(pair_b)
    # a < b, so a comes first iff its score is not lower. A pair with an
    # absent (NaN) end takes either direction: ``_suppress`` never opens
    # an absent node, so such an edge drops out after its first round and
    # changes no outcome. One pass per group keeps the temporaries
    # pair-sized; on int32 ids ``take`` and the ``flip`` arithmetic run
    # several times faster than fancy indexing and ``np.where``
    step = pair_a - pair_b
    hi_node, lo_node = [], []
    for g, group_score in enumerate(score):
        flip = step * (group_score.take(pair_a) >= group_score.take(pair_b))
        hi_node.append(pair_b + flip + node(g * m))
        lo_node.append(pair_a - flip + node(g * m))
    hi_node = np.concatenate(hi_node)
    lo_node = np.concatenate(lo_node)
    keep = _suppress(score.size, hi_node, lo_node, ~np.isnan(score).ravel())
    return keep if single else keep.reshape(score.shape)


def _suppress(n, hi, lo, present):
    """Greedy NMS outcome over suppression edges ``hi -> lo``.

    A node is kept when every higher-priority neighbour is removed, and
    removed when a kept higher-priority neighbour suppresses it. A node
    that is not present is never open, so an edge from one blocks its
    other end in the first round only. From the second round on, each
    round settles at least the highest-priority open node of every group,
    so it ends after at most (longest chain of edges + 2) rounds.
    """
    keep = np.zeros(n, dtype=np.bool_)
    open_ = present.copy()
    while open_.any():
        blocked = np.zeros(n, dtype=np.bool_)
        blocked[lo] = True
        settled = open_ & ~blocked
        keep |= settled
        open_ &= ~settled
        open_[lo[keep.take(hi)]] = False
        live = open_.take(hi) & open_.take(lo)
        hi, lo = hi[live], lo[live]
    return keep
