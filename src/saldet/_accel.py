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
    """Sum of ``values`` over the pixels of each superpixel id."""
    return np.bincount(labels.ravel(), weights=values.ravel(), minlength=n_sp)


def superpixel_counts(labels, n_sp):
    """Pixel count of each superpixel id."""
    return np.bincount(labels.ravel(), minlength=n_sp).astype(np.int64)


def label_boxes(labels, n):
    """Half-open box (x0, y0, x1, y1) of each label 0..n-1, as (n, 4) int64.

    Every label in [0, n) must occur in the 2-d grid ``labels``; negative
    labels are ignored. They are dropped before the sort, so a component
    grid that is mostly background sorts only its foreground. A stable
    sort of the remaining flat labels keeps each label's pixels in scan
    order, so its first and last pixels give its rows; its columns are
    segment minima and maxima.
    """
    flat = labels.ravel()
    pixels = np.flatnonzero(flat >= 0)
    order = pixels[np.argsort(flat[pixels], kind="stable")]
    # label k occupies ordered positions [bounds[k], bounds[k + 1])
    bounds = np.searchsorted(flat[order], np.arange(n + 1))
    w = labels.shape[1]
    xs = order[:bounds[n]] % w
    return np.stack([
        np.minimum.reduceat(xs, bounds[:-1]),
        order[bounds[:-1]] // w,
        np.maximum.reduceat(xs, bounds[:-1]) + 1,
        order[bounds[1:] - 1] // w + 1,
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
    """
    inter = np.minimum(a[..., 2], b[..., 2])
    inter -= np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3])
    iy -= np.maximum(a[..., 1], b[..., 1])
    np.maximum(inter, 0, out=inter)
    np.maximum(iy, 0, out=iy)
    inter *= iy
    union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    union = union + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union -= inter
    # a union of 0 only comes with an intersection of 0
    return inter / np.maximum(union, 1, out=union)


# IoU entries one batch of equal-count images may take: without a cap 50
# images of 200 boxes would make 2M-entry temporaries; a larger image is
# a batch alone
_IOU_BATCH = 2**16


def nms_keep(boxes, threshold, image=None, rank=None):
    """Greedy suppression of half-open boxes, for many groups at once.

    ``boxes`` is (M, 4) int64 rows (x0, y0, x1, y1). Without ``rank`` the
    rows are one group in descending priority and the result is an (M,)
    keep mask: a box is dropped when its IoU with any earlier kept box is
    >= threshold; boxes that only touch (no shared pixel) never suppress
    each other.

    ``rank`` (G, M) runs G groups over the same boxes: ``rank[g, k]`` is
    box k's priority in group g (lower first, distinct within a group),
    negative where box k is not in group g; the result is a (G, M) mask,
    False outside each group. ``image`` (M,) labels each box with its
    image; boxes of one image must be contiguous, else it is a
    ValueError. Boxes of different images never suppress each other. The
    IoUs are computed once, whatever the number of groups, for batches of
    images with the same box count at a time.
    """
    m = boxes.shape[0]
    single = rank is None
    rank = np.arange(m)[None, :] if single else np.asarray(rank)
    # int32 halves the memory traffic; below 2**15 two areas still sum in range
    if m and 0 <= boxes.min() and boxes.max() < 2**15:
        boxes = boxes.astype(np.int32)
    starts = np.zeros(min(m, 1), dtype=np.int64)
    if image is not None and m:
        image = np.asarray(image)
        starts = np.flatnonzero(np.concatenate(([True], image[1:] != image[:-1])))
        if np.unique(image[starts]).size != starts.size:
            raise ValueError("boxes of one image must be contiguous")
    counts = np.diff(np.append(starts, m))
    # a positive IoU is at least 2**-63, so touching boxes never reach this
    reach = max(threshold, np.finfo(np.float64).tiny)
    # node ids g * m + k index every (group, box); int32 halves the edge lists
    node = np.int32 if rank.size < 2**31 else np.int64
    pair_a, pair_b = [np.zeros(0, dtype=node)], [np.zeros(0, dtype=node)]
    for count in np.unique(counts[counts > 1]).tolist():
        same = starts[counts == count]
        per_batch = max(1, _IOU_BATCH // (count * count))
        for lo in range(0, same.size, per_batch):
            first = same[lo : lo + per_batch]
            b = boxes[first[:, None] + np.arange(count)]
            g, a_idx, b_idx = np.nonzero(box_iou(b[:, :, None, :], b[:, None, :, :]) >= reach)
            upper = a_idx < b_idx
            at = first[g[upper]]
            pair_a.append((at + a_idx[upper]).astype(node))
            pair_b.append((at + b_idx[upper]).astype(node))
    pair_a = np.concatenate(pair_a)
    pair_b = np.concatenate(pair_b)
    # each group orients the pairs of its boxes by its ranks (one pass per
    # group keeps the temporaries pair-sized)
    hi_node, lo_node = [], []
    for g, group_rank in enumerate(rank):
        rank_a, rank_b = group_rank[pair_a], group_rank[pair_b]
        both = (rank_a >= 0) & (rank_b >= 0)
        a, b = pair_a[both], pair_b[both]
        a_first = rank_a[both] < rank_b[both]
        hi_node.append(np.where(a_first, a, b) + node(g * m))
        lo_node.append(np.where(a_first, b, a) + node(g * m))
    hi_node = np.concatenate(hi_node)
    lo_node = np.concatenate(lo_node)
    keep = _suppress(rank.size, hi_node, lo_node, (rank >= 0).ravel())
    return keep if single else keep.reshape(rank.shape)


def _suppress(n, hi, lo, present):
    """Greedy NMS outcome over suppression edges ``hi -> lo``.

    A node is kept when every higher-priority neighbour is removed, and
    removed when a kept higher-priority neighbour suppresses it. Each
    round settles at least the highest-priority open node of every group,
    so it ends after at most (longest chain of edges + 1) rounds.
    """
    keep = np.zeros(n, dtype=np.bool_)
    open_ = present.copy()
    while open_.any():
        blocked = np.zeros(n, dtype=np.bool_)
        blocked[lo] = True
        settled = open_ & ~blocked
        keep |= settled
        open_ &= ~settled
        open_[lo[keep[hi]]] = False
        live = open_[hi] & open_[lo]
        hi, lo = hi[live], lo[live]
    return keep
