"""Grid and box kernels, one numpy implementation each.

The kernels take under 4% of a standard run, so none has a compiled
twin. ``USE_NUMBA`` is always ``False``; ``perfbench/envinfo.py`` still
records it.
"""

import numpy as np

USE_NUMBA = False


# ---------------------------------------------------------------------------
# superpixel adjacency (4-connectivity)

def adjacency_matrix(labels, n_sp):
    """Symmetric boolean adjacency of superpixel ids from a label grid."""
    adj = np.zeros((n_sp, n_sp), dtype=np.bool_)
    # horizontal then vertical 4-connected pixel pairs
    for a, b in (
        (labels[:, :-1].ravel(), labels[:, 1:].ravel()),
        (labels[:-1, :].ravel(), labels[1:, :].ravel()),
    ):
        diff = a != b
        adj[a[diff], b[diff]] = True
        adj[b[diff], a[diff]] = True
    return adj


# ---------------------------------------------------------------------------
# per-superpixel reductions

def superpixel_sums(labels, values, n_sp):
    """Sum of ``values`` over the pixels of each superpixel id."""
    return np.bincount(labels.ravel(), weights=values.ravel(), minlength=n_sp)


def superpixel_counts(labels, n_sp):
    """Pixel count of each superpixel id."""
    return np.bincount(labels.ravel(), minlength=n_sp).astype(np.int64)


# ---------------------------------------------------------------------------
# 4-connected components of a binary mask

def connected_components(mask):
    """Label 4-connected True components; background gets -1.

    Returns ``(labels, count)`` with component ids 0..count-1 assigned in
    scan order of each component's first pixel.

    Every pixel starts as its own tree, rooted at its flat index. Each
    round hooks the larger root of every edge whose ends sit in different
    trees under the smallest root it meets, then jumps pointers until
    each pixel points at its root. At the end a component's root is its
    smallest flat index, i.e. its first pixel in scan order.
    """
    h, w = mask.shape
    flat_mask = mask.ravel()
    idx = np.arange(h * w, dtype=np.int32).reshape(h, w)
    horiz = mask[:, :-1] & mask[:, 1:]
    vert = mask[:-1, :] & mask[1:, :]
    u = np.concatenate([idx[:, :-1][horiz], idx[:-1, :][vert]])
    v = np.concatenate([idx[:, 1:][horiz], idx[1:, :][vert]])
    parent = idx.ravel().copy()
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
    roots = np.flatnonzero(flat_mask & (parent == idx.ravel()))
    # background pixels are never hooked, so they map to their own -1
    rank = np.full(h * w, -1, dtype=np.int32)
    rank[roots] = np.arange(roots.size, dtype=np.int32)
    return rank[parent].reshape(h, w), int(roots.size)


# ---------------------------------------------------------------------------
# greedy NMS over boxes already sorted by priority

def nms_keep(boxes, threshold):
    """Greedy suppression over priority-sorted half-open boxes.

    ``boxes`` is (M, 4) int64 rows (x0, y0, x1, y1) in descending priority.
    A box is dropped when its IoU with any earlier kept box is >= threshold;
    boxes that only touch (no shared pixel) never suppress each other.
    """
    x0, y0, x1, y1 = boxes.T
    areas = (x1 - x0) * (y1 - y0)
    ix = np.clip(np.minimum(x1[:, None], x1) - np.maximum(x0[:, None], x0), 0, None)
    iy = np.clip(np.minimum(y1[:, None], y1) - np.maximum(y0[:, None], y0), 0, None)
    inter = ix * iy
    overlap = inter > 0
    iou = np.divide(
        inter, areas[:, None] + areas - inter, out=np.zeros(inter.shape), where=overlap
    )
    suppress = overlap & (iou >= threshold)
    keep = np.ones(boxes.shape[0], dtype=np.bool_)
    for i in range(boxes.shape[0]):
        if keep[i]:
            keep[i + 1:] &= ~suppress[i, i + 1:]
    return keep
