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
    """
    h, w = mask.shape
    out = np.full((h, w), -1, dtype=np.int32)
    count = 0
    for i in range(h):
        for j in range(w):
            if mask[i, j] and out[i, j] < 0:
                stack = [(i, j)]
                out[i, j] = count
                while stack:
                    y, x = stack.pop()
                    if y > 0 and mask[y - 1, x] and out[y - 1, x] < 0:
                        out[y - 1, x] = count
                        stack.append((y - 1, x))
                    if y + 1 < h and mask[y + 1, x] and out[y + 1, x] < 0:
                        out[y + 1, x] = count
                        stack.append((y + 1, x))
                    if x > 0 and mask[y, x - 1] and out[y, x - 1] < 0:
                        out[y, x - 1] = count
                        stack.append((y, x - 1))
                    if x + 1 < w and mask[y, x + 1] and out[y, x + 1] < 0:
                        out[y, x + 1] = count
                        stack.append((y, x + 1))
                count += 1
    return out, count


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
