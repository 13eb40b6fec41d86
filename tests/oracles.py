"""Independent reference implementations used to cross-check the package.

Everything here favors clarity over speed: plain Python loops, pixel
masks, and per-prefix recomputation. None of it shares code with the
package internals it verifies.
"""

import numpy as np

from saldet.core import iou


def pixel_adjacency(labels, n_sp):
    """4-connectivity superpixel adjacency by scanning every pixel pair."""
    h, w = labels.shape
    adj = np.zeros((n_sp, n_sp), dtype=bool)
    for y in range(h):
        for x in range(w):
            a = labels[y, x]
            if x + 1 < w and labels[y, x + 1] != a:
                adj[a, labels[y, x + 1]] = adj[labels[y, x + 1], a] = True
            if y + 1 < h and labels[y + 1, x] != a:
                adj[a, labels[y + 1, x]] = adj[labels[y + 1, x], a] = True
    return adj


def pixel_mask_box(mask):
    """Half-open box (x0, y0, x1, y1) and pixel count of a boolean mask,
    by visiting every pixel; ((0, 0, 0, 0), 0) when the mask is empty."""
    h, w = mask.shape
    xs, ys = [], []
    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                xs.append(x)
                ys.append(y)
    if not xs:
        return (0, 0, 0, 0), 0
    return (min(xs), min(ys), max(xs) + 1, max(ys) + 1), len(xs)


def bfs_components(mask):
    """4-connected components by breadth-first search, scan-order ids."""
    h, w = mask.shape
    out = np.full((h, w), -1, dtype=np.int64)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or out[sy, sx] >= 0:
                continue
            queue = [(sy, sx)]
            out[sy, sx] = count
            while queue:
                y, x = queue.pop(0)
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and out[ny, nx] < 0:
                        out[ny, nx] = count
                        queue.append((ny, nx))
            count += 1
    return out, count


def quadratic_nms(items, threshold):
    """O(n^2) greedy suppression; items are (box, score, index) tuples."""
    order = sorted(items, key=lambda t: (-t[1], t[2]))
    kept = []
    for box, score, idx in order:
        if all(iou(box, kb) < threshold for kb, _, _ in kept):
            kept.append((box, score, idx))
    return kept


def pixel_seed_scores(record, sigma):
    """Per-class RS/NS/contrast from raw pixel masks, no shared helpers."""
    labels = record.grid.labels
    n_sp = int(labels.max()) + 1
    member_masks = [labels == s for s in range(n_sp)]
    adj = pixel_adjacency(labels, n_sp)

    out = {}
    for c in record.labels.positives:
        values = record.saliency[c].values.astype(np.float64)
        per_class = []
        for prop in record.proposals:
            members = set(prop.superpixel_ids)
            region = np.zeros_like(labels, dtype=bool)
            for s in members:
                region |= member_masks[s]
            rs = float(values[region].mean())
            neighbors = set()
            for s in members:
                for t in range(n_sp):
                    if adj[s, t] and t not in members:
                        neighbors.add(t)
            if neighbors:
                nb_mask = np.zeros_like(labels, dtype=bool)
                for t in sorted(neighbors):
                    nb_mask |= member_masks[t]
                ns = float(values[nb_mask].mean())
            else:
                ns = 0.0
            area = int(region.sum())
            contrast = float(np.exp(min(area / (sigma * sigma), 64.0)) * (rs - ns))
            per_class.append((rs, ns, contrast))
        out[c] = per_class
    return out


def pixel_select_seeds(record, sigma):
    """argmax contrast per positive class, first index on ties."""
    scores = pixel_seed_scores(record, sigma)
    seeds = {}
    for c, per_class in scores.items():
        contrasts = [t[2] for t in per_class]
        best = max(range(len(contrasts)), key=lambda i: (contrasts[i], -i))
        seeds[c] = best
    return seeds


def pixel_select_negatives(record, seeds, sigma):
    """Lowest-RS unused proposal per positive class, ascending class order."""
    scores = pixel_seed_scores(record, sigma)
    blocked = set(seeds.values())
    negatives = []
    for c in sorted(seeds):
        candidates = [
            (scores[c][i][0], i)
            for i in range(len(record.proposals))
            if i not in blocked
        ]
        if not candidates:
            break
        _, pick = min(candidates)
        negatives.append(pick)
        blocked.add(pick)
    return negatives


def prefix_ap(flags, num_positive, eleven_point=False):
    """AP by recomputing precision/recall at every prefix length.

    ``flags`` is the TP/FP sequence in descending score order. The
    continuous form sums, over prefixes that add a true positive, the
    recall gain times the best precision at or after that prefix.
    """
    n = len(flags)
    points = []
    for k in range(1, n + 1):
        tp = sum(1 for f in flags[:k] if f)
        points.append((tp / num_positive, tp / k))
    if eleven_point:
        total = 0.0
        for t in [i / 10 for i in range(11)]:
            best = [p for r, p in points if r >= t - 1e-12]
            total += max(best) if best else 0.0
        return total / 11.0
    total = 0.0
    prev_recall = 0.0
    for k, (recall, _) in enumerate(points):
        if recall > prev_recall:
            best_later = max(p for r, p in points[k:])
            total += (recall - prev_recall) * best_later
            prev_recall = recall
    return total


def pixel_iou(a, b):
    """IoU by rasterizing both boxes and counting pixels."""
    h = max(a.y1, b.y1)
    w = max(a.x1, b.x1)
    ma = np.zeros((h, w), dtype=bool)
    mb = np.zeros((h, w), dtype=bool)
    ma[a.y0:a.y1, a.x0:a.x1] = True
    mb[b.y0:b.y1, b.x0:b.x1] = True
    return float((ma & mb).sum() / (ma | mb).sum())


def naive_detection_ap(detections, records, iou_threshold=0.5, eleven_point=False):
    """Per-class AP from pixel-mask IoU matching and per-prefix AP."""
    gt_classes = {c for r in records for c, _ in r.gt_boxes}
    by_id = {r.id: r for r in records}
    result = {}
    for c in sorted(gt_classes):
        ordered = sorted(
            (d for d in detections if d.class_id == c),
            key=lambda d: (-d.score, d.image_id, d.proposal_index),
        )
        n_gt = sum(1 for r in records for cc, _ in r.gt_boxes if cc == c)
        taken = {}
        flags = []
        for d in ordered:
            boxes = [b for cc, b in by_id[d.image_id].gt_boxes if cc == c]
            used = taken.setdefault(d.image_id, set())
            best, best_j = 0.0, -1
            for j, box in enumerate(boxes):
                if j in used:
                    continue
                v = pixel_iou(d.bbox, box)
                if v > best:
                    best, best_j = v, j
            if best_j >= 0 and best >= iou_threshold:
                used.add(best_j)
                flags.append(True)
            else:
                flags.append(False)
        result[c] = prefix_ap(flags, n_gt, eleven_point)
    return result


def naive_corloc(detections, records, iou_threshold=0.5):
    """Per-class hit fraction from a plain max scan and pixel-mask IoU."""
    hits = {}
    for rec in records:
        for c in rec.labels.positives:
            cands = [
                d for d in detections
                if d.image_id == rec.id and d.class_id == c
            ]
            ok = False
            if cands:
                best = max(cands, key=lambda d: (d.score, -d.proposal_index))
                ok = any(
                    pixel_iou(best.bbox, b) >= iou_threshold
                    for cc, b in rec.gt_boxes
                    if cc == c
                )
            hits.setdefault(c, []).append(ok)
    return {c: sum(v) / len(v) for c, v in sorted(hits.items())}


def match_detections(dets, gt_boxes, iou_threshold):
    """Greedy matching: each detection takes the best unmatched GT box.

    ``dets`` must already be in descending score order; returns TP flags.
    """
    taken = set()
    flags = []
    for det in dets:
        best, best_j = 0.0, -1
        for j, box in enumerate(gt_boxes):
            if j in taken:
                continue
            v = iou(det, box)
            if v > best:
                best, best_j = v, j
        if best_j >= 0 and best >= iou_threshold:
            taken.add(best_j)
            flags.append(True)
        else:
            flags.append(False)
    return flags
