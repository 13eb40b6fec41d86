"""Independent reference implementations used to cross-check the package.

Everything here favors clarity over speed: plain Python loops, pixel
masks, and per-prefix recomputation. None of it shares code with the
package internals it verifies.
"""

import math

import numpy as np

from saldet.core import iou
from saldet.model import init_params
from saldet.seeds import make_assignment


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


# ---------------------------------------------------------------------------
# the training step as separate per-layer passes: forward, each loss term,
# backward, in the float-operation order the package's step kernel keeps

_SAL_LOGIT_CAP = 36.0


def _finite(arr, layer):
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite activation in {layer}")


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_forward(params, features, config):
    """Activations of one forward pass as a dict, layer by layer.

    Raises ``FloatingPointError("non-finite activation in <layer>")`` at
    the first non-finite layer, and the range errors of the trace checks.
    """
    v = params.values
    x = np.asarray(features, dtype=np.float64)
    _finite(x, "input features")
    with np.errstate(over="ignore", invalid="ignore"):
        trunk_pre, trunk_act = [], [x]
        h = x
        for l in range(len(config.trunk_widths)):
            z = h @ v[f"trunk{l}.w"] + v[f"trunk{l}.b"]
            _finite(z, f"trunk layer {l}")
            trunk_pre.append(z)
            h = np.maximum(z, 0.0)
            trunk_act.append(h)
        sal_pre = sal_hidden = sal_logit = None
        if config.saliency_enabled:
            sal_pre = h @ v["sal_hidden.w"] + v["sal_hidden.b"]
            _finite(sal_pre, "saliency hidden layer")
            sal_hidden = np.maximum(sal_pre, 0.0)
            sal_logit = sal_hidden @ v["sal_out.w"] + v["sal_out.b"][0]
            _finite(sal_logit, "saliency output layer")
            sal_logit = np.clip(sal_logit, -_SAL_LOGIT_CAP, _SAL_LOGIT_CAP)
            p = _sigmoid(sal_logit)
        else:
            p = np.ones(x.shape[0])
        g = p[:, None] * h
        s_cls = g @ v["cls.w"] + v["cls.b"]
        _finite(s_cls, "classification stream")
        s_det = g @ v["det.w"] + v["det.b"]
        _finite(s_det, "detection stream")
        e_cls = np.exp(s_cls - s_cls.max(axis=1, keepdims=True))
        a = e_cls / e_cls.sum(axis=1, keepdims=True)
        e_det = np.exp(s_det - s_det.max(axis=0, keepdims=True))
        b = e_det / e_det.sum(axis=0, keepdims=True)
        phi = a * b
        tau = np.minimum(phi.sum(axis=0), 1.0)
    if config.saliency_enabled and (p.min() <= 0.0 or p.max() >= 1.0):
        raise FloatingPointError("saliency prediction left the open interval (0, 1)")
    if phi.min() < 0.0 or phi.max() > 1.0:
        raise FloatingPointError("score matrix left [0, 1]")
    if tau.min() < 0.0 or tau.max() > 1.0:
        raise FloatingPointError("image scores left [0, 1]")
    if np.abs(a.sum(axis=1) - 1.0).max() > 1e-6:
        raise FloatingPointError("classification softmax rows do not sum to 1")
    if np.abs(b.sum(axis=0) - 1.0).max() > 1e-6:
        raise FloatingPointError("detection softmax columns do not sum to 1")
    return dict(
        features=x, trunk_pre=trunk_pre, trunk_act=trunk_act, sal_pre=sal_pre,
        sal_hidden=sal_hidden, sal_logit=sal_logit, saliency=p, weighted=g,
        cls_softmax=a, det_softmax=b, scores=phi, image_scores=tau,
    )


def reference_step(params, features, labels_y, assignment, config):
    """(image_cls, seed_cls, seed_sal, l2, total) and the flat gradient of one step."""
    t = reference_forward(params, features, config)
    eps = 1e-8  # the model's clamp for log arguments
    # image classification loss
    y = np.asarray(labels_y, dtype=np.float64)
    arg = y * (t["image_scores"] - 0.5) + 0.5
    clamped = np.maximum(arg, eps)
    l_ic = float(-np.log(clamped).sum())
    d_tau = np.where(arg > eps, -y / clamped, 0.0)
    d_scores = np.broadcast_to(d_tau, t["scores"].shape).copy()
    # seed classification loss
    l_sc = 0.0
    if assignment is not None and config.lambda_seed_cls > 0:
        d_phi = np.zeros_like(t["scores"])
        for c, i in assignment.seeds:
            s = t["scores"][i, c]
            if s > eps:
                l_sc -= math.log(s)
                d_phi[i, c] -= 1.0 / s
            else:
                l_sc -= math.log(eps)
        d_scores += config.lambda_seed_cls * d_phi
    # seed saliency loss
    l_ss = 0.0
    d_sal = np.zeros_like(t["saliency"])
    sample = [i for _, i in assignment.seeds] + list(assignment.negatives) if assignment else []
    if config.saliency_enabled and config.lambda_seed_sal > 0 and sample:
        idx = np.asarray(sample, dtype=np.int64)
        targets = np.array([1.0] * len(assignment.seeds) + [0.0] * len(assignment.negatives))
        residual = t["saliency"][idx] - targets
        d_p = np.zeros_like(t["saliency"])
        np.add.at(d_p, idx, 2.0 * residual)
        l_ss = float(residual @ residual)
        d_sal = (config.lambda_seed_sal / 2.0) * d_p
    # L2 over the weights (the saliency branch's only when it is enabled)
    penalised = [
        name for name in params.values
        if name.endswith(".w") and (config.saliency_enabled or not name.startswith("sal_"))
    ]
    l2_end = sum(params.values[name].size for name in penalised)
    w = params.flat_values[:l2_end]
    l_reg = float(w @ w)
    total = (
        l_ic
        + config.lambda_seed_cls * l_sc
        + (config.lambda_seed_sal / 2.0) * l_ss
        + (config.lambda_l2 / 2.0) * l_reg
    )

    v = params.values
    grad = np.zeros(params.flat_values.size)
    gv = params.layout.views(grad)
    a, b = t["cls_softmax"], t["det_softmax"]
    d_a = d_scores * b
    d_b = d_scores * a
    d_s_cls = a * (d_a - (d_a * a).sum(axis=1, keepdims=True))
    d_s_det = b * (d_b - (d_b * b).sum(axis=0, keepdims=True))
    g = t["weighted"]
    np.matmul(g.T, d_s_cls, out=gv["cls.w"])
    d_s_cls.sum(axis=0, out=gv["cls.b"])
    np.matmul(g.T, d_s_det, out=gv["det.w"])
    d_s_det.sum(axis=0, out=gv["det.b"])
    d_g = d_s_cls @ v["cls.w"].T + d_s_det @ v["det.w"].T
    h = t["trunk_act"][-1]
    p = t["saliency"]
    d_h = d_g * p[:, None]
    if config.saliency_enabled:
        d_p = (d_g * h).sum(axis=1) + d_sal
        d_logit = d_p * p * (1.0 - p)
        np.matmul(t["sal_hidden"].T, d_logit, out=gv["sal_out.w"])
        gv["sal_out.b"][0] = d_logit.sum()
        d_u = np.outer(d_logit, v["sal_out.w"])
        d_z = d_u * (t["sal_pre"] > 0)
        np.matmul(h.T, d_z, out=gv["sal_hidden.w"])
        d_z.sum(axis=0, out=gv["sal_hidden.b"])
        d_h = d_h + d_z @ v["sal_hidden.w"].T
    for l in reversed(range(len(config.trunk_widths))):
        d_z = d_h * (t["trunk_pre"][l] > 0)
        np.matmul(t["trunk_act"][l].T, d_z, out=gv[f"trunk{l}.w"])
        d_z.sum(axis=0, out=gv[f"trunk{l}.b"])
        d_h = d_z @ v[f"trunk{l}.w"].T
    grad[:l2_end] += config.lambda_l2 * w
    return (l_ic, l_sc, l_ss, l_reg, total), grad


def reference_train(records, model_config, train_config):
    """What ``saldet.trainer.train`` must return: ``(params, epoch means)``.

    Each epoch shuffles the record order with the shuffle generator, which
    then draws each step's feature jitter (when asked). Per image a step
    is ``reference_step`` on the float64 features, then per tensor
    v <- momentum * v + g and w <- w - lr * v. The epoch means are the
    (image_cls, seed_cls, seed_sal, l2, total) terms summed in float64
    and divided by the record count. A non-finite activation raises
    ``reference_forward``'s FloatingPointError.
    """
    config = train_config.effective_model_config(model_config)
    seeded = config.lambda_seed_cls > 0 or (config.saliency_enabled and config.lambda_seed_sal > 0)
    assignments = {
        rec.id: make_assignment(rec, sigma=train_config.sigma) if seeded else None
        for rec in records
    }
    params = init_params(config, rng_seed=train_config.init_seed)
    rng = np.random.default_rng(train_config.shuffle_seed)
    order = np.arange(len(records))
    means = []
    for epoch in range(1, train_config.epochs + 1):
        lr = train_config.learning_rate(epoch)
        rng.shuffle(order)
        sums = np.zeros(5)
        for idx in order:
            rec = records[idx]
            features = np.asarray(rec.features, dtype=np.float64)
            if train_config.feature_jitter > 0:
                features = features + rng.normal(
                    0.0, train_config.feature_jitter, size=features.shape
                )
            losses, grad = reference_step(
                params, features, rec.labels.y, assignments[rec.id], config
            )
            for name, g in params.layout.views(grad).items():
                w, v = params.values[name], params.velocity[name]
                v *= train_config.momentum
                v += g
                w -= lr * v
            sums += losses
        means.append(tuple(sums / len(records)))
    return params, means


# ---------------------------------------------------------------------------
# the synthetic generator as first written: each object map from a pixel
# membership test (np.isin) and each placement test through a per-pair
# Chebyshev gap, drawing from the generator in the same order

_RANDOM_UNIONS_PER_IMAGE = 4
_OBJECT_SIDES = (2, 3)
_OBJECT_GAP = 2
_PLACEMENT_ATTEMPTS = 200


def reference_synthetic(cfg):
    """What ``saldet.dataio.generate_synthetic(cfg)`` must build, as one dict per record.

    Each holds the record's ``id``, ``proposals`` (sorted superpixel-id
    tuples), ``proposal_boxes`` (each union's pixel-mask box),
    ``features`` and ``saliency`` (float32, by class), ``labels`` (int8)
    and ``gt_boxes`` ((class, (x0, y0, x1, y1)) pairs).
    """
    rng = np.random.default_rng(cfg.seed)
    sp_side = math.isqrt(cfg.superpixels)
    block = cfg.grid_side // sp_side
    yy, xx = np.mgrid[0:cfg.grid_side, 0:cfg.grid_side]
    labels = ((yy // block) * sp_side + (xx // block)).astype(np.int32)
    return [_reference_image(cfg, rng, labels, sp_side, block, idx) for idx in range(cfg.images)]


def _reference_image(cfg, rng, labels, sp_side, block, idx):
    n_objects = int(rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1))
    classes = sorted(int(c) for c in rng.choice(cfg.classes, size=n_objects, replace=False))
    rects = _reference_place_objects(rng, sp_side, n_objects)

    obj_ids = []
    gt_boxes = []
    for (r0, c0, r1, c1), cls in zip(rects, classes):
        ids = [r * sp_side + c for r in range(r0, r1) for c in range(c0, c1)]
        obj_ids.append(ids)
        gt_boxes.append((cls, (c0 * block, r0 * block, c1 * block, r1 * block)))

    proposals_ids = [list(ids) for ids in obj_ids]
    proposals_ids.extend(_reference_part_of(rng, rect, sp_side) for rect in rects)
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

    saliency = {}
    for ids, cls in zip(obj_ids, classes):
        values = np.zeros((cfg.grid_side, cfg.grid_side), dtype=np.float64)
        values[np.isin(labels, ids)] = 1.0
        if cfg.noise_amplitude > 0:
            values += rng.uniform(
                -cfg.noise_amplitude, cfg.noise_amplitude, size=values.shape
            )
        saliency[cls] = np.maximum(values, 0.0).astype(np.float32)

    features = np.zeros((len(proposals_ids), cfg.feature_dim), dtype=np.float64)
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
            features[i, best_cls] = best_iou
    features += rng.normal(0.0, 1.0 / cfg.feature_snr, size=features.shape)

    y = np.full(cfg.classes, -1, dtype=np.int8)
    y[classes] = 1
    return dict(
        id=f"img_{idx:04d}",
        proposals=[tuple(sorted(ids)) for ids in proposals_ids],
        proposal_boxes=[_mask_box(np.isin(labels, ids)) for ids in proposals_ids],
        features=features.astype(np.float32),
        labels=y,
        saliency=saliency,
        gt_boxes=gt_boxes,
    )


def _mask_box(mask):
    """Half-open (x0, y0, x1, y1) of a nonempty boolean mask's pixels; what
    ``pixel_mask_box`` gives, without its per-pixel walk over 256x256 grids."""
    ys, xs = np.nonzero(mask)
    return int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1


def _reference_place_objects(rng, sp_side, n_objects):
    for attempt in range(_PLACEMENT_ATTEMPTS):
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


def _reference_part_of(rng, rect, sp_side):
    r0, c0, r1, c1 = rect
    h, w = r1 - r0, c1 - c0
    ph = max(1, math.ceil(h / 2)) if h > 1 else 1
    pw = max(1, math.ceil(w / 2)) if w > 1 else 1
    while ph * pw * 2 > h * w and (ph > 1 or pw > 1):
        if ph >= pw and ph > 1:
            ph -= 1
        else:
            pw -= 1
    corner = int(rng.integers(0, 4))
    rr0 = r0 if corner in (0, 1) else r1 - ph
    cc0 = c0 if corner in (0, 2) else c1 - pw
    return [r * sp_side + c for r in range(rr0, rr0 + ph) for c in range(cc0, cc0 + pw)]
