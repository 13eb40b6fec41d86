"""Context-aware seed selection from class-specific saliency maps.

For every labeled class the proposal with the highest area-weighted
saliency contrast (mean in-region saliency minus mean saliency of the
adjacent superpixels) becomes the class seed; an equal number of
negatives is mined from the proposals with the lowest in-region
saliency. Both picks read one scoring pass, ``proposal_scores``, and
``make_assignment`` runs the three steps. The scoring pass sums each
class map only over the pixels of the superpixels the proposals reach
(their members and the members' neighbours), under a tenth of a large
grid; the sums of the other superpixels would only meet zero weights,
so the scores have the bits of sums over every pixel. The simpler
map-thresholding baseline is provided for comparison: it merges touching
salient objects into one box, which is exactly the failure mode seed
selection avoids.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import _accel
from .core import Box, ImageRecord, _as_int

log = logging.getLogger(__name__)

# cap on area/sigma^2 before exponentiation; exp(64) is ~6e27, far beyond
# any meaningful contrast scale, so capping only guards float overflow
_EXP_ARG_CAP = 64.0


def _exp(arg: np.ndarray) -> np.ndarray:
    """libm's exp elementwise: numpy's vectorized exp can differ from it in
    the last bit, which would change reported contrasts from earlier releases."""
    flat = map(math.exp, arg.ravel().tolist())
    return np.fromiter(flat, np.float64, arg.size).reshape(arg.shape)


@dataclass(frozen=True)
class SeedAssignment:
    """Seeds and mined negatives of one image.

    ``seeds`` pairs each positive class (ascending) with its seed
    proposal index. ``sample_indices`` lists the seed indices followed by
    the negatives; ``targets`` aligns 1.0 / 0.0 with that order. Two
    classes may share a seed proposal, but negatives are always disjoint
    from every seed and from each other. Class ids and indices are stored
    as ints. Indices are >= 0; the training step checks them against the
    image's proposal count.
    """

    seeds: tuple[tuple[int, int], ...]  # (class_id, proposal_index)
    negatives: tuple[int, ...]

    def __post_init__(self):
        # plain ints, the usual input, need no check one by one
        if set(map(type, chain(*self.seeds, self.negatives))) != {int}:
            object.__setattr__(self, "seeds", tuple(
                (_as_int(c, "seeds class id"), _as_int(i, "seeds proposal index"))
                for c, i in self.seeds
            ))
            object.__setattr__(self, "negatives", tuple(
                _as_int(i, "negatives proposal index") for i in self.negatives
            ))
        classes = [c for c, _ in self.seeds]
        if classes != sorted(set(classes)):
            raise ValueError("seed classes must be unique and ascending")
        seed_set = {i for _, i in self.seeds}
        if seed_set & set(self.negatives):
            raise ValueError("negatives must be disjoint from seeds")
        if len(set(self.negatives)) != len(self.negatives):
            raise ValueError("negatives must be distinct")
        if len(self.negatives) > len(self.seeds):
            raise ValueError("more negatives than seeds")
        # a negative index would reach a proposal from the end of the list
        negative = [i for i in self.sample_indices if i < 0]
        if negative:
            raise ValueError(f"proposal index {negative[0]} is negative")

    @cached_property
    def sample_indices(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.seeds) + self.negatives

    @cached_property
    def targets(self) -> np.ndarray:
        """Built once per assignment and read-only, since it is shared."""
        targets = np.array(
            [1.0] * len(self.seeds) + [0.0] * len(self.negatives), dtype=np.float64
        )
        targets.flags.writeable = False
        return targets

    @cached_property
    def _sample_array(self) -> np.ndarray:
        """``sample_indices`` as a read-only int64 array, built once."""
        idx = np.array(self.sample_indices, dtype=np.int64)
        idx.flags.writeable = False
        return idx


# ---------------------------------------------------------------------------
# scoring

def proposal_scores(record: ImageRecord, sigma: float) -> dict[int, tuple]:
    """``(rs, ns, contrast)`` rows over all proposals, per positive class.

    The one scoring pass of seed selection: ``select_seeds`` and
    ``select_negatives`` both read its result. ``rs`` is the mean
    saliency inside each proposal; ``ns`` the mean saliency of its
    neighborhood, the superpixels adjacent to a member but not members
    themselves, or 0 when that neighborhood is empty. Members come from
    the record's ``proposal_members`` and neighbours from the grid's
    neighbour lists; areas are the members' pixel counts summed.

    Each class map is summed only over the pixels of the superpixels some
    proposal reaches, as a member or a member's neighbour, gathered from
    the grid's ``pixel_order``. The result has the same bits as sums over
    every pixel: each reached superpixel's pixels are still added in scan
    order from 0.0, and an unreached one, whose sum is left at 0.0 instead
    of some finite x >= 0, meets only zero entries of the member and
    neighbourhood matrices, where both give the same +0 product.
    """
    grid = record.grid
    n_sp = grid.n_superpixels
    rows, ids = record.proposal_members
    member = np.zeros((record.num_proposals, n_sp))
    member[rows, ids] = 1.0
    offsets, neighbor_ids = grid.neighbors
    # one gather over the neighbour lists of every (proposal, member)
    # pair: entry j of a list sits at its start plus j
    start = offsets[ids]
    count = offsets[ids + 1] - start
    at = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    around = neighbor_ids[at]
    near = np.zeros(member.shape)
    near[np.repeat(rows, count), around] = 1.0
    near[rows, ids] = 0.0  # members are not their own neighbourhood
    # the superpixels some proposal reaches, and their pixels in id order
    reached = np.zeros(n_sp, dtype=np.bool_)
    reached[ids] = True
    reached[around] = True
    counts = grid.pixel_counts
    pixels = grid.pixel_order[np.repeat(reached, counts)]
    reached = np.flatnonzero(reached)
    pixel_ids = np.repeat(reached, counts[reached])
    # class sums (C, n_sp), rows following record.labels.positives
    sums = np.array([
        _accel.superpixel_sums(pixel_ids, record.saliency[c].values.ravel().take(pixels), n_sp)
        for c in record.labels.positives
    ])
    # pixel counts are exact in float64, so casting them once changes no sum
    px = counts.astype(np.float64)
    area = member @ px
    rs = sums @ member.T / area
    near_px = near @ px
    ns = np.divide(sums @ near.T, near_px, out=np.zeros_like(rs), where=near_px > 0)
    contrast = saliency_contrast(rs, ns, area, sigma)
    return {
        c: (rs[k], ns[k], contrast[k])
        for k, c in enumerate(record.labels.positives)
    }


def check_sigma(sigma: float) -> None:
    """Raise ValueError unless the contrast's area scale is positive and finite."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def saliency_contrast(rs, ns, area_px, sigma: float):
    """Area-weighted contrast exp(area/sigma^2) * (rs - ns), elementwise."""
    check_sigma(sigma)
    arg = np.asarray(area_px, dtype=np.float64) / (sigma * sigma)
    if (arg > _EXP_ARG_CAP).any():
        log.warning(
            "capping exp argument area/sigma^2 = %.3g at %g", np.max(arg), _EXP_ARG_CAP
        )
        arg = np.minimum(arg, _EXP_ARG_CAP)
    return _exp(arg) * (rs - ns)


def select_seeds(scores: dict[int, tuple]) -> dict[int, int]:
    """Pick the highest-contrast proposal per positive class.

    ``scores`` is ``proposal_scores`` of the record; the result maps each
    class to its seed proposal index. Ties break toward the lowest index.
    """
    # argmax returns the first (lowest) index on ties
    return {c: int(np.argmax(contrast)) for c, (_, _, contrast) in scores.items()}


def select_negatives(
    record: ImageRecord, seeds: dict[int, int], scores: dict[int, tuple]
) -> SeedAssignment:
    """Mine one lowest-region-saliency negative per positive class.

    ``seeds`` is ``select_seeds(scores)`` and ``scores`` the same
    ``proposal_scores`` of the record; only its ``rs`` rows are read.
    Classes are processed in ascending order; every pick excludes all
    seeds and previously mined negatives, so negatives stay disjoint.
    When the image has too few proposals the negative list is truncated
    with a warning.
    """
    used = set(seeds.values())
    negatives = []
    n_props = record.num_proposals
    for c in sorted(seeds):
        blocked = used | set(negatives)
        if len(blocked) >= n_props:
            log.warning(
                "record %s: only %d proposals for %d samples; negatives truncated",
                record.id, n_props, 2 * len(seeds),
            )
            break
        masked = scores[c][0].copy()
        masked[list(blocked)] = np.inf
        negatives.append(int(np.argmin(masked)))
    seed_items = tuple((c, seeds[c]) for c in sorted(seeds))
    return SeedAssignment(seeds=seed_items, negatives=tuple(negatives))


def make_assignment(record: ImageRecord, sigma: float) -> SeedAssignment:
    """Seed selection followed by negative mining, as one call.

    Both read one ``proposal_scores`` of the record.
    """
    scores = proposal_scores(record, sigma)
    return select_negatives(record, select_seeds(scores), scores)


# ---------------------------------------------------------------------------
# thresholding baseline

def check_theta(theta: float) -> None:
    """Raise ValueError unless the baseline's peak fraction is in (0, 1)."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must be in (0, 1)")


def threshold_baseline(smap, theta: float = 0.5) -> list[Box]:
    """Boxes of the 4-connected components above ``theta * max(map)``.

    The comparator for seed selection: each component's minimum
    enclosing rectangle, in scan order. An all-zero map yields no boxes.

    Each float32 value is compared with the float64 threshold, without a
    float64 copy of the map: a float32 value reaches the threshold exactly
    when it reaches the least float32 that is not below it. Components
    are labelled only on the crop bounded by the first and last rows and
    columns above the threshold; scan order inside the crop is scan order
    on the map, so the boxes, shifted by the crop's corner, are the same.
    """
    check_theta(theta)
    values = np.asarray(smap.values, dtype=np.float32)
    peak = float(values.max())
    if peak <= 0.0:
        return []
    threshold = theta * peak
    cut = np.float32(threshold)
    if float(cut) < threshold:
        cut = np.nextafter(cut, np.float32(np.inf))
    mask = values >= cut
    rows = np.flatnonzero(mask.any(axis=1))
    y0, y1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(mask[y0:y1].any(axis=0))
    x0, x1 = int(cols[0]), int(cols[-1]) + 1
    comp, count = _accel.connected_components(mask[y0:y1, x0:x1])
    boxes = _accel.label_boxes(_accel.label_pixels(comp, count), x1 - x0) + (x0, y0, x0, y0)
    return [Box(*row) for row in boxes.tolist()]
