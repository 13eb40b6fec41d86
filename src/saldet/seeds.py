"""Context-aware seed selection from class-specific saliency maps.

For every labeled class the proposal with the highest area-weighted
saliency contrast (mean in-region saliency minus mean saliency of the
adjacent superpixels) becomes the class seed; an equal number of
negatives is mined from the proposals with the lowest in-region
saliency. The simpler map-thresholding baseline is provided for
comparison: it merges touching salient objects into one box, which is
exactly the failure mode seed selection avoids.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .core import Box, ImageRecord, adjacency

log = logging.getLogger(__name__)

# cap on area/sigma^2 before exponentiation; exp(64) is ~6e27, far beyond
# any meaningful contrast scale, so capping only guards float overflow
_EXP_ARG_CAP = 64.0

# libm's exp elementwise: numpy's vectorized exp can differ from it in the
# last bit, which would change reported contrasts from earlier releases
_exp = np.vectorize(math.exp, otypes=[np.float64])


@dataclass(frozen=True)
class SeedScore:
    """Contrast score of one proposal for one class."""

    proposal_index: int
    class_id: int
    rs: float        # mean saliency inside the proposal
    ns: float        # mean saliency of the adjacent superpixels
    contrast: float  # exp(area/sigma^2) * (rs - ns)


@dataclass(frozen=True)
class SeedAssignment:
    """Seeds and mined negatives of one image.

    ``seeds`` pairs each positive class (ascending) with its seed
    proposal index. ``sample_indices`` lists the seed indices followed by
    the negatives; ``targets`` aligns 1.0 / 0.0 with that order. Two
    classes may share a seed proposal, but negatives are always disjoint
    from every seed and from each other.
    """

    seeds: tuple[tuple[int, int], ...]  # (class_id, proposal_index)
    negatives: tuple[int, ...]

    def __post_init__(self):
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

    @property
    def seed_for(self) -> dict[int, int]:
        return dict(self.seeds)

    @property
    def sample_indices(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.seeds) + self.negatives

    @property
    def targets(self) -> np.ndarray:
        return np.array(
            [1.0] * len(self.seeds) + [0.0] * len(self.negatives), dtype=np.float64
        )


# ---------------------------------------------------------------------------
# scoring

def _region_terms(record: ImageRecord):
    """Membership (P, n_sp), class sums (C, n_sp), areas and region saliency (C, P).

    Rows of the class sums and of ``rs`` follow ``record.labels.positives``.
    """
    grid = record.grid
    n_sp = grid.n_superpixels
    member = np.zeros((record.num_proposals, n_sp))
    for k, prop in enumerate(record.proposals):
        member[k, list(prop.superpixel_ids)] = 1.0
    sums = np.stack([
        _accel.superpixel_sums(
            grid.labels, np.asarray(record.saliency[c].values, dtype=np.float64), n_sp
        )
        for c in record.labels.positives
    ])
    area = np.array([p.area_px for p in record.proposals], dtype=np.float64)
    return member, sums, area, sums @ member.T / area


def proposal_scores(record: ImageRecord, sigma: float) -> dict[int, tuple]:
    """``(rs, ns, contrast)`` rows over all proposals, per positive class.

    ``rs`` is the mean saliency inside each proposal; ``ns`` the mean
    saliency of its neighborhood, the superpixels adjacent to a member
    but not members themselves, or 0 when that neighborhood is empty.
    """
    member, sums, area, rs = _region_terms(record)
    grid = record.grid
    # only superpixels some proposal uses can put a neighbor into a row
    used = member.any(axis=0)
    touched = member[:, used] @ adjacency(grid)[used]
    near = ((touched > 0) & (member == 0)).astype(np.float64)
    near_px = near @ _accel.superpixel_counts(grid.labels, grid.n_superpixels)
    ns = np.divide(sums @ near.T, near_px, out=np.zeros_like(rs), where=near_px > 0)
    contrast = saliency_contrast(rs, ns, area, sigma)
    return {
        c: (rs[k], ns[k], contrast[k])
        for k, c in enumerate(record.labels.positives)
    }


def saliency_contrast(rs, ns, area_px, sigma: float):
    """Area-weighted contrast exp(area/sigma^2) * (rs - ns), elementwise."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    arg = np.asarray(area_px, dtype=np.float64) / (sigma * sigma)
    if np.any(arg > _EXP_ARG_CAP):
        log.warning(
            "capping exp argument area/sigma^2 = %.3g at %g", np.max(arg), _EXP_ARG_CAP
        )
        arg = np.minimum(arg, _EXP_ARG_CAP)
    return _exp(arg) * (rs - ns)


def select_seeds(record: ImageRecord, sigma: float) -> dict[int, SeedScore]:
    """Pick the highest-contrast proposal per positive class.

    Ties break toward the lowest proposal index.
    """
    chosen = {}
    for c, (rs, ns, sc) in proposal_scores(record, sigma).items():
        i = int(np.argmax(sc))  # argmax returns the first (lowest) index on ties
        chosen[c] = SeedScore(
            proposal_index=i, class_id=c, rs=float(rs[i]), ns=float(ns[i]),
            contrast=float(sc[i]),
        )
    return chosen


def select_negatives(record: ImageRecord, seeds: dict[int, SeedScore]) -> SeedAssignment:
    """Mine one lowest-region-saliency negative per positive class.

    Classes are processed in ascending order; every pick excludes all
    seeds and previously mined negatives, so negatives stay disjoint.
    When the image has too few proposals the negative list is truncated
    with a warning.
    """
    *_, rs = _region_terms(record)
    row = {c: k for k, c in enumerate(record.labels.positives)}
    used = {score.proposal_index for score in seeds.values()}
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
        masked = rs[row[c]].copy()
        masked[list(blocked)] = np.inf
        negatives.append(int(np.argmin(masked)))
    seed_items = tuple((c, seeds[c].proposal_index) for c in sorted(seeds))
    return SeedAssignment(seeds=seed_items, negatives=tuple(negatives))


def make_assignment(record: ImageRecord, sigma: float) -> SeedAssignment:
    """Seed selection followed by negative mining, as one call."""
    return select_negatives(record, select_seeds(record, sigma))


# ---------------------------------------------------------------------------
# thresholding baseline

def threshold_baseline(smap, theta: float = 0.5) -> list[Box]:
    """Boxes of the 4-connected components above ``theta * max(map)``.

    The comparator for seed selection: each component's minimum
    enclosing rectangle, in scan order. An all-zero map yields no boxes.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must be in (0, 1)")
    values = np.asarray(smap.values, dtype=np.float64)
    peak = values.max()
    if peak <= 0.0:
        return []
    mask = values >= theta * peak
    comp, count = _accel.connected_components(mask)
    boxes = []
    for label in range(count):
        ys, xs = np.nonzero(comp == label)
        boxes.append(Box(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1))
    return boxes
