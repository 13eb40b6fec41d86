"""The grid and box kernels against independent oracles and edge cases."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.ndimage

from oracles import bfs_components, pixel_adjacency, pixel_mask_box, quadratic_nms
from saldet import _accel
from saldet.core import Box, iou


def random_labels(rng, h, w, n_sp):
    return rng.integers(0, n_sp, size=(h, w)).astype(np.int32)


def oracle_keep(boxes, threshold):
    """Keep mask of the quadratic oracle, for boxes already in priority order."""
    items = [(Box(*map(int, b)), -float(i), i) for i, b in enumerate(boxes)]
    kept = {idx for _, _, idx in quadratic_nms(items, threshold)}
    return np.array([i in kept for i in range(len(boxes))])


def scipy_components(mask):
    """4-connected components from scipy, background -1 and ids from 0."""
    four = scipy.ndimage.generate_binary_structure(2, 1)
    labeled, count = scipy.ndimage.label(mask, structure=four)
    return labeled.astype(np.int64) - 1, count


def assert_components_match_oracles(mask):
    """Labels and count of the kernel equal both the BFS and the scipy oracle's."""
    got_l, got_n = _accel.connected_components(mask)
    assert got_l.shape == mask.shape
    for want_l, want_n in (bfs_components(mask), scipy_components(mask)):
        assert got_n == want_n
        np.testing.assert_array_equal(got_l, want_l)
    return got_n


def spiral_mask(side):
    """Square rings two pixels apart, each joined to the next ring inside."""
    mask = np.zeros((side, side), dtype=bool)
    lo, hi = 0, side - 1
    while lo <= hi:
        mask[lo, lo:hi + 1] = True
        mask[lo:hi + 1, hi] = True
        if lo + 2 <= hi:
            mask[hi, lo:hi + 1] = True
            mask[lo + 2:hi + 1, lo] = True
        lo, hi = lo + 2, hi - 2
        if lo <= hi:
            mask[lo, lo - 2:lo] = True
    return mask


class TestPathParity:
    """Each kernel against an independent oracle on random inputs."""

    def test_adjacency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            n_sp = int(rng.integers(2, 12))
            labels = random_labels(rng, h, w, n_sp)
            np.testing.assert_array_equal(
                _accel.adjacency_matrix(labels, n_sp), pixel_adjacency(labels, n_sp)
            )

    def test_superpixel_reductions(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            n_sp = int(rng.integers(2, 12))
            labels = random_labels(rng, h, w, n_sp)
            values = rng.normal(size=(h, w))
            sums, counts = np.zeros(n_sp), np.zeros(n_sp, dtype=np.int64)
            for i in range(h):
                for j in range(w):
                    sums[labels[i, j]] += values[i, j]
                    counts[labels[i, j]] += 1
            np.testing.assert_allclose(
                _accel.superpixel_sums(labels, values, n_sp), sums, rtol=1e-12
            )
            np.testing.assert_array_equal(_accel.superpixel_counts(labels, n_sp), counts)

    def test_label_boxes(self):
        """Negative labels are ignored; labels may be disconnected."""
        rng = np.random.default_rng(4)
        for _ in range(60):
            h, w = int(rng.integers(1, 24)), int(rng.integers(1, 24))
            n = int(rng.integers(0, min(h * w, 10) + 1))
            labels = rng.integers(-2, max(n, 1), size=(h, w)).astype(np.int32)
            # every label in [0, n) occurs
            labels.ravel()[rng.permutation(h * w)[:n]] = np.arange(n)
            want = np.array(
                [pixel_mask_box(labels == k)[0] for k in range(n)], dtype=np.int64
            ).reshape(n, 4)
            got = _accel.label_boxes(_accel.label_pixels(labels, n), w)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_connected_components(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, w = int(rng.integers(2, 24)), int(rng.integers(2, 24))
            mask = rng.random((h, w)) < 0.55
            got_l, got_n = _accel.connected_components(mask)
            want_l, want_n = bfs_components(mask)
            assert got_n == want_n
            np.testing.assert_array_equal(got_l, want_l)

    def test_nms_keep(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 40))
            x0 = rng.integers(0, 20, size=m)
            y0 = rng.integers(0, 20, size=m)
            boxes = np.stack(
                [x0, y0, x0 + rng.integers(1, 10, size=m),
                 y0 + rng.integers(1, 10, size=m)], axis=1
            ).astype(np.int64)
            for threshold in (float(rng.uniform(0.2, 0.8)), 0.99):
                np.testing.assert_array_equal(
                    _accel.nms_keep(boxes, threshold), oracle_keep(boxes, threshold)
                )

    @pytest.mark.parametrize("batch", [1, 7, 64, 300])
    def test_nms_keep_in_row_tiles(self, monkeypatch, batch):
        # a small IoU batch puts each image past it, so its pairs are
        # searched in tiles of rows; the keep mask is the oracle's
        monkeypatch.setattr(_accel, "_IOU_BATCH", batch)
        rng = np.random.default_rng(batch)
        for _ in range(10):
            m = int(rng.integers(2, 60))
            x0 = rng.integers(0, 20, size=m)
            y0 = rng.integers(0, 20, size=m)
            boxes = np.stack(
                [x0, y0, x0 + rng.integers(1, 10, size=m),
                 y0 + rng.integers(1, 10, size=m)], axis=1
            ).astype(np.int64)
            boxes[m // 2] = boxes[0]  # identical boxes, in different tiles
            for threshold in (1e-9, float(rng.uniform(0.2, 0.8)), 0.99):
                np.testing.assert_array_equal(
                    _accel.nms_keep(boxes, threshold), oracle_keep(boxes, threshold)
                )

    def test_nms_keep_orders_each_group_by_its_scores(self):
        # per group: higher score first, equal scores by lower row, NaN
        # rows absent; each group's mask is the oracle's over its rows
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(1, 40))
            x0, y0 = rng.integers(0, 20, size=(2, m))
            boxes = np.stack(
                [x0, y0, x0 + rng.integers(1, 10, size=m), y0 + rng.integers(1, 10, size=m)],
                axis=1,
            ).astype(np.int64)
            score = rng.integers(0, 4, size=(3, m)) / 3
            score[rng.random((3, m)) < 0.2] = np.nan
            threshold = float(rng.uniform(0.2, 0.8))
            keep = _accel.nms_keep(boxes, threshold, [m], score)
            for g in range(3):
                rows = np.flatnonzero(~np.isnan(score[g]))
                rows = rows[np.lexsort((rows, -score[g, rows]))]
                want = np.zeros(m, dtype=bool)
                want[rows] = oracle_keep(boxes[rows], threshold)
                np.testing.assert_array_equal(keep[g], want)

    def test_nms_keep_memory_of_one_large_image(self):
        """2000 boxes, about a VOC image's proposals: the pair search runs
        in row tiles, not on 2000 x 2000 temporaries (~76 MiB)."""
        rng = np.random.default_rng(8)
        m = 2000
        x0, y0 = rng.integers(0, 500, size=(2, m))
        boxes = np.stack(
            [x0, y0, x0 + rng.integers(1, 100, size=m), y0 + rng.integers(1, 100, size=m)],
            axis=1,
        ).astype(np.int64)
        tracemalloc.start()
        try:
            keep = _accel.nms_keep(boxes, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert 0 < keep.sum() < m

    def test_nms_keep_touching_boxes(self):
        # edge- and corner-sharing boxes have IoU 0 and never suppress
        boxes = np.array(
            [[0, 0, 4, 4], [4, 0, 8, 4], [0, 4, 4, 8], [4, 4, 8, 8], [1, 1, 5, 5]],
            dtype=np.int64,
        )
        for threshold in (1e-9, 0.1, 0.99):
            keep = _accel.nms_keep(boxes, threshold)
            np.testing.assert_array_equal(keep, oracle_keep(boxes, threshold))
            assert keep[:4].all()


class TestAgainstOracles:
    def test_components_match_bfs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mask = rng.random((12, 15)) < 0.5
            got_l, got_n = _accel.connected_components(mask)
            want_l, want_n = bfs_components(mask)
            assert got_n == want_n
            np.testing.assert_array_equal(got_l, want_l)

    def test_components_match_bfs_at_256(self):
        mask = np.random.default_rng(7).random((256, 256)) < 0.55
        got_l, got_n = _accel.connected_components(mask)
        want_l, want_n = bfs_components(mask)
        assert got_n == want_n
        np.testing.assert_array_equal(got_l, want_l)

    @pytest.mark.parametrize("side", [15, 64, 256])
    def test_spiral_is_one_component(self, side):
        # a one-pixel corridor winding inward: the longest path a mask of
        # this size can force label propagation to cover
        mask = spiral_mask(side)
        got_l, got_n = _accel.connected_components(mask)
        want_l, want_n = bfs_components(mask)
        assert got_n == want_n == 1
        np.testing.assert_array_equal(got_l, want_l)
        # a one-pixel cut splits it into two components, still in scan order
        ys, xs = np.nonzero(mask)
        mask[ys[len(ys) // 2], xs[len(xs) // 2]] = False
        got_l, got_n = _accel.connected_components(mask)
        want_l, want_n = bfs_components(mask)
        assert got_n == want_n
        np.testing.assert_array_equal(got_l, want_l)

    def test_sums_match_python_loop(self):
        rng = np.random.default_rng(6)
        labels = random_labels(rng, 9, 7, 5)
        values = rng.normal(size=(9, 7))
        want = np.zeros(5)
        for i in range(9):
            for j in range(7):
                want[labels[i, j]] += values[i, j]
        np.testing.assert_allclose(
            _accel.superpixel_sums(labels, values, 5), want, rtol=1e-12
        )


class TestSparseMasks:
    """Masks that are mostly background, as thresholded saliency maps are."""

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.05])
    def test_random_masks(self, density):
        rng = np.random.default_rng(8)
        for shape in [(1, 1), (2, 3), (7, 19), (24, 24), (64, 40), (256, 256)]:
            mask = rng.random(shape) < density
            assert assert_components_match_oracles(mask) <= mask.sum()

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 8), (9, 4)])
    def test_single_pixel_corners(self, shape):
        h, w = shape
        mask = np.zeros(shape, dtype=bool)
        mask[[0, 0, h - 1, h - 1], [0, w - 1, 0, w - 1]] = True
        count = assert_components_match_oracles(mask)
        assert count == (1 if shape == (2, 2) else 4)
        if count == 4:
            # ids follow scan order of the corners
            labels, _ = _accel.connected_components(mask)
            np.testing.assert_array_equal(
                labels[[0, 0, h - 1, h - 1], [0, w - 1, 0, w - 1]], [0, 1, 2, 3]
            )

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_one_row_and_one_column(self, n):
        rng = np.random.default_rng(n)
        for line in (
            np.ones(n, dtype=bool),
            np.arange(n) % 2 == 0,
            rng.random(n) < 0.05,
            rng.random(n) < 0.5,
        ):
            assert_components_match_oracles(line[None, :])
            assert_components_match_oracles(line[:, None])

    def test_planted_rectangles_at_256(self):
        mask = np.zeros((256, 256), dtype=bool)
        # edge contacts join rectangles; a corner contact alone does not
        mask[10:30, 10:40] = True     # A
        mask[30:50, 20:35] = True     # B: shares A's bottom edge
        mask[50:60, 35:45] = True     # C: touches B only at a corner
        mask[0:5, 40:60] = True       # D: touches A only at a corner
        mask[100:120, 100:101] = True  # E: one-pixel column
        mask[120:121, 101:130] = True  # F: touches E only at a corner
        mask[255:256, 0:256] = True   # G: the whole last row
        mask[200:255, 255:256] = True  # H: shares G's edge at the right border
        assert assert_components_match_oracles(mask) == 6
        rng = np.random.default_rng(9)
        for _ in range(60):
            y, x = rng.integers(0, 250, size=2)
            hh, ww = rng.integers(1, 12, size=2)
            mask[y:y + hh, x:x + ww] = True
        assert mask.mean() < 0.2
        assert_components_match_oracles(mask)

    def test_label_boxes_mostly_background(self):
        rng = np.random.default_rng(10)
        for n in (1, 3, 7):
            labels = np.full((64, 48), -1, dtype=np.int32)
            pixels = rng.permutation(labels.size)[:20 * n]
            labels.ravel()[pixels] = np.arange(pixels.size) % n
            assert (labels < 0).mean() > 0.95
            want = np.array([pixel_mask_box(labels == k)[0] for k in range(n)])
            np.testing.assert_array_equal(
                _accel.label_boxes(_accel.label_pixels(labels, n), 48), want
            )

    def test_label_boxes_one_label(self):
        for labels in (
            np.zeros((1, 1), dtype=np.int32),
            np.zeros((3, 5), dtype=np.int32),
            np.array([[-1, -1, -1], [-1, 0, -1], [0, -1, -1]], dtype=np.int32),
        ):
            want = np.array([pixel_mask_box(labels == 0)[0]])
            got = _accel.label_boxes(_accel.label_pixels(labels, 1), labels.shape[1])
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestEdgeCases:
    def test_empty_mask(self):
        labels, count = _accel.connected_components(np.zeros((4, 4), dtype=bool))
        assert count == 0
        np.testing.assert_array_equal(labels, -1)

    def test_full_mask_is_one_component(self):
        labels, count = _accel.connected_components(np.ones((4, 6), dtype=bool))
        assert count == 1
        np.testing.assert_array_equal(labels, 0)

    def test_single_box_kept(self):
        keep = _accel.nms_keep(np.array([[0, 0, 4, 4]], dtype=np.int64), 0.5)
        np.testing.assert_array_equal(keep, [True])

    def test_touching_boxes_never_suppress(self):
        # they share no pixel, so not even a zero threshold lets one drop the other
        boxes = np.array([[0, 0, 4, 4], [4, 0, 8, 4], [0, 4, 4, 8]], dtype=np.int64)
        np.testing.assert_array_equal(_accel.nms_keep(boxes, 0.0), [True, True, True])

    def test_zero_area_boxes_kept_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = _accel.nms_keep(np.zeros((2, 4), dtype=np.int64), 0.5)
        np.testing.assert_array_equal(keep, [True, True])

    def test_counts_split_the_boxes_into_images(self):
        # boxes 0 and 2 are identical: one image drops box 2, two never touch it
        boxes = np.array([[0, 0, 4, 4], [8, 8, 12, 12], [0, 0, 4, 4]], dtype=np.int64)
        score = np.array([[0.9, 0.5, 0.1]])
        for counts in ([3], [0, 3, 0]):
            keep = _accel.nms_keep(boxes, 0.4, counts, score)
            np.testing.assert_array_equal(keep, [[True, True, False]])
        keep = _accel.nms_keep(boxes, 0.4, np.array([1, 2]), score)
        np.testing.assert_array_equal(keep, [[True, True, True]])
        for bad in ([2], [1, 1, 2], [-1, 4], [1.0, 2.0], [[3]], [True, True, True]):
            with pytest.raises(ValueError, match="box counts must be integers >= 0 summing to 3"):
                _accel.nms_keep(boxes, 0.4, bad, score)


class TestBoxIou:
    """``box_iou`` against ``core.iou``, pair by pair."""

    def test_one_pair_of_boxes(self):
        a, b = (1, 2, 5, 7), (3, 0, 9, 4)
        got = _accel.box_iou(np.array(a), np.array(b))
        assert got.shape == ()
        assert got == iou(Box(*a), Box(*b)) > 0.0

    def test_n_by_one_against_one_by_m_broadcasts(self):
        rng = np.random.default_rng(0)
        corner = rng.integers(0, 8, size=(11, 2))
        boxes = np.concatenate([corner, corner + rng.integers(1, 6, size=(11, 2))], axis=1)
        a, b = boxes[:4], boxes[4:]
        got = _accel.box_iou(a[:, None, :], b[None, :, :])
        assert got.shape == (4, 7)
        assert got.tolist() == [
            [iou(Box(*p.tolist()), Box(*q.tolist())) for q in b] for p in a
        ]

    def test_touching_boxes_give_zero(self):
        a = np.array([[0, 0, 2, 2]] * 3)
        b = np.array([[2, 0, 4, 2], [0, 2, 2, 4], [2, 2, 4, 4]])  # an edge, an edge, a corner
        got = _accel.box_iou(a, b)
        assert got.tolist() == [iou(Box(*p.tolist()), Box(*q.tolist())) for p, q in zip(a, b)]
        assert got.tobytes() == np.zeros(3).tobytes()

    def test_zero_area_boxes_give_zero(self):
        # core.Box refuses these, so the want is the docstring's exact 0.0
        a = np.array([[1, 1, 1, 3], [2, 2, 2, 2], [1, 1, 1, 3]])
        b = np.array([[1, 1, 1, 3], [2, 2, 2, 2], [0, 0, 3, 3]])
        assert _accel.box_iou(a, b).tobytes() == np.zeros(3).tobytes()
