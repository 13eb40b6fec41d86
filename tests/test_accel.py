"""The grid and box kernels against independent oracles and edge cases."""

import warnings

import numpy as np

from oracles import bfs_components, pixel_adjacency, quadratic_nms
from saldet import _accel
from saldet.core import Box


def random_labels(rng, h, w, n_sp):
    return rng.integers(0, n_sp, size=(h, w)).astype(np.int32)


def oracle_keep(boxes, threshold):
    """Keep mask of the quadratic oracle, for boxes already in priority order."""
    items = [(Box(*map(int, b)), -float(i), i) for i, b in enumerate(boxes)]
    kept = {idx for _, _, idx in quadratic_nms(items, threshold)}
    return np.array([i in kept for i in range(len(boxes))])


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

    def test_zero_area_boxes_kept_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = _accel.nms_keep(np.zeros((2, 4), dtype=np.int64), 0.5)
        np.testing.assert_array_equal(keep, [True, True])
