"""Dataset serialization, validation, and the synthetic generator."""

import json
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import build_record, tiling_grid
from saldet import _accel, dataio
from saldet.core import SuperpixelGrid, iou, proposal_from_superpixels
from saldet.dataio import (
    DatasetError,
    DatasetManifest,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
)

TINY = SynthConfig(images=5, seed=11)


def _dir_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"superpixels": 60},            # not a perfect square
            {"grid_side": 30},              # not divisible by sqrt(superpixels)
            {"objects_per_image": (0, 2)},  # zero objects
            {"objects_per_image": (2, 1)},  # inverted range
            {"objects_per_image": (1, 5)},  # more objects than classes
            {"feature_dim": 2},             # fewer dims than classes
            {"noise_amplitude": 1.0},
            {"feature_snr": 0.0},
            {"images": 0},
            {"seed": -1},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            replace(TINY, **kw)


class TestGenerator:
    def test_deterministic(self):
        a, _ = generate_synthetic(TINY)
        b, _ = generate_synthetic(TINY)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.features, rb.features)
            np.testing.assert_array_equal(ra.grid.labels, rb.grid.labels)
            assert ra.gt_boxes == rb.gt_boxes

    def test_structure(self):
        records, manifest = generate_synthetic(TINY)
        assert len(records) == 5
        assert manifest.num_classes == 4
        for rec in records:
            classes = [c for c, _ in rec.gt_boxes]
            assert classes == sorted(set(classes))  # distinct, ascending
            assert set(rec.saliency) == set(rec.labels.positives)
            assert set(classes) == set(rec.labels.positives)
            assert rec.features.shape == (rec.num_proposals, 16)

    def test_planted_proposals_match_gt(self):
        records, _ = generate_synthetic(TINY)
        for rec in records:
            for k, (cls, box) in enumerate(rec.gt_boxes):
                assert rec.proposals[k].bbox == box

    def test_parts_stay_under_half_iou(self):
        records, _ = generate_synthetic(replace(TINY, images=30))
        for rec in records:
            n = len(rec.gt_boxes)
            for k in range(n):
                part = rec.proposals[n + k]
                gt = rec.gt_boxes[k][1]
                assert iou(part.bbox, gt) < 0.5

    def test_objects_keep_their_gap(self):
        records, _ = generate_synthetic(replace(TINY, images=30))
        block = TINY.grid_side // 8
        for rec in records:
            boxes = [b for _, b in rec.gt_boxes]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    a, b = boxes[i], boxes[j]
                    dx = max(a.x0 - b.x1, b.x0 - a.x1, 0)
                    dy = max(a.y0 - b.y1, b.y0 - a.y1, 0)
                    assert max(dx, dy) >= 2 * block

    def test_saliency_peaks_on_object(self):
        records, _ = generate_synthetic(TINY)
        for rec in records:
            for cls, box in rec.gt_boxes:
                values = rec.saliency[cls].values
                inside = values[box.y0:box.y1, box.x0:box.x1]
                assert inside.min() >= 1.0 - TINY.noise_amplitude

    def test_infeasible_config_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_synthetic(
                SynthConfig(grid_side=8, superpixels=16, classes=4,
                            objects_per_image=(4, 4), images=1)
            )


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        records, manifest = generate_synthetic(TINY)
        save_dataset(records, manifest, tmp_path / "ds")
        loaded, loaded_manifest = load_dataset(tmp_path / "ds" / "manifest.json")
        assert loaded_manifest.num_classes == manifest.num_classes
        assert loaded_manifest.class_names == manifest.class_names
        assert len(loaded) == len(records)
        for ra, rb in zip(records, loaded):
            assert ra.id == rb.id
            np.testing.assert_array_equal(ra.grid.labels, rb.grid.labels)
            np.testing.assert_array_equal(ra.features, rb.features)
            assert [p.superpixel_ids for p in ra.proposals] == [
                p.superpixel_ids for p in rb.proposals
            ]
            assert ra.gt_boxes == rb.gt_boxes
            for c in ra.saliency:
                np.testing.assert_array_equal(
                    ra.saliency[c].values, rb.saliency[c].values
                )

    def test_saved_bytes_deterministic(self, tmp_path):
        records, manifest = generate_synthetic(TINY)
        save_dataset(records, manifest, tmp_path / "a")
        save_dataset(records, manifest, tmp_path / "b")
        a, b = _dir_bytes(tmp_path / "a"), _dir_bytes(tmp_path / "b")
        assert list(a) == list(b)
        assert all(a[k] == b[k] for k in a)


class TestSaveRefuses:
    """Save writes only datasets that load accepts: nothing is written otherwise."""

    @pytest.mark.parametrize("ids, stems, message", [
        (["../escaped"], None, "'../escaped' is not a plain file name"),
        (["../../escaped"], ["escaped"], "record ids must be the manifest's image stems"),
        (["a", "a"], None, "'a' is listed twice"),
        (["a", "b"], ["b", "a"], "record ids must be the manifest's image stems"),
        (["a", "b"], ["a"], "record ids must be the manifest's image stems"),
    ], ids=["escaping-id", "escaping-id-plain-stem", "repeated-id", "reordered", "missing"])
    def test_bad_ids_or_stems_write_nothing(self, tmp_path, ids, stems, message):
        grid = tiling_grid(8, 2)
        records = [_small_record(rec_id, grid, seed) for seed, rec_id in enumerate(ids)]
        with pytest.raises(ValueError, match=message):
            manifest = DatasetManifest(
                num_classes=2, feature_dim=4, class_names=("a", "b"),
                images=tuple(ids if stems is None else stems),
            )
            save_dataset(records, manifest, tmp_path / "ds" / "sub")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("stem", [3, None, b"img"])
    def test_manifest_stems_are_strings(self, stem):
        with pytest.raises(ValueError, match="is not a plain file name"):
            DatasetManifest(num_classes=1, feature_dim=1, class_names=("a",), images=(stem,))


def _count_grid_kernels(monkeypatch):
    """Count the calls of the grid kernels: every new grid runs
    ``label_pixels``, the one sort of the label grid, and ``label_boxes``
    once, and reads its pixel counts off that sort, not ``superpixel_counts``."""
    calls = {"label_pixels": 0, "label_boxes": 0, "superpixel_counts": 0}
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(_accel, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(_accel, name, counted)
    return calls


def _small_record(rec_id, grid, seed):
    """A two-class record on ``grid`` with two proposals and random payloads."""
    rng = np.random.default_rng(seed)
    shape = (grid.height, grid.width)
    return build_record(
        rec_id, grid, [[0], [1, 2]], rng.normal(size=(2, 4)), [1, -1],
        {0: rng.random(shape)}, [],
    )


def _save_small(records, out_dir):
    manifest = DatasetManifest(
        num_classes=2, feature_dim=4, class_names=("a", "b"),
        images=tuple(r.id for r in records),
    )
    save_dataset(records, manifest, out_dir)
    return out_dir


class TestGridSharing:
    """Consecutive records with identical label grids share one grid object."""

    def test_synthetic_dataset_builds_one_grid_per_load(self, tmp_path, monkeypatch):
        records, manifest = generate_synthetic(TINY)
        save_dataset(records, manifest, tmp_path / "ds")
        calls = _count_grid_kernels(monkeypatch)
        for load in (1, 2):
            loaded, _ = load_dataset(tmp_path / "ds")
            assert len({id(r.grid) for r in loaded}) == 1
            assert calls == {"label_pixels": load, "label_boxes": load, "superpixel_counts": 0}
            # so seed selection reads one set of neighbour lists per load
            neighbors = loaded[0].grid.neighbors
            assert all(r.grid.neighbors is neighbors for r in loaded)
        # the shared grid's tables are the ones a fresh grid computes
        fresh = SuperpixelGrid(width=32, height=32, labels=records[0].grid.labels)
        np.testing.assert_array_equal(loaded[0].grid.boxes, fresh.boxes)
        np.testing.assert_array_equal(loaded[0].grid.pixel_counts, fresh.pixel_counts)
        np.testing.assert_array_equal(loaded[0].grid.pixel_order, fresh.pixel_order)

    @pytest.mark.parametrize("pattern, builds", [
        ("AABB", 2), ("ABAB", 4), ("ABBA", 3), ("AAAA", 1), ("B", 1), ("CAAC", 3),
    ])
    def test_only_runs_of_equal_grids_share(self, tmp_path, monkeypatch, pattern, builds):
        grids = {"A": tiling_grid(16, 4)}
        # B is A transposed: same shape and ids, other pixels
        grids["B"] = SuperpixelGrid(width=16, height=16, labels=grids["A"].labels.T)
        # C is smaller, so the load's grid buffer grows after it, and is
        # then read short of its end
        grids["C"] = tiling_grid(8, 2)
        records = [
            _small_record(f"r{k}", grids[g], k) for k, g in enumerate(pattern)
        ]
        _save_small(records, tmp_path / "ds")
        calls = _count_grid_kernels(monkeypatch)
        loaded, _ = load_dataset(tmp_path / "ds")
        assert calls == {
            "label_pixels": builds, "label_boxes": builds, "superpixel_counts": 0
        }
        for k, (rec, g) in enumerate(zip(loaded, pattern)):
            np.testing.assert_array_equal(rec.grid.labels, grids[g].labels)
            np.testing.assert_array_equal(rec.grid.boxes, grids[g].boxes)
            assert [p.bbox for p in rec.proposals] == [p.bbox for p in records[k].proposals]
            np.testing.assert_array_equal(rec.saliency[0].values, records[k].saliency[0].values)
            np.testing.assert_array_equal(rec.features, records[k].features)
            if k:
                assert (rec.grid is loaded[k - 1].grid) == (g == pattern[k - 1])

    def test_same_bytes_swapped_shape_not_shared(self, tmp_path):
        flat = np.repeat(np.arange(64, dtype=np.int32), 32)
        wide = SuperpixelGrid(width=64, height=32, labels=flat.reshape(32, 64))
        tall = SuperpixelGrid(width=32, height=64, labels=flat.reshape(64, 32))
        assert wide.labels.tobytes() == tall.labels.tobytes()
        _save_small([_small_record("wide", wide, 0), _small_record("tall", tall, 1)],
                    tmp_path / "ds")
        loaded, _ = load_dataset(tmp_path / "ds")
        assert loaded[0].grid is not loaded[1].grid
        for rec, grid in zip(loaded, (wide, tall)):
            assert (rec.grid.width, rec.grid.height) == (grid.width, grid.height)
            np.testing.assert_array_equal(rec.grid.boxes, grid.boxes)
            want = proposal_from_superpixels(grid, [1, 2]).bbox
            assert rec.proposals[1].bbox == want

    @pytest.mark.parametrize("new_id, message", [
        (2**31, "labels: negative superpixel id"),
        (5000, "labels: id 5000 exceeds the pixel count 1024"),
        (64, "grid holds 65 superpixels, header says 64"),
    ])
    def test_one_corrupted_id_after_an_equal_grid(self, tmp_path, new_id, message):
        records, manifest = generate_synthetic(TINY)
        save_dataset(records, manifest, tmp_path / "ds")
        # record 2 follows a record whose grid it equals but for one pixel
        bin_path = tmp_path / "ds" / "records" / "img_0002.bin"
        data = bytearray(bin_path.read_bytes())
        off = 16 + 4 * 517
        data[off:off + 4] = np.uint32(new_id).tobytes()
        bin_path.write_bytes(bytes(data))
        json_path = bin_path.with_suffix(".json")
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path / "ds")
        assert str(exc.value) == f"{json_path}: {message}"


class TestLoadErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        records, manifest = generate_synthetic(TINY)
        save_dataset(records, manifest, tmp_path / "ds")
        return tmp_path / "ds"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises((DatasetError, FileNotFoundError)):
            load_dataset(tmp_path / "nope" / "manifest.json")

    def test_corrupt_magic(self, saved):
        bin_path = next((saved / "records").glob("*.bin"))
        data = bytearray(bin_path.read_bytes())
        data[0] ^= 0xFF
        bin_path.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match=bin_path.name):
            load_dataset(saved / "manifest.json")

    def test_truncated_binary(self, saved):
        bin_path = next((saved / "records").glob("*.bin"))
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(DatasetError, match="bytes, expected"):
            load_dataset(saved / "manifest.json")

    def test_file_shorter_than_its_stat_is_a_short_read(self, saved, monkeypatch):
        # as if the file were cut between the size check and the reads
        bin_path = sorted((saved / "records").glob("*.bin"))[-1]
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        cut = bin_path.stat().st_ino

        def fstat(fd):
            st = os.fstat(fd)
            return SimpleNamespace(st_size=st.st_size + 8 * (st.st_ino == cut))

        monkeypatch.setattr(dataio, "os", SimpleNamespace(fstat=fstat))
        with pytest.raises(DatasetError, match=f"{bin_path.name}: short read"):
            load_dataset(saved / "manifest.json")

    def test_bad_manifest_version(self, saved):
        path = saved / "manifest.json"
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="version"):
            load_dataset(path)

    def test_missing_record_file(self, saved):
        next((saved / "records").glob("*.json")).unlink()
        with pytest.raises((DatasetError, FileNotFoundError)):
            load_dataset(saved / "manifest.json")

    def test_label_mismatch_detected(self, saved):
        # corrupt a saliency value to be negative in the binary payload
        bin_path = sorted((saved / "records").glob("*.bin"))[0]
        data = bytearray(bin_path.read_bytes())
        # header 16 bytes + u4 label grid (32*32) then f4 saliency
        off = 16 + 4 * 32 * 32
        data[off:off + 4] = np.float32(-5.0).tobytes()
        bin_path.write_bytes(bytes(data))
        with pytest.raises(DatasetError):
            load_dataset(saved / "manifest.json")

    @staticmethod
    def _edit_record(saved, edit):
        path = sorted((saved / "records").glob("*.json"))[0]
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_string_width_is_dataset_error(self, saved):
        self._edit_record(saved, lambda doc: doc.update(width="32"))
        with pytest.raises(DatasetError, match="field 'width' must be an integer"):
            load_dataset(saved)

    def test_gt_box_without_box_is_dataset_error(self, saved):
        self._edit_record(saved, lambda doc: doc["gt_boxes"][0].pop("box"))
        with pytest.raises(DatasetError, match=r"gt_boxes\[0\]: missing field 'box'"):
            load_dataset(saved)

    @pytest.mark.parametrize("field", [
        "version", "id", "width", "height", "num_superpixels", "num_proposals",
        "labels", "proposals", "saliency_classes", "gt_boxes",
    ])
    def test_every_header_field_type_checked(self, saved, field):
        def swap(doc):
            doc[field] = 7 if isinstance(doc[field], str) else "7"
        self._edit_record(saved, swap)
        with pytest.raises(DatasetError, match=f"field '{field}' must be"):
            load_dataset(saved)

    @pytest.mark.parametrize("value", [300, 255, -129, 2**31])
    def test_label_outside_int8_is_dataset_error(self, saved, value):
        path = self._edit_record(saved, lambda doc: doc["labels"].__setitem__(0, value))
        with pytest.raises(DatasetError, match=f"{path.name}: labels: entries must be"):
            load_dataset(saved)

    def test_record_json_not_utf8_names_the_file(self, saved):
        path = sorted((saved / "records").glob("*.json"))[0]
        path.write_bytes(path.read_bytes().replace(b'"id"', b'"\xff"', 1))
        with pytest.raises(DatasetError, match=f"{path.name}: invalid JSON"):
            load_dataset(saved)

    def test_two_negative_sides_name_the_file(self, saved):
        # -32 x -32 has the pixel count of the saved 32 x 32 grid
        path = self._edit_record(saved, lambda doc: doc.update(width=-32, height=-32))
        with pytest.raises(DatasetError, match=f"{path.name}: grid -32x-32 has a negative side"):
            load_dataset(saved)

    @pytest.mark.parametrize("maps", ["kept", "dropped"])
    def test_zero_height_with_a_huge_width_names_the_file(self, saved, maps):
        path = sorted((saved / "records").glob("*.json"))[0]
        doc = json.loads(path.read_text())
        pixel_bytes = 4 * doc["width"] * doc["height"] * (1 + len(doc["saliency_classes"]))
        # no pixels: the header and the features alone fit the size check
        bin_path = path.with_suffix(".bin")
        data = bin_path.read_bytes()
        bin_path.write_bytes(data[:16] + data[16 + pixel_bytes:])
        classes = doc["saliency_classes"] if maps == "kept" else []
        self._edit_record(
            saved, lambda doc: doc.update(width=2**62, height=0, saliency_classes=classes)
        )
        with pytest.raises(DatasetError, match=path.stem):
            load_dataset(saved)

    def test_stem_listed_twice_is_dataset_error(self, saved):
        path = saved / "manifest.json"
        doc = json.loads(path.read_text())
        doc["images"].append(doc["images"][1])
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=f"{doc['images'][1]}' is listed twice"):
            load_dataset(path)

    def test_saliency_class_listed_twice_is_dataset_error(self, saved):
        # a second copy of the first map, so the blob size still fits the header
        path = self._edit_record(
            saved,
            lambda doc: doc.update(saliency_classes=doc["saliency_classes"][:1]
                                   + doc["saliency_classes"]),
        )
        doc = json.loads(path.read_text())
        bin_path = path.with_suffix(".bin")
        data = bin_path.read_bytes()
        first_map = 16 + 4 * doc["width"] * doc["height"]
        end = first_map + 4 * doc["width"] * doc["height"]
        bin_path.write_bytes(data[:end] + data[first_map:end] + data[end:])
        with pytest.raises(
            DatasetError,
            match=f"{path.name}: field 'saliency_classes' lists class "
                  f"{doc['saliency_classes'][0]} twice",
        ):
            load_dataset(saved)

    @pytest.mark.parametrize("stem", ["../outside", "sub/img", "..", "a\\b"])
    def test_stem_must_be_a_plain_name(self, saved, stem):
        # a loadable record outside records/, reachable through the stem
        src = sorted((saved / "records").glob("*.json"))[0]
        target = saved / "records" / f"{stem}.json"
        if ".." in stem or "/" in stem:
            target.parent.mkdir(parents=True, exist_ok=True)
            doc = json.loads(src.read_text())
            doc["id"] = stem
            target.write_text(json.dumps(doc))
            target.with_suffix(".bin").write_bytes(src.with_suffix(".bin").read_bytes())
        path = saved / "manifest.json"
        doc = json.loads(path.read_text())
        doc["images"][0] = stem
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="not a plain file name"):
            load_dataset(path)

