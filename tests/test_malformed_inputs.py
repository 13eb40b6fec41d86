"""Randomly damaged datasets and checkpoints, as a property test.

Truncation, byte flips, deleted JSON fields, JSON values of the wrong
type, JSON integers replaced by other integers (the int8, int32 and
int64 edges among them), a label grid equal to the previous record's but
for one byte, and a checkpoint tensor entry set to NaN or an infinity.
Whatever the damage, the loader raises nothing but ``DatasetError``, the
checkpoint reader nothing but ``ValueError``, and ``saldet seeds`` /
``saldet eval`` either succeed or print exactly one ``error:`` line and
exit 1. The examples are
derandomized, so the test is deterministic.
"""

import contextlib
import io
import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saldet import cli
from saldet.dataio import (
    DatasetError,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from saldet.model import load_checkpoint

CONFIG = SynthConfig(images=3, seed=4)
GRID_BYTES = 4 * CONFIG.grid_side ** 2
EXAMPLES = settings(max_examples=60, derandomize=True, deadline=None, database=None)

# a strategy for JSON values of each type, to put where another type belongs
JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-2**40, 2**40),
    float: st.floats(allow_nan=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-2, 70), max_size=3),
    dict: st.dictionaries(st.sampled_from(["class_id", "box", "x"]), st.integers(0, 9),
                          max_size=2),
}
# the edges of the integer types a loader might cast JSON integers to
INT_EDGES = [v for bits in (8, 32, 64) for edge in (-2 ** (bits - 1), 2 ** (bits - 1))
             for v in (edge - 1, edge)] + [2**32 - 1, 2**32, -1, 0, 1, 2, 255, 256]


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """A saved dataset and a checkpoint trained on it, never modified."""
    root = tmp_path_factory.mktemp("malformed")
    records, manifest = generate_synthetic(CONFIG)
    save_dataset(records, manifest, root / "ds")
    code, _ = run_cli(["train", "--data", str(root / "ds"), "--out", str(root / "model.ckpt"),
                       "--epochs", "2", "--trunk-widths", "8"])
    assert code == 0
    return root


def run_cli(argv):
    """``saldet.cli.main`` in-process; returns (exit code, the ``error:`` lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


def damaged(data, raw: bytes) -> bytes:
    """``raw`` truncated, or with one byte flipped."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    out = bytearray(raw)
    out[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
        st.integers(1, 255), label="xor"
    )
    return bytes(out)


def json_slot(data, doc):
    """A (container, key) pair somewhere inside a JSON document."""
    holder = doc
    while True:
        keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
        key = data.draw(st.sampled_from(keys), label="key")
        value = holder[key]
        if not (isinstance(value, (dict, list)) and value) or data.draw(
            st.booleans(), label="stop"
        ):
            return holder, key
        holder = value


def holds_int(value) -> bool:
    """Whether a JSON value is an integer or contains one."""
    if isinstance(value, (dict, list)):
        return any(map(holds_int, value.values() if isinstance(value, dict) else value))
    return isinstance(value, int) and not isinstance(value, bool)


def int_slot(data, doc):
    """A (container, key) pair holding an integer, drawn level by level as in ``json_slot``."""
    holder = doc
    while True:
        keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
        key = data.draw(st.sampled_from([k for k in keys if holds_int(holder[k])]), label="key")
        if not isinstance(holder[key], (dict, list)):
            return holder, key
        holder = holder[key]


def damage_dataset(data, root: Path, renumber_only: bool = False) -> None:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    if renumber_only:
        files = [p for p in files if p.suffix == ".json"]
    blobs = sorted(root.glob("records/*.bin"))
    path = data.draw(st.sampled_from(files), label="file")
    raw = path.read_bytes()
    kinds = ["bytes"]
    if path.suffix == ".json":
        kinds += ["delete", "retype", "renumber"]
    elif path in blobs[1:]:
        kinds.append("near-copy")
    kind = "renumber" if renumber_only else data.draw(st.sampled_from(kinds), label="kind")
    if kind == "bytes":
        raw = damaged(data, raw)
    elif kind == "near-copy":
        # the previous record's grid with one byte flipped: equal-grid
        # sharing must not let this record skip validation
        prev = blobs[blobs.index(path) - 1].read_bytes()
        out = bytearray(raw)
        out[16:16 + GRID_BYTES] = prev[16:16 + GRID_BYTES]
        out[data.draw(st.integers(16, 15 + GRID_BYTES), label="at")] ^= data.draw(
            st.integers(1, 255), label="xor"
        )
        raw = bytes(out)
    else:
        doc = json.loads(raw)
        if kind == "renumber":
            holder, key = int_slot(data, doc)
            holder[key] = data.draw(
                st.one_of(st.sampled_from(INT_EDGES), st.integers(-2**40, 2**40))
                .filter(lambda v: v != holder[key]),
                label="value",
            )
        else:
            holder, key = json_slot(data, doc)
            if kind == "delete":
                del holder[key]
            else:
                other = [v for t, v in JSON_VALUES.items() if t is not type(holder[key])]
                holder[key] = data.draw(st.one_of(other), label="value")
        raw = json.dumps(doc).encode()
    path.write_bytes(raw)


def expect_cli(argv, loaded: bool) -> None:
    code, errors = run_cli(argv)
    if loaded:
        assert (code, errors) == (0, [])
    else:
        assert code == 1
        assert len(errors) == 1


def check_damaged_dataset(source, data, **damage) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        shutil.copytree(source / "ds", root)
        damage_dataset(data, root, **damage)
        try:
            load_dataset(root)
            loaded = True
        except DatasetError:
            loaded = False
        expect_cli(["seeds", "--data", str(root), "--theta", "0.5"], loaded)
        expect_cli(["eval", "--data", str(root), "--checkpoint", str(source / "model.ckpt")],
                   loaded)


@EXAMPLES
@given(data=st.data())
def test_damaged_dataset(source, data):
    check_damaged_dataset(source, data)


@EXAMPLES
@given(data=st.data())
def test_renumbered_dataset(source, data):
    """Integer-for-integer damage alone, which no field type check can see."""
    check_damaged_dataset(source, data, renumber_only=True)


@EXAMPLES
@given(data=st.data())
def test_damaged_checkpoint(source, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        raw = (source / "model.ckpt").read_bytes()
        if data.draw(st.booleans(), label="non-finite"):
            # a tensor entry no saved checkpoint can hold
            n_values = load_checkpoint(source / "model.ckpt")[0].flat_values.size
            at = len(raw) - 4 * data.draw(st.integers(1, n_values), label="value")
            value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="is")
            raw = raw[:at] + struct.pack("<f", value) + raw[at + 4:]
        else:
            raw = damaged(data, raw)
        path.write_bytes(raw)
        try:
            load_checkpoint(path)
            loaded = True
        except ValueError:
            loaded = False
        expect_cli(["eval", "--data", str(source / "ds"), "--checkpoint", str(path)], loaded)
