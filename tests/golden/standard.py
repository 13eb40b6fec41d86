"""The standard same-results contract: what ``standard.json`` records, and its rewrite.

``standard.json`` holds what this checkout produced on one machine:

* ``environment`` - that machine's fingerprint (Python, numpy, BLAS name
  and version, CPU model), read through ``perfbench/envinfo.py``. The
  BLAS thread count is left out: on the recording host (2 cores) the
  digests were checked equal at 1 BLAS thread, as perfbench runs, and
  at 2;
* ``params`` - the SHA-256 of each of the 15 standard runs' trained
  parameters, by perfbench's ``params_digest``, keyed ``variant/seedN``;
* ``reports`` - the SHA-256 of each run's ``EvalReport.as_json_dict()``,
  keyed ``variant/seedN/train`` and ``variant/seedN/test``;
* ``pipeline`` - the SHA-256 of the criterion-8 pipeline's saved
  dataset (over each file's name and digest), of the ``saldet seeds
  --theta 0.5`` output on it, and of its checkpoint and report;
* ``readme_table`` - each variant's mean train CorLoc and mean test mAP
  to 3 decimals, the README's benchmark table.

The README table must hold on every host; the digests are compared only
where the fingerprint matches, since BLAS and CPU change the bits.

To rewrite the file from this checkout (it prints each field that changed)::

    PYTHONPATH=src python tests/golden/standard.py

To compare this checkout's record with the one that revision ``REV``'s
``src/`` computes on this machine, field by field, without touching the
file::

    PYTHONPATH=src python tests/golden/standard.py --against REV

``REV``'s ``src/`` is extracted with ``git archive`` into a temporary
directory, and a child process computes the record with ``PYTHONPATH``
set to that copy (this checkout's script and ``perfbench/`` compute it).
It needs the repository's history, not the network.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from saldet import _accel, benchmark, cli
from saldet.dataio import SynthConfig, generate_synthetic, load_dataset, save_dataset
from saldet.evaluate import evaluate
from saldet.model import ModelConfig
from saldet.trainer import TrainConfig, train

GOLDEN = Path(__file__).with_suffix(".json")
ROOT = Path(__file__).resolve().parents[2]
FINGERPRINT = ("python", "numpy", "blas", "cpu_model")


def _load_perfbench(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint() -> dict:
    env = _load_perfbench("envinfo").environment(_accel)
    return {key: env[key] for key in FINGERPRINT}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_grid():
    """The standard grid over seeds 0-4, and each run's parameter digest in run order."""
    params_digest = _load_perfbench("workloads").params_digest
    result = benchmark.run_benchmark(seeds=range(5))
    return result, [params_digest(run.params) for run in result.runs]


def pipeline(root: Path):
    """Synthesise, save, select seeds, load, train and evaluate.

    Returns (dataset files, seeds, checkpoint, report). The dataset maps
    each file's relative path to its bytes, seeds is what ``saldet seeds
    --theta 0.5`` writes for that dataset, and the report is the
    evaluation's JSON with sorted keys.
    """
    ds = root / "ds"
    ckpt = root / "model.ckpt"
    seeds = root / "seeds.json"
    records, manifest = generate_synthetic(SynthConfig(images=10, seed=77))
    save_dataset(records, manifest, ds)
    dataset_bytes = {
        str(p.relative_to(ds)): p.read_bytes() for p in sorted(ds.rglob("*")) if p.is_file()
    }
    argv = ["seeds", "--data", str(ds / "manifest.json"), "--theta", "0.5", "--out", str(seeds)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"saldet {' '.join(argv)} failed")
    loaded, _ = load_dataset(ds / "manifest.json")
    model_config = ModelConfig(
        feature_dim=16, num_classes=4, trunk_widths=(16,), saliency_hidden=8
    )
    train_config = TrainConfig(epochs=3, lr_phase1=5e-3, lr_phase2=5e-4, phase_boundary=2)
    params, _ = train(loaded, model_config, train_config, checkpoint_path=ckpt)
    report = evaluate(params, loaded, train_config.effective_model_config(model_config))
    report_json = json.dumps(report.as_json_dict(), sort_keys=True)
    return dataset_bytes, seeds.read_bytes(), ckpt.read_bytes(), report_json


def record(result, digests, outputs) -> dict:
    """The contract's fields for a grid result, its digests and one ``pipeline`` run's outputs."""
    runs = result.runs
    dataset, seeds, checkpoint, report = outputs
    files = {name: _sha256(data) for name, data in dataset.items()}
    return {
        "environment": fingerprint(),
        "params": {f"{r.variant}/seed{r.seed}": d for r, d in zip(runs, digests, strict=True)},
        "reports": {
            f"{r.variant}/seed{r.seed}/{split}": _sha256(
                json.dumps(rep.as_json_dict(), sort_keys=True).encode()
            )
            for r in runs
            for split, rep in (("train", r.train_report), ("test", r.test_report))
        },
        "pipeline": {
            "dataset": _sha256(json.dumps(files, sort_keys=True).encode()),
            "seeds": _sha256(seeds),
            "checkpoint": _sha256(checkpoint),
            "report": _sha256(report.encode()),
        },
        "readme_table": {
            v: [round(result.mean_corloc(v), 3), round(result.mean_test_map(v), 3)]
            for v in benchmark.VARIANTS
        },
    }


def readme_table() -> dict:
    """variant -> [CorLoc, test mAP] as the README's benchmark table prints them."""
    rows = re.findall(
        r"^\| `(\w+)` +\|[^|]*\| +([\d.]+) +\| +([\d.]+) +\|$",
        (ROOT / "README.md").read_text(encoding="utf-8"),
        re.M,
    )
    return {v: [float(c), float(m)] for v, c, m in rows}


def _flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def changed(old: dict, new: dict) -> list[str]:
    """Dotted names of the fields whose values differ, or that only one side has."""
    a, b = _flatten(old), _flatten(new)
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def compute() -> dict:
    """This interpreter's ``saldet`` record: the grid, its digests and one pipeline run."""
    result, digests = run_grid()
    with tempfile.TemporaryDirectory() as tmp:
        return record(result, digests, pipeline(Path(tmp)))


def compute_at(rev: str) -> dict:
    """The record that revision ``rev``'s ``src/`` computes, in a child process."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        out = Path(tmp) / "record.json"
        code = ("import json, pathlib, sys, standard; "
                "pathlib.Path(sys.argv[1]).write_text(json.dumps(standard.compute()))")
        path = os.pathsep.join([str(Path(tmp) / "src"), str(GOLDEN.parent)])
        subprocess.run([sys.executable, "-c", code, str(out)],
                       env={**os.environ, "PYTHONPATH": path}, cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL)
        return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--against", metavar="REV",
        help="compare with the record REV's src/ computes; standard.json is left as is",
    )
    args = parser.parse_args(argv)
    if args.against:
        theirs = compute_at(args.against)
        diff = changed(theirs, compute())
        print(f"against {args.against}: {len(diff)} field(s) changed")
    else:
        new = compute()
        old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        diff = changed(old, new)
        GOLDEN.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
        print(f"{GOLDEN}: {len(diff)} field(s) changed")
    for key in diff:
        print(f"  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
