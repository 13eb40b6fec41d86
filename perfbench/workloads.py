"""The benchmark's three workloads: inputs made in set-up, then one timed run.

Each workload has ``setup(sd, seed, workdir, tiny)``, which returns the
inputs, and ``run(sd, inputs, stats)``, which does one workload run and
records what it timed and produced in a :class:`RunStats`. Stage times
are taken with the run's :class:`speed.Clock`, so they are scaled to the
reference host speed. ``sd`` is a namespace of the imported ``saldet``
modules; every call into the package goes through a module attribute at
call time, so a traced run sees the wrappers the tracer installs.

Why each workload exists:

* ``ablation`` - the paper's experiment: 3 variants x 5 seeds on the
  standard config. Per-step numpy and Python overhead of a 7-proposal x
  16-feature image sets the time, so ``model`` and ``trainer`` dominate.
* ``dense_proposals`` - standard-size images with 100-200 proposals each,
  trained on the standard schedule; its CorLoc and mAP are the means over
  both splits.
  Pure-Python O(M^2) NMS and one ``Detection`` per proposal x class make
  ``evaluate`` dominate; the model runs where FLOPs, not call overhead,
  set the step time.
* ``large_images`` - 256x256 grids with 1024 superpixels, driven through
  ``saldet.cli.main`` as a user would. Grid work (dataset validation,
  superpixel reductions, adjacency, component labelling) dominates, and it
  is the only workload that writes files (seed JSON, checkpoint).
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# the benchmark grid of workload seed n is benchmark seeds 5n .. 5n+4, so
# workload seed 0 is the README's grid
GRID_SEEDS = 5
DEFAULT_SEED = 0
# README table: variant -> (mean train CorLoc, mean test mAP)
README_TABLE = {"full": (0.969, 0.836), "no_sal": (0.944, 0.811), "baseline": (0.871, 0.788)}
# acceptance floors of the full variant at the default grid (criteria 6 and 7)
FLOOR_CORLOC = 0.80
FLOOR_TEST_MAP = 0.60

DENSE_PROPOSALS = (100, 200)        # extra proposals per image, inclusive
DENSE_RECT_SIDES = (1, 4)           # random rectangle side, in superpixels

LARGE_SYNTH = dict(grid_side=256, superpixels=1024, images=50, classes=4)
# the standard model, learning rates and 40-epoch schedule: over ten seeds
# mAP spreads 0.03 (IQR over median) with it and 0.17 with 20 epochs, and
# training stays a minor share of a run
LARGE_EPOCHS = 40
LARGE_TRAIN_ARGS = (
    "--epochs", str(LARGE_EPOCHS), "--phase-boundary", "30",
    "--lr-phase1", "5e-3", "--lr-phase2", "5e-4", "--trunk-widths", "64", "64",
)
LARGE_THETA = "0.5"


@dataclass
class RunStats:
    """What one workload run timed and produced; times are scaled seconds."""

    clock: object = None                          # the process's speed.Clock
    wall_s: float = 0.0                           # unscaled, probes excluded
    run_s: float = 0.0
    train_steps: int = 0
    train_s: float = 0.0
    eval_images: int = 0
    eval_s: float = 0.0
    seeds_images: int = 0
    seeds_s: float = 0.0
    corloc: float = 0.0
    detection_map: float = 0.0
    digests: dict = field(default_factory=dict)   # artifact -> SHA-256
    reports: dict = field(default_factory=dict)   # (variant, seed) -> report dicts
    problems: list = field(default_factory=list)  # failed correctness checks
    seed_hits: list = field(default_factory=lambda: [0, 0])      # hits, seeds
    negative_hits: list = field(default_factory=lambda: [0, 0])  # hits, negatives


def params_digest(params) -> str:
    """SHA-256 of every parameter tensor, in declaration order."""
    h = hashlib.sha256()
    for name, arr in params.values.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def check_report(stats: RunStats, label: str, report: dict):
    """Every metric of an evaluation report must be finite and in [0, 1]."""
    values = [report["mean_detection_ap"], report["mean_corloc"],
              report["mean_classification_ap"]]
    for key in ("detection_ap", "corloc", "classification_ap"):
        values += list(report[key].values())
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        stats.problems.append(f"{label}: report values outside [0, 1]: {bad[:3]}")


def count_seed_hits(sd, stats: RunStats, records, assignments):
    """Seed boxes hitting a same-class gt box, and negatives hitting any object.

    A hit is IoU >= 0.5, the detection criterion.
    """
    iou = sd.core.iou
    for rec in records:
        seeds, negatives = assignments[rec.id]
        for c, i in seeds:
            box = rec.proposals[i].bbox
            stats.seed_hits[0] += any(
                iou(box, g) >= 0.5 for gc, g in rec.gt_boxes if gc == c
            )
            stats.seed_hits[1] += 1
        for i in negatives:
            box = rec.proposals[i].bbox
            stats.negative_hits[0] += any(iou(box, g) >= 0.5 for _, g in rec.gt_boxes)
            stats.negative_hits[1] += 1


def _seeds_stage(sd, stats, records, sigma):
    """The seed-selection stage on one split, as ``train()`` runs it internally."""
    assignment, elapsed = stats.clock.timed(
        sd.trainer.precompute_assignments, records, sigma=sigma
    )
    stats.seeds_images += len(records)
    stats.seeds_s += elapsed
    count_seed_hits(
        sd, stats, records,
        {k: (a.seeds, a.negatives) for k, a in assignment.items()},
    )


def _train_and_eval(sd, stats, train_records, eval_splits, train_config, label):
    """One ``train()`` then ``evaluate()`` per split; returns the report dicts."""
    bench = sd.benchmark
    (params, _), elapsed = stats.clock.timed(
        sd.trainer.train, train_records, bench.STANDARD_MODEL, train_config
    )
    stats.train_steps += train_config.epochs * len(train_records)
    stats.train_s += elapsed
    config = train_config.effective_model_config(bench.STANDARD_MODEL)
    reports = []
    for split in eval_splits:
        report, elapsed = stats.clock.timed(
            sd.evaluate.evaluate, params, split, config
        )
        stats.eval_images += len(split)
        stats.eval_s += elapsed
        reports.append(report.as_json_dict())
        check_report(stats, label, reports[-1])
    stats.digests[label] = params_digest(params)
    return reports


# ---------------------------------------------------------------------------
# ablation

def setup_ablation(sd, seed, workdir, tiny):
    bench = sd.benchmark
    seeds = [GRID_SEEDS * seed + k for k in range(1 if tiny else GRID_SEEDS)]
    datasets = [bench.benchmark_datasets(s) for s in seeds]
    if tiny:
        datasets = [(tr[:6], te[:6]) for tr, te in datasets]
    return {"seeds": seeds, "datasets": datasets, "tiny": tiny}


def run_ablation(sd, inputs, stats: RunStats):
    bench = sd.benchmark
    base = bench.STANDARD_TRAIN
    if inputs["tiny"]:
        base = replace(base, epochs=2, phase_boundary=1)
    pairs = list(zip(inputs["seeds"], inputs["datasets"]))
    corlocs, maps = [], []
    for variant in bench.VARIANTS:
        for s, (train_records, test_records) in pairs:
            # timed once per train() call, spread over the run, as seed
            # selection is too short to time steadily in one place
            _seeds_stage(sd, stats, train_records, base.sigma)
            train_config = replace(
                base, shuffle_seed=s, init_seed=s, **bench.VARIANT_FLAGS[variant]
            )
            train_rep, test_rep = _train_and_eval(
                sd, stats, train_records, (train_records, test_records),
                train_config, f"{variant}/seed{s}",
            )
            stats.reports[(variant, s)] = (train_rep, test_rep)
            corlocs.append(train_rep["mean_corloc"])
            maps.append(test_rep["mean_detection_ap"])
    stats.corloc = float(np.mean(corlocs))
    stats.detection_map = float(np.mean(maps))


def variant_means(reports):
    """variant -> (mean train CorLoc, mean test mAP) over the grid's seeds."""
    out = {}
    for variant in README_TABLE:
        rows = [r for (v, _), r in sorted(reports.items()) if v == variant]
        out[variant] = (
            float(np.mean([tr["mean_corloc"] for tr, _ in rows])),
            float(np.mean([te["mean_detection_ap"] for _, te in rows])),
        )
    return out


def floor_problems(reports):
    """Acceptance floors and CorLoc order of the default-seed grid."""
    means = variant_means(reports)
    full, no_sal, baseline = (means[v][0] for v in ("full", "no_sal", "baseline"))
    problems = []
    if full < FLOOR_CORLOC:
        problems.append(f"full CorLoc {full:.3f} < {FLOOR_CORLOC}")
    if means["full"][1] < FLOOR_TEST_MAP:
        problems.append(f"full test mAP {means['full'][1]:.3f} < {FLOOR_TEST_MAP}")
    if not (full > no_sal > baseline):
        problems.append(
            f"CorLoc order broken: full {full:.3f}, no_sal {no_sal:.3f}, "
            f"baseline {baseline:.3f}"
        )
    return problems


def composition_problems(sd, inputs, reports):
    """Grid reports must equal ``saldet.benchmark.run_variant`` for one seed per variant."""
    problems = []
    seeds = inputs["seeds"]
    for k, variant in enumerate(sd.benchmark.VARIANTS):
        s = seeds[k % len(seeds)]
        ref = sd.benchmark.run_variant(variant, s)
        expected = (ref.train_report.as_json_dict(), ref.test_report.as_json_dict())
        if reports[(variant, s)] != expected:
            problems.append(f"{variant}/seed{s}: grid report != run_variant report")
    return problems


# ---------------------------------------------------------------------------
# dense proposals

def _object_superpixels(gt_boxes, block, sp_side):
    """(class, superpixel id set) of each planted object, from its pixel box."""
    objects = []
    for c, b in gt_boxes:
        ids = {
            (y // block) * sp_side + x // block
            for y in range(b.y0, b.y1, block)
            for x in range(b.x0, b.x1, block)
        }
        objects.append((c, ids))
    return objects


def densify(sd, records, synth, rng):
    """Append 100 to 200 random superpixel rectangles to every record.

    Feature rows follow the generator's rule: the one-hot template of the
    dominant overlapping object class scaled by the rectangle's IoU with
    that object (superpixels are equal-area), plus N(0, 1/snr) noise.
    """
    sp_side = math.isqrt(synth.superpixels)
    block = synth.grid_side // sp_side
    lo, hi = DENSE_RECT_SIDES
    # evenly spread counts in a seeded order: every split of a given size
    # holds the same total and sum of squares, which set the O(M^2) NMS cost
    counts = np.linspace(*DENSE_PROPOSALS, num=len(records)).round().astype(int)
    rng.shuffle(counts)
    out = []
    for rec, extra in zip(records, counts):
        objects = _object_superpixels(rec.gt_boxes, block, sp_side)
        proposals = list(rec.proposals)
        features = np.zeros((extra, synth.feature_dim))
        for k in range(extra):
            h = int(rng.integers(lo, hi + 1))
            w = int(rng.integers(lo, hi + 1))
            r0 = int(rng.integers(0, sp_side - h + 1))
            c0 = int(rng.integers(0, sp_side - w + 1))
            ids = [r * sp_side + c for r in range(r0, r0 + h) for c in range(c0, c0 + w)]
            proposals.append(sd.core.proposal_from_superpixels(rec.grid, ids))
            members = set(ids)
            best_cls, best_inter, best_iou = -1, 0, 0.0
            for c, obj in objects:
                inter = len(members & obj)
                if inter > best_inter:
                    best_cls, best_inter, best_iou = c, inter, inter / len(members | obj)
            if best_cls >= 0:
                features[k, best_cls] = best_iou
        features += rng.normal(0.0, 1.0 / synth.feature_snr, size=features.shape)
        out.append(sd.core.ImageRecord(
            id=rec.id,
            grid=rec.grid,
            proposals=proposals,
            features=np.vstack([np.asarray(rec.features, dtype=np.float64), features]),
            labels=rec.labels,
            saliency=rec.saliency,
            gt_boxes=rec.gt_boxes,
        ))
    return out


def setup_dense(sd, seed, workdir, tiny):
    bench = sd.benchmark
    train_records, test_records = bench.benchmark_datasets(seed)
    if tiny:
        train_records, test_records = train_records[:4], test_records[:4]
    rng = np.random.default_rng([seed, 1])
    return {
        "seed": seed,
        "train": densify(sd, train_records, bench.STANDARD_SYNTH, rng),
        "test": densify(sd, test_records, bench.STANDARD_SYNTH, rng),
        "tiny": tiny,
    }


def run_dense(sd, inputs, stats: RunStats):
    # the standard schedule: fewer epochs leave CorLoc and mAP varying
    # far more from seed to seed
    train_config = replace(
        sd.benchmark.STANDARD_TRAIN, shuffle_seed=inputs["seed"], init_seed=inputs["seed"]
    )
    if inputs["tiny"]:
        train_config = replace(train_config, epochs=2, phase_boundary=1)
    # both splits, so the stage is long enough to time
    for split in (inputs["train"], inputs["test"]):
        _seeds_stage(sd, stats, split, train_config.sigma)
    train_rep, test_rep = _train_and_eval(
        sd, stats, inputs["train"], (inputs["train"], inputs["test"]),
        train_config, "full/dense",
    )
    # one model per run: over ten seeds its train-split CorLoc spreads 0.10
    # and its test mAP 0.08 (IQR over median), the means over both splits
    # 0.02-0.07
    stats.corloc = (train_rep["mean_corloc"] + test_rep["mean_corloc"]) / 2
    stats.detection_map = (
        train_rep["mean_detection_ap"] + test_rep["mean_detection_ap"]
    ) / 2


# ---------------------------------------------------------------------------
# large images, through the CLI

def setup_large(sd, seed, workdir, tiny):
    knobs = dict(LARGE_SYNTH, images=4) if tiny else LARGE_SYNTH
    synth = sd.dataio.SynthConfig(seed=seed, **knobs)
    records, manifest = sd.dataio.generate_synthetic(synth)
    data_dir = Path(workdir) / "data"
    sd.dataio.save_dataset(records, manifest, data_dir)
    return {
        "records": records,
        "manifest": str(data_dir / "manifest.json"),
        "out": Path(workdir) / "out",
        "seed": seed,
    }


def _cli(sd, stats, argv):
    """Run ``saldet.cli.main`` in-process; returns (stdout text, scaled seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, elapsed = stats.clock.timed(sd.cli.main, argv)
    if code != 0:
        stats.problems.append(f"saldet {' '.join(argv[:2])} exited {code}")
    return buf.getvalue(), elapsed


def _seed_json_assignments(doc, records):
    """(seeds, negatives) per image from ``saldet seeds`` output, validated."""
    images = doc["images"]
    if sorted(images) != sorted(r.id for r in records):
        raise ValueError("seed JSON image ids differ from the dataset")
    out = {}
    for rec in records:
        entry = images[rec.id]
        seeds = tuple((int(c), v["seed_index"]) for c, v in sorted(entry["classes"].items()))
        negatives = tuple(entry["negatives"])
        if [c for c, _ in seeds] != list(rec.labels.positives):
            raise ValueError(f"{rec.id}: seeds do not cover exactly the positive classes")
        for i in [i for _, i in seeds] + list(negatives):
            if not 0 <= i < rec.num_proposals:
                raise ValueError(f"{rec.id}: proposal index {i} out of range")
        out[rec.id] = (seeds, negatives)
    return out


def run_large(sd, inputs, stats: RunStats):
    out = inputs["out"]
    out.mkdir(parents=True, exist_ok=True)
    seeds_path, ckpt = out / "seeds.json", out / "model.ckpt"
    data = inputs["manifest"]
    records = inputs["records"]
    n = len(records)

    _, elapsed = _cli(sd, stats, ["seeds", "--data", data, "--theta", LARGE_THETA,
                                  "--out", str(seeds_path)])
    stats.seeds_images += n
    stats.seeds_s += elapsed

    _, elapsed = _cli(sd, stats, ["train", "--data", data, "--out", str(ckpt),
                                  "--seed", str(inputs["seed"]), *LARGE_TRAIN_ARGS])
    stats.train_steps += LARGE_EPOCHS * n
    stats.train_s += elapsed

    text, elapsed = _cli(sd, stats, ["--json", "eval", "--data", data,
                                     "--checkpoint", str(ckpt)])
    stats.eval_images += n
    stats.eval_s += elapsed
    if stats.problems:
        return
    report = json.loads(text.strip().splitlines()[-1])
    check_report(stats, "eval", report)
    stats.corloc = report["mean_corloc"]
    stats.detection_map = report["mean_detection_ap"]

    seed_bytes = seeds_path.read_bytes()
    count_seed_hits(sd, stats, records,
                    _seed_json_assignments(json.loads(seed_bytes), records))
    stats.digests["seeds.json"] = hashlib.sha256(seed_bytes).hexdigest()
    stats.digests["model.ckpt"] = hashlib.sha256(ckpt.read_bytes()).hexdigest()


WORKLOADS = {
    "ablation": (setup_ablation, run_ablation),
    "dense_proposals": (setup_dense, run_dense),
    "large_images": (setup_large, run_large),
}
