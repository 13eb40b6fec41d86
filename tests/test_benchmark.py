"""The ablation grid's composition, with training and evaluation stubbed out."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from saldet import benchmark


@pytest.fixture
def stubbed(monkeypatch):
    """Counts of generated splits, and each ``train`` call's (records, model config,
    train config)."""
    generated, trained = [], []
    real_generate = benchmark.generate_synthetic

    def generate(cfg):
        generated.append(cfg.seed)
        return real_generate(cfg)

    def train(records, model_config, train_config):
        trained.append((records, model_config, train_config))
        return object(), None

    def evaluate(params, records, config):
        return SimpleNamespace(mean_corloc=0.0, mean_detection_ap=0.0, records=records)

    monkeypatch.setattr(benchmark, "generate_synthetic", generate)
    monkeypatch.setattr(benchmark, "train", train)
    monkeypatch.setattr(benchmark, "evaluate", evaluate)
    monkeypatch.setattr(benchmark, "STANDARD_SYNTH", replace(benchmark.STANDARD_SYNTH, images=3))
    return generated, trained


def test_grid_generates_each_split_pair_once(stubbed):
    generated, trained = stubbed
    seeds = [3, 0, 4]
    result = benchmark.run_benchmark(seeds)
    base = (benchmark._TRAIN_SEED_BASE, benchmark._TEST_SEED_BASE)
    assert sorted(generated) == sorted(b + s for s in seeds for b in base)
    # variant-major, each seed's three variants on the very same lists
    assert [(r.variant, r.seed) for r in result.runs] == [
        (v, s) for v in benchmark.VARIANTS for s in seeds
    ]
    assert all(m is benchmark.STANDARD_MODEL for _, m, _ in trained)
    assert [(t.shuffle_seed, t.disable_saliency_subnet, t.disable_seed_losses)
            for _, _, t in trained] == [
        (s, v != "full", v == "baseline") for v in benchmark.VARIANTS for s in seeds
    ]
    for k, s in enumerate(seeds):
        runs = [r for r in result.runs if r.seed == s]
        train_lists = [trained[v * len(seeds) + k][0] for v in range(3)]
        assert all(records is train_lists[0] for records in train_lists)
        assert all(r.train_report.records is train_lists[0] for r in runs)
        assert len({id(r.test_report.records) for r in runs}) == 1
        assert runs[0].test_report.records is not train_lists[0]


def test_given_records_are_both_splits_of_every_run(stubbed):
    generated, trained = stubbed
    records, _ = benchmark.generate_synthetic(benchmark.STANDARD_SYNTH)
    generated.clear()
    result = benchmark.run_benchmark([0, 1], records=records)
    assert generated == []
    assert all(r is records for r, _, _ in trained)
    assert all(run.test_report is run.train_report for run in result.runs)


def test_given_records_size_the_standard_model(stubbed):
    _, trained = stubbed
    synth = replace(benchmark.STANDARD_SYNTH, classes=3, feature_dim=5)
    records, _ = benchmark.generate_synthetic(synth)
    benchmark.run_benchmark([0], records=records)
    sized = replace(benchmark.STANDARD_MODEL, feature_dim=5, num_classes=3)
    assert [m for _, m, _ in trained] == [sized] * 3


def test_given_no_records_is_refused():
    with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
        benchmark.run_benchmark([0], records=[])


def test_run_variant_refuses_an_unknown_variant():
    message = r"^unknown variant 'ful'; expected one of \('full', 'no_sal', 'baseline'\)$"
    with pytest.raises(ValueError, match=message):
        benchmark.run_variant("ful", 0)
