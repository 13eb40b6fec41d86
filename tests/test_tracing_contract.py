"""The benchmark's tracer (``perfbench/tracing.py``) wraps saldet functions by name.

An API change that renames or removes a traced function, or stops calling
it through its module, breaks ``perfbench/run.py --trace 1``; these tests
load the tracer read-only and catch that here.
"""

import importlib
import importlib.util
from pathlib import Path

from saldet.dataio import SynthConfig, generate_synthetic
from saldet.model import ModelConfig, init_params
from saldet.trainer import TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = load_tracing().TARGETS
    missing = [
        f"saldet.{module}.{function}"
        for module, functions in targets.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"saldet.{module}"), function, None))
    ]
    assert missing == []


def load_traced_tracing():
    tracing = load_tracing()
    for module in tracing.TARGETS:  # the tracer wraps every target module
        importlib.import_module(f"saldet.{module}")
    return tracing


def test_evaluate_calls_each_traced_stage():
    tracing = load_traced_tracing()
    evaluate = importlib.import_module("saldet.evaluate")
    records, _ = generate_synthetic(SynthConfig(images=3, seed=1))
    config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,), saliency_hidden=4)
    params = init_params(config, 0)
    tracer = tracing.Tracer()
    with tracer:
        evaluate.evaluate(params, records, config)
    called = {tracer.names[span[0]] for span in tracer.spans}
    assert {f"evaluate.{f}" for f in tracing.TARGETS["evaluate"]} <= called
    assert "accel.nms_keep" in called
    counters = tracer.counters[False]
    assert counters["evaluate.nms.in"] == sum(r.num_proposals * 4 for r in records)
    assert 0 < counters["evaluate.nms.kept"] <= counters["evaluate.nms.in"]


def test_train_steps_run_in_the_kernel_inside_the_train_span():
    # a step is one call of the step kernel, not of the public
    # ``loss_and_grads`` and ``sgd_step``: their traced spans, and so
    # perfbench's step_us_p50/p99, read nothing, and the steps' time is
    # the ``trainer.train`` span's self time
    tracing = load_traced_tracing()
    trainer = importlib.import_module("saldet.trainer")
    records, _ = generate_synthetic(SynthConfig(images=4, seed=1))
    config = ModelConfig(feature_dim=16, num_classes=4, trunk_widths=(8,), saliency_hidden=4)
    tracer = tracing.Tracer()
    with tracer:
        trainer.train(records, config, TrainConfig(epochs=3))
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("trainer.train") == 1
    assert not {"model.loss_and_grads", "trainer.sgd_step", "model.forward"} & set(names)
    assert tracer.step_times_us() == []
