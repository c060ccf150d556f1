"""Guards on the names other code reaches by attribute.

Every `__all__` entry must resolve, and every layer function the traced
benchmark wraps (perfbench/workloads.py `instrument`) must still exist, so
a deletion that would break an import or the traced run fails here first.
"""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import harecast
from harecast import metrics
from harecast.cli import main
from harecast.nowcast.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def harecast_modules():
    names = ["harecast"] + [
        info.name for info in pkgutil.walk_packages(harecast.__path__, prefix="harecast.")
    ]
    return [importlib.import_module(name) for name in names]


@pytest.mark.parametrize("module", harecast_modules(), ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


class ResolvingTracer:
    """Stand-in for the benchmark's Tracer: only looks each attribute up."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name, counter=None):
        getattr(owner, attr)
        self.patched.append((owner, attr))


def test_benchmark_instrumentation_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = ResolvingTracer()
    workloads.instrument(tracer, stage_of={})
    assert tracer.patched


def test_evaluate_pair_reaches_traced_metrics_by_attribute(monkeypatch):
    """The traced benchmark's metrics.ssim and metrics.pooled_csi spans stay populated."""
    calls = {"ssim": 0, "pooled_csi": 0}
    for name in calls:
        original = getattr(metrics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counting)
    field = np.linspace(0.0, 1.0, 2 * 16 * 16).reshape(2, 16, 16)
    metrics.evaluate_pair(field, field[::-1].copy(), metrics.SEVIR_THRESHOLDS)
    assert calls["ssim"] >= 1 and calls["pooled_csi"] >= 1


def test_train_toy_flags_are_the_config_fields(capsys):
    """One --key flag per TrainConfig field, plus --config and --out: no duplicate knobs."""
    with pytest.raises(SystemExit) as exc:
        main(["train-toy", "--help"])
    assert exc.value.code == 0
    offered = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)}
    assert offered == fields | {"--config", "--out"}
