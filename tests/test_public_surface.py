"""Guards on the names other code reaches by attribute, and on how `src` writes files.

Every `__all__` entry must resolve, and every layer function the traced
benchmark wraps (perfbench/workloads.py `instrument`) must still exist, so
a deletion that would break an import or the traced run fails here first.
"""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harecast
from harecast import metrics
from harecast.cli import main
from harecast.nowcast.training import TrainConfig, build_model

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


def test_benchmark_conv_stages_are_the_denoiser_stage_table(monkeypatch):
    """Per-stage conv spans stay keyed on the denoiser's own stages, all six resolvable."""
    from harecast.nowcast.diffusion import DENOISER_STAGES

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    names = tuple(stage[0] for stage in DENOISER_STAGES)
    assert names == workloads.CONV_STAGES
    stage_of = workloads.conv_stage_names(build_model(TrainConfig()).params)
    assert sorted(stage_of.values()) == sorted(names)


class RecordingTracer(ResolvingTracer):
    """Stand-in for the benchmark's Tracer that keeps each span's name and counter."""

    def __init__(self):
        super().__init__()
        self.hooks = {}

    def patch(self, owner, attr, name, counter=None):
        super().patch(owner, attr, name, counter)
        self.hooks[owner.__name__, attr] = (name, counter)


def test_benchmark_conv_hooks_read_real_conv_calls(monkeypatch):
    """The traced run's conv span names and GFLOP/MB counts resolve on real conv calls."""
    from harecast.nowcast import diffusion

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    cfg = TrainConfig()
    model = build_model(cfg)
    stage_of = workloads.conv_stage_names(model.params)
    tracer = RecordingTracer()
    workloads.instrument(tracer, stage_of)

    calls = []
    for direction in ("forward", "backward"):
        original = getattr(diffusion, f"conv2d_{direction}")

        def recording(*args, _direction=direction, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((_direction, args, kwargs, result))
            return result

        monkeypatch.setattr(diffusion, f"conv2d_{direction}", recording)
    rng = np.random.default_rng(0)
    bsz = 2
    x_t = rng.normal(size=(bsz, cfg.frames_out, cfg.height, cfg.width))
    cond = rng.normal(size=(bsz, cfg.cond_dim))
    eps_hat, cache = diffusion.denoiser_forward(x_t, np.array([1, 500]), cond, model.cfg, model.params)
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    diffusion.denoiser_backward(np.ones_like(eps_hat), model.cfg, model.params, cache, grads)

    seen = {"forward": set(), "backward": set()}
    for direction, args, kwargs, result in calls:
        name, counter = tracer.hooks["harecast.nowcast.diffusion", f"conv2d_{direction}"]
        label = name(*args, **kwargs)
        stage = label.rsplit(".", 1)[1]
        assert label == f"nowcast.convnet.conv2d_{direction}.{stage}" and stage in stage_of.values()
        counts = counter(args, result)
        assert set(counts) == {f"nowcast.convnet.{stage}.gflop", f"nowcast.convnet.{stage}.mb_moved"}
        assert all(value > 0 for value in counts.values())
        seen[direction].add(stage)
    assert seen["forward"] == seen["backward"] == set(stage_of.values())
    assert len(stage_of) == 6


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


def _writes_file(call: ast.Call) -> bool:
    """Whether a call opens a file to write it, or is write_text / write_bytes.

    A call named `open` writes when its mode holds w, a or x.  The mode is
    the `mode` keyword, else `open(file, mode)`'s second or a method
    `.open(mode)`'s first argument; with neither, the call reads.
    """
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    if not modes:
        return False
    if not (isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)):
        return True  # a mode the AST cannot read counts as a write
    return bool(set(modes[0].value) & set("wax"))


def file_writers(source: str) -> set[str]:
    """Names of the functions in `source` that hold a file write."""
    writers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call) and _writes_file(child):
                writers.add(inner)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return writers


def test_file_writer_guard_sees_each_write_form():
    writes = ["open(p, 'w')", "open(p, mode='ab')", "open(p, m)", "p.open('x')", "gzip.open(p, 'wt')",
              "os.open(p, flags)", "p.write_text(s)", "p.write_bytes(b)"]
    reads = ["open(p)", "open(p, 'rb')", "p.open()", "p.open('r')", "p.read_text()", "fh.write(b)"]
    for call in writes + reads:
        assert file_writers(f"def f():\n    {call}\n") == ({"f"} if call in writes else set()), call


def test_one_function_writes_files():
    """Every artifact reaches disk through synthdata.write_artifact: no other code in src writes a file."""
    src = Path(harecast.__file__).resolve().parent
    writers = {(path.relative_to(src).as_posix(), name) for path in sorted(src.rglob("*.py"))
               for name in file_writers(path.read_text(encoding="utf-8"))}
    assert writers == {("synthdata.py", "write_artifact")}


def test_train_toy_flags_are_the_config_fields(capsys):
    """One --key flag per TrainConfig field, plus --config and --out: no duplicate knobs."""
    with pytest.raises(SystemExit) as exc:
        main(["train-toy", "--help"])
    assert exc.value.code == 0
    offered = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)}
    assert offered == fields | {"--config", "--out"}


def test_benchmark_units_run_clean(monkeypatch):
    """Every benchmark unit sets up and runs two checked ops on the current API."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads.UNITS["verify_theory"], "trials", 200)
    for name, unit in workloads.UNITS.items():
        st = unit.setup(3)
        for i in range(2):
            assert unit.check(st, i, unit.op(st, i)) == [], name


def test_import_loads_no_scipy():
    """scipy loads on the first paired_t_test call, not on import."""
    code = (
        "import sys\n"
        "import harecast.cli, harecast.nowcast.training\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "from harecast.metrics import paired_t_test\n"
        "print(repr(paired_t_test([2, 2, 2, 0], [1, 1, 1, 1]).p))\n"
    )
    src = str(Path(harecast.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    loaded, p = proc.stdout.splitlines()
    assert loaded == "[]"
    assert float(p) == 0.3910022189557705
