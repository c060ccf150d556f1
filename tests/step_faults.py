"""Print the minor page faults and wall time of each default training step.

Run from any checkout as `python tests/step_faults.py [steps]` (default
30); it imports harecast from the `src` next to this file and runs BLAS on
one thread.  It builds the default `TrainConfig` model and training split
and then runs `steps` SGD steps as `train` does: draw a batch, run
`objective` with the stabilization loss, update every parameter.  Each step
prints `step <i> faults <minor faults> ms <wall ms>`, and a last line gives
the medians.  Before the first step it applies the heap setting the
`harecast` command applies (`cli.pin_heap`), so it measures what `harecast
train-toy` runs with.  Nothing else runs in the process first, so a step's
faults count any heap pages it returns to the kernel and takes back: the
allocation churn a benchmark loop that warms the heap first does not see.
Not a pytest module.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, as the benchmark runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harecast.cli import pin_heap  # noqa: E402
from harecast.nowcast.training import (  # noqa: E402
    TrainConfig,
    build_model,
    draw_batch,
    objective,
    render_dataset,
)
from harecast.synthdata import make_split  # noqa: E402
from harecast.tensor_core import SeededRng  # noqa: E402


def main(argv: list[str]) -> int:
    steps = int(argv[0]) if argv else 30
    pin_heap()
    cfg = TrainConfig()
    model = build_model(cfg)
    train_specs, _, _ = make_split(cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test, cfg.height, cfg.width)
    data = render_dataset(train_specs, cfg)
    rng = SeededRng(cfg.seed, stream=3000)
    faults, wall = [], []
    for step in range(steps):
        before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        batch, draws = draw_batch(model, data, cfg, rng)
        res = objective(model, batch, draws, cfg, hare_enabled=True)
        for name in sorted(model.params):
            model.params[name] -= cfg.learning_rate * res.grads[name]
        wall.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(f"step {step} faults {faults[-1]} ms {wall[-1]:.2f}")
    print(f"median faults {statistics.median(faults):g} ms {statistics.median(wall):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
