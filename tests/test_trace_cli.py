import contextlib
import dataclasses
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harecast import cli
from harecast.cli import main
from harecast.errors import ConfigError, DataError
from harecast.metrics import SEVIR_THRESHOLDS, evaluate_pair
from harecast.nowcast import training
from harecast.synthdata import save_tensors
from harecast.trace import TraceRecord, analyze_trace, read_trace, write_trace


def rec(step=0, batch=0, layer=0, head=0, sample=0, energy=1.0, csi=None):
    return TraceRecord(
        run_id="r", step=step, batch_id=batch, layer=layer, head=head,
        sample=sample, energy=energy, batch_csi_m=csi,
    )


def small_trace():
    records = []
    rng = np.random.default_rng(0)
    for batch, csi in ((0, 0.4), (1, 0.2)):
        for layer in range(2):
            for head in range(2):
                for sample in range(3):
                    records.append(
                        rec(batch=batch, layer=layer, head=head, sample=sample,
                            energy=float(rng.uniform(0, 4)), csi=csi)
                    )
    return records


# The micro train-toy arguments of acceptance criterion 10.
MICRO = ["--steps", "3", "--n-train", "4", "--n-val", "2", "--n-test", "2",
         "--batch-size", "2", "--probe-batches", "1", "--trace-every", "1",
         "--height", "16", "--width", "16", "--frames-in", "2", "--frames-out", "2",
         "--patch", "8", "--dim", "8", "--layers", "1", "--heads", "2",
         "--den-base", "4", "--den-mid", "6", "--den-bottleneck", "8"]


class TestTraceIO:
    def test_round_trip_bytes(self, tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_trace(p1, small_trace())
        write_trace(p2, read_trace(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(small_trace()[0].to_line() + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            read_trace(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "dup.jsonl"
        write_trace(p, [rec(), rec()])
        with pytest.raises(DataError, match="duplicate"):
            read_trace(p)

    def test_optional_csi_field_round_trips(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_trace(p, [rec(csi=0.5), rec(sample=1)])
        got = read_trace(p)
        assert got[0].batch_csi_m == 0.5
        assert got[1].batch_csi_m is None

    @pytest.mark.parametrize("key,raw", [
        ("energy", "NaN"), ("energy", "Infinity"), ("energy", "1e999"),
        ("batch_csi_m", "NaN"), ("batch_csi_m", "-Infinity"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, raw):
        p = tmp_path / "nf.jsonl"
        values = {"energy": "1.0", "batch_csi_m": "0.5", key: raw}
        line = ('{"run_id":"r","step":0,"batch_id":0,"layer":0,"head":0,"sample":1,'
                f'"energy":{values["energy"]},"batch_csi_m":{values["batch_csi_m"]}}}')
        p.write_text(rec(csi=0.5).to_line() + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-finite value at line 2"):
            read_trace(p)
        assert main(["analyze", "--input", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["energy", "csi"])
    def test_non_finite_value_not_written(self, field):
        with pytest.raises(DataError, match="non-finite"):
            rec(**{field: float("nan")}).to_line()


class TestAnalyze:
    def test_order_independence(self):
        records = small_trace()
        shuffled = list(records)
        np.random.default_rng(1).shuffle(shuffled)
        a = analyze_trace(records, split_by_csi=True)
        b = analyze_trace(shuffled, split_by_csi=True)
        assert [hm.label for hm in a] == [hm.label for hm in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.grid, y.grid)

    def test_csi_grouping_rule(self):
        # csi {0.4, 0.2}: mean 0.3, first batch accurate, second inaccurate.
        heat = analyze_trace(small_trace(), split_by_csi=True)
        by_label = {hm.label: hm for hm in heat}
        assert by_label["accurate"].batches == 1
        assert by_label["inaccurate"].batches == 1
        assert by_label["all"].batches == 2

    def test_constant_energies_zero_variance(self):
        records = [rec(sample=s, energy=2.5) for s in range(4)]
        heat = analyze_trace(records)
        assert heat[0].grid[0, 0] == 0.0

    def test_spreadsheet_oracle(self):
        # Hand-built 2-layer 2-head, 3-sample batch; unbiased variances.
        energies = {
            (0, 0): [1.0, 2.0, 3.0],
            (0, 1): [2.0, 2.0, 2.0],
            (1, 0): [0.0, 4.0, 8.0],
            (1, 1): [1.0, 1.0, 4.0],
        }
        records = [
            rec(layer=l, head=h, sample=s, energy=e)
            for (l, h), vals in energies.items()
            for s, e in enumerate(vals)
        ]
        grid = analyze_trace(records)[0].grid
        assert grid[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert grid[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert grid[1, 0] == pytest.approx(16.0, abs=1e-12)
        assert grid[1, 1] == pytest.approx(3.0, abs=1e-12)

    def test_split_requires_csi_everywhere(self):
        records = small_trace() + [rec(batch=7, sample=0), rec(batch=7, sample=1)]
        with pytest.raises(ConfigError):
            analyze_trace(records, split_by_csi=True)

    def test_single_sample_batch_rejected(self):
        with pytest.raises(ConfigError):
            analyze_trace([rec()])

    def test_per_batch_mode(self):
        heat = analyze_trace(small_trace(), per_batch=True)
        assert [hm.label for hm in heat] == ["batch_0_0", "batch_0_1"]


class TestCliCommands:
    def run(self, *argv):
        return main(list(argv))

    def test_analyze_deterministic_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        write_trace(trace, small_trace())
        outs = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            svg = tmp_path / f"{tag}.svg"
            assert self.run("analyze", "--input", str(trace), "--split-by-csi",
                            "--out-csv", str(csv), "--out-svg", str(svg)) == 0
            outs.append((csv.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]
        assert b'data-value=' in outs[0][1]
        assert outs[0][1].startswith(b"<svg xmlns=")

    def test_verify_theory_deterministic_and_fault_hook(self, tmp_path, capsys):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        assert self.run("verify-theory", "--trials", "60", "--seed", "5", "--report", str(r1)) == 0
        assert self.run("verify-theory", "--trials", "60", "--seed", "5", "--report", str(r2)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert self.run("verify-theory", "--trials", "30", "--seed", "5",
                        "--rhs-scale", "1.1", "--report", str(tmp_path / "bad.txt")) == 1

    def test_train_toy_determinism_and_ablation_flags(self, tmp_path, capsys):
        args = ["--steps", "4", "--n-train", "4", "--n-val", "2", "--n-test", "2",
                "--batch-size", "2", "--probe-batches", "1", "--trace-every", "2",
                "--height", "16", "--width", "16", "--frames-in", "2", "--frames-out", "2",
                "--patch", "8", "--dim", "8", "--layers", "1", "--heads", "2",
                "--den-base", "4", "--den-mid", "6", "--den-bottleneck", "8"]
        for tag in ("one", "two"):
            assert self.run("train-toy", "--out", str(tmp_path / tag), *args) == 0
        for name in ("model.bin", "trace.jsonl", "probe_trace.jsonl", "losses.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        # the zero-weight ablation; criterion 7 checks it bitwise against the disabled build
        assert self.run("train-toy", "--out", str(tmp_path / "zero"), "--lambda-hare", "0", *args) == 0

    def test_invalid_alpha_rejected(self, tmp_path, capsys):
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--alpha", "1.5") == 2

    @pytest.mark.parametrize("time_dim", ["7", "0", "-4"])
    def test_odd_or_nonpositive_time_dim_rejected(self, tmp_path, capsys, time_dim):
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--time-dim", time_dim) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: time_dim") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_zero_steps_rejected_before_training(self, tmp_path, capsys):
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--steps", "0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: steps") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_n_val_below_batch_size_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "objective", lambda *args, **kw: calls.append(1))
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--n-val", "4") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_val") and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag,raw,names", [
        ("--sample-steps", "0", "sample_steps"),
        ("--sample-steps", "1001", "sample_steps"),
        ("--probe-batches", "0", "probe_batches"),
        ("--lambda-hare", "nan", "lambda_hare"),
        ("--lambda-recon", "-1", "lambda_recon"),
        ("--lambda-diff", "inf", "lambda_diff"),
        ("--learning-rate", "0", "learning_rate"),
        ("--learning-rate", "-0.1", "learning_rate"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "inf", "learning_rate"),
        ("--patch", "0", "patch"),
        ("--den-heads", "0", "heads"),
    ])
    def test_invalid_value_rejected_before_training(self, tmp_path, capsys, monkeypatch, flag, raw, names):
        calls = []
        monkeypatch.setattr(training, "objective", lambda *args, **kw: calls.append(1))
        assert self.run("train-toy", "--out", str(tmp_path / "x"), f"{flag}={raw}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("learning_rate,where", [("1e6", "at step 2"), ("1e3", "held-out probe")])
    def test_diverged_run_exits_2_and_writes_nothing(self, tmp_path, capsys, learning_rate, where):
        out = tmp_path / "x"
        assert self.run("train-toy", "--out", str(out), *MICRO, "--learning-rate", learning_rate) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged") and where in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key,raw", [("steps", "abc"), ("steps", "1.5"), ("learning_rate", "fast")])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_non_numeric_value_rejected(self, tmp_path, capsys, key, raw, route):
        if route == "flag":
            argv = [f"--{key.replace('_', '-')}", raw]
        else:
            cfgfile = tmp_path / "c.cfg"
            cfgfile.write_text(f"{key} = {raw}\n", encoding="utf-8")
            argv = ["--config", str(cfgfile)]
        assert self.run("train-toy", "--out", str(tmp_path / "x"), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and repr(raw) in err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("bogus_key = 3\n", encoding="utf-8")
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--config", str(cfgfile)) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err

    def test_config_file_and_comments(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "steps = 3   # short run\nheight = 16\nwidth = 16\nframes_in = 2\n"
            "frames_out = 2\npatch = 8\ndim = 8\nlayers = 1\nheads = 2\n"
            "den_base = 4\nden_mid = 6\nden_bottleneck = 8\nbatch_size = 2\n"
            "n_train = 4\nn_val = 2\nn_test = 2\nprobe_batches = 1\n",
            encoding="utf-8",
        )
        assert self.run("train-toy", "--out", str(tmp_path / "out"), "--config", str(cfgfile)) == 0
        out = capsys.readouterr().out
        assert "steps: 3" in out

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert self.run("analyze", "--input", str(tmp_path / "nope.jsonl")) == 3

    def test_gradcheck_pass_and_perturbed_failure(self, capsys):
        assert self.run("gradcheck", "--seed", "0", "--seeds", "1") == 0
        assert self.run("gradcheck", "--seed", "0", "--seeds", "1",
                        "--perturb-param", "wk", "--perturb-eps", "1e-3") == 1
        out = capsys.readouterr().out
        assert "wk[" in out  # failure names the parameter


class TestCliEval:
    def make_dirs(self, tmp_path, mutate=None):
        pred_dir = tmp_path / "pred"
        truth_dir = tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        rng = np.random.default_rng(2)
        for i in range(3):
            frames = rng.uniform(0, 1, size=(2, 16, 16))
            truth = frames
            pred = frames if mutate is None else mutate(frames)
            save_tensors(truth_dir / f"e{i}.bin", {"frames": truth})
            save_tensors(pred_dir / f"e{i}.bin", {"frames": pred})
        return pred_dir, truth_dir

    def test_perfect_forecast(self, tmp_path, capsys):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 0
        text = csv.read_text()
        assert "csi_m,1.0" in text
        assert "hss,1.0" in text
        assert "ssim,1.0" in text

    def test_zero_predictions(self, tmp_path, capsys):
        pred_dir, truth_dir = self.make_dirs(tmp_path, mutate=lambda f: np.zeros_like(f))
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--profile", "meteonet-like", "--out-csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        csi_rows = [l for l in lines if l.startswith("csi_1")]
        assert all(l.endswith(",0.0") for l in csi_rows)

    def test_displacement_pooling(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        truth_dir = tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        pred = np.zeros((1, 16, 16))
        truth = np.zeros((1, 16, 16))
        pred[0, 0, 0] = 1.0
        truth[0, 2, 2] = 1.0
        save_tensors(pred_dir / "a.bin", {"frames": pred})
        save_tensors(truth_dir / "a.bin", {"frames": truth})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 0
        rows = dict(line.split(",") for line in csv.read_text().splitlines()[1:])
        assert float(rows["csi_m"]) == 0.0
        assert float(rows["pooled_csi_4"]) == 1.0

    def test_csv_is_the_evaluate_pair_bundle(self, tmp_path, capsys):
        pred_dir, truth_dir = tmp_path / "pred", tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        rng = np.random.default_rng(3)
        # Fields below 0.8 never reach the 219/255 threshold: it is skipped.
        pred, truth = (0.8 * rng.uniform(0, 1, size=(2, 16, 16)) for _ in range(2))
        save_tensors(pred_dir / "a.bin", {"frames": pred})
        save_tensors(truth_dir / "a.bin", {"frames": truth})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 0
        scores = evaluate_pair(pred, truth, SEVIR_THRESHOLDS)
        want = ["metric,value"]
        for thr in SEVIR_THRESHOLDS:
            value = scores["csi_per_threshold"].get(thr)
            want.append(f"csi_{thr},{'skipped' if value is None else repr(value)}")
        for name in ("csi_m", "pooled_csi_4", "pooled_csi_16", "hss", "ssim"):
            want.append(f"{name},{scores[name]!r}")
        assert "csi_219,skipped" in want
        assert csv.read_text().splitlines() == want

    @pytest.mark.parametrize("cut", ["bad_magic", "cut_header", "cut_payload", "bad_name", "trailing",
                                     "overflow"])
    def test_malformed_tensor_file_is_io_error(self, tmp_path, capsys, cut):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        path = pred_dir / "e1.bin"
        blob = path.read_bytes()
        path.write_bytes({"bad_magic": b"XXXX" + blob[4:],
                          "cut_header": blob[:10],
                          "cut_payload": blob[:-8],
                          "bad_name": blob.replace(b"frames", b"\xfframes", 1),
                          "trailing": blob + b"garbage",
                          # shape (2**31, 2**31, 4) wraps an int64 element count to 0
                          "overflow": tensor_file((2**31, 2**31, 4), blob[29:])}[cut])
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "e1.bin" in err and err.count("\n") == 1

    @pytest.mark.parametrize("side,bad", [("pred", np.nan), ("truth", np.inf), ("pred", -np.inf)])
    def test_non_finite_frames_are_io_error(self, tmp_path, capsys, side, bad):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        path = {"pred": pred_dir, "truth": truth_dir}[side] / "e1.bin"
        frames = np.random.default_rng(4).uniform(0, 1, size=(2, 16, 16))
        frames[1, 3, 5] = bad
        save_tensors(path, {"frames": frames})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "e1.bin" in err and err.count("\n") == 1
        assert not csv.exists()

    def test_frame_sizes_differ_across_files(self, tmp_path, capsys):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        for d in (pred_dir, truth_dir):
            save_tensors(d / "e1.bin", {"frames": np.full((2, 8, 8), 0.5)})
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: frame sizes differ") and err.count("\n") == 1

    def test_mismatched_files_listed(self, tmp_path, capsys):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        (pred_dir / "extra.bin").write_bytes((pred_dir / "e0.bin").read_bytes())
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir)]) == 2
        assert "extra.bin" in capsys.readouterr().err


class FuzzSentinel(Exception):
    """Raised in place of training once a fuzzed config is accepted."""


TRAIN_DEFAULTS = {f.name: str(f.default) for f in dataclasses.fields(training.TrainConfig)}
FUZZ_VALUE = st.one_of(
    st.integers(-3, 9).map(str),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e-300", "", "abc", "1,5", "0x10", "true", "-", "é"]),
)
TRACE_KEYS = ["run_id", "step", "batch_id", "layer", "head", "sample", "energy", "batch_csi_m"]


def tensor_file(shape, payload=b""):
    """A one-entry tensor container whose header claims `shape`."""
    return (b"HCT1" + struct.pack("<IH", 1, 6) + b"frames" + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape) + payload)


def trace_lines(*rows):
    return "\n".join(json.dumps(row) for row in rows).encode()


def run_captured(argv):
    """(exit code or the sentinel, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except FuzzSentinel:
            code = FuzzSentinel
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3, FuzzSentinel), code
    assert err.count("\n") <= 1 and "Traceback" not in err, err


class TestCliFuzz:
    """Random configs and input files end in a documented exit code and one stderr line."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        # every key fuzzed, or defaults with a few keys fuzzed
        st.fixed_dictionaries({key: st.one_of(st.just(default), FUZZ_VALUE)
                               for key, default in TRAIN_DEFAULTS.items()}),
        st.dictionaries(st.sampled_from(sorted(TRAIN_DEFAULTS)), FUZZ_VALUE, max_size=3).map(
            lambda fuzzed: {**TRAIN_DEFAULTS, **fuzzed}),
    ))
    @example({**TRAIN_DEFAULTS, "patch": "0"})
    @example({**TRAIN_DEFAULTS, "den_heads": "0"})
    def test_train_toy_config(self, values):
        def sentinel(*args, **kwargs):
            raise FuzzSentinel

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "train", sentinel)
            out = Path(tmp) / "out"
            argv = ["train-toy", "--out", str(out)]
            argv += [f"--{key.replace('_', '-')}={raw}" for key, raw in values.items()]
            code, err = run_captured(argv)
            assert_clean_exit(code, err)
            assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: b"HCT1" + b),
        st.tuples(st.lists(st.integers(0, 4), max_size=4), st.binary(max_size=8 * 64)).map(
            lambda t: tensor_file(*t)),
    ))
    @example(tensor_file((), bytes(8)))
    @example(tensor_file((2**31, 2**31, 4)))
    def test_eval_tensor_file(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            pred_dir, truth_dir = Path(tmp) / "pred", Path(tmp) / "truth"
            pred_dir.mkdir()
            truth_dir.mkdir()
            (pred_dir / "a.bin").write_bytes(blob)
            save_tensors(truth_dir / "a.bin", {"frames": np.full((2, 4, 4), 0.5)})
            assert_clean_exit(*run_captured(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir)]))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.lists(st.dictionaries(
            st.sampled_from(TRACE_KEYS),
            st.one_of(st.integers(-2, 3), st.floats(), st.text(max_size=3), st.none(), st.booleans()),
        ), max_size=8).map(lambda rows: trace_lines(*rows)),
    ))
    @example(b"\x80")
    @example(trace_lines(*(dict(zip(TRACE_KEYS, ["r", 0, 0, -1, 0, s, 1.0, 0.5])) for s in (0, 1))))
    @example(trace_lines(dict(zip(TRACE_KEYS, ["r", math.inf, 0, 0, 0, 0, 1.0]))))
    def test_analyze_trace_file(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            path.write_bytes(blob)
            assert_clean_exit(*run_captured(["analyze", "--input", str(path), "--split-by-csi"]))
