import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import math
import os
import resource
import stat
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harecast import attention, cli
from harecast.cli import main
from harecast.errors import ConfigError, DataError
from harecast.metrics import SEVIR_THRESHOLDS, evaluate_pair, pooled_csi
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

    def test_blank_lines_are_skipped(self, tmp_path):
        plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
        write_trace(plain, small_trace())
        spaced.write_text("\n\n".join(plain.read_text().splitlines()) + "\n\n  \n", encoding="utf-8")
        assert read_trace(spaced) == read_trace(plain)
        for trace in (plain, spaced):
            assert main(["analyze", "--input", str(trace), "--out-csv", str(trace.with_suffix(".csv"))]) == 0
        assert plain.with_suffix(".csv").read_bytes() == spaced.with_suffix(".csv").read_bytes()

    def test_deeply_nested_line_is_malformed(self, tmp_path, capsys):
        # json's parser recurses once per bracket and runs out of stack.
        p = tmp_path / "deep.jsonl"
        p.write_text("[" * 200_000 + "]" * 200_000 + "\n", encoding="utf-8")
        assert main(["analyze", "--input", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: malformed trace record at line 1: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_refused_record_leaves_the_old_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_trace(p, small_trace())
        old = p.read_bytes()
        with pytest.raises(DataError, match="non-finite"):
            write_trace(p, [rec(), rec(sample=1, energy=float("nan"))])
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["t.jsonl"]

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

    @pytest.mark.parametrize("key,raw", [
        ("step", "1.7"), ("batch_id", '"0"'), ("layer", "false"), ("head", "true"),
        ("sample", "1.0"), ("energy", '"1.5"'), ("energy", "true"), ("run_id", "7"),
    ])
    def test_mistyped_field_rejected(self, tmp_path, capsys, key, raw):
        # Truncating step 1.7 to 1 would merge this record into the first one's batch.
        p = tmp_path / "typed.jsonl"
        values = {"run_id": '"r"', "step": "1", "batch_id": "0", "layer": "0", "head": "0",
                  "sample": "1", "energy": "1.0", key: raw}
        line = "{" + ",".join(f'"{k}":{v}' for k, v in values.items()) + "}"
        p.write_text(rec(step=1).to_line() + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"line 2: {key} must be"):
            read_trace(p)
        assert main(["analyze", "--input", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["energy", "csi"])
    def test_non_finite_value_not_written(self, field):
        with pytest.raises(DataError, match="non-finite"):
            rec(**{field: float("nan")}).to_line()

    @pytest.mark.parametrize("records,match", [
        # only layer 3, head 2: the other 11 cells of a 4 x 3 grid were never traced
        ([rec(layer=3, head=2, sample=s) for s in (0, 1)], "indices must each run from 0 without gaps"),
        # batch 1 lacks cell (layer 1, head 1), which batch 0 has
        ([r for r in small_trace() if (r.batch_id, r.layer, r.head) != (1, 1, 1)], "holds 3 of the 4"),
        # one sample has no cross-sample variance
        ([rec()], r"batch \('r', 0, 0\) cell \(layer 0, head 0\) has fewer than 2 samples"),
    ], ids=["sparse_indices", "missing_cell", "single_sample_cell"])
    def test_incomplete_grid_rejected(self, tmp_path, capsys, records, match):
        p = tmp_path / "t.jsonl"
        write_trace(p, records)
        with pytest.raises(DataError, match=match):
            analyze_trace(read_trace(p))
        csv = tmp_path / "hm.csv"
        assert main(["analyze", "--input", str(p), "--out-csv", str(csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not csv.exists()


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
        records = small_trace() + [
            rec(batch=7, layer=layer, head=head, sample=sample)
            for layer in range(2) for head in range(2) for sample in range(2)
        ]
        with pytest.raises(ConfigError):
            analyze_trace(records, split_by_csi=True)

    def test_single_sample_batch_rejected(self):
        with pytest.raises(DataError, match="fewer than 2 samples"):
            analyze_trace([rec()])

    def test_per_batch_mode(self):
        heat = analyze_trace(small_trace(), per_batch=True)
        assert [hm.label for hm in heat] == ["r/batch_0_0", "r/batch_0_1"]

    def test_per_batch_labels_name_the_run(self, tmp_path):
        # Two runs share step 0, batch 0; their grids differ and so must their labels.
        records = [
            dataclasses.replace(rec(sample=s, energy=e), run_id=run)
            for run, energies in (("a", (1.0, 2.0)), ("b", (1.0, 3.0)))
            for s, e in enumerate(energies)
        ]
        heat = analyze_trace(records, per_batch=True)
        assert [(hm.label, hm.grid[0, 0]) for hm in heat] == [("a/batch_0_0", 0.5), ("b/batch_0_0", 2.0)]
        trace, csv_path = tmp_path / "t.jsonl", tmp_path / "hm.csv"
        write_trace(trace, records)
        assert main(["analyze", "--input", str(trace), "--per-batch", "--out-csv", str(csv_path)]) == 0
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a/batch_0_0", "b/batch_0_0"]

    def test_per_batch_run_id_survives_csv_and_svg(self, tmp_path):
        run_id = 'a,"<b>'
        trace, csv_path, svg = tmp_path / "t.jsonl", tmp_path / "hm.csv", tmp_path / "hm.svg"
        write_trace(trace, [dataclasses.replace(rec(sample=s), run_id=run_id) for s in (0, 1)])
        assert main(["analyze", "--input", str(trace), "--per-batch",
                     "--out-csv", str(csv_path), "--out-svg", str(svg)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["group", "layer", "head", "variance"], [f"{run_id}/batch_0_0", "0", "0", "0.0"]]
        root = ElementTree.parse(svg).getroot()
        groups = {el.get("data-group") for el in root.iter("{http://www.w3.org/2000/svg}rect")}
        assert f"{run_id}/batch_0_0" in groups

    def test_empty_group_has_no_grid(self):
        # Both batches share CSI-M 0.5: none falls below the mean.
        records = [dataclasses.replace(r, batch_csi_m=0.5) for r in small_trace()]
        heat = {hm.label: hm for hm in analyze_trace(records, split_by_csi=True)}
        assert heat["inaccurate"].batches == 0 and heat["inaccurate"].grid is None
        assert heat["accurate"].batches == 2
        np.testing.assert_array_equal(heat["accurate"].grid, heat["all"].grid)

    def test_split_and_per_batch_refused(self):
        with pytest.raises(ConfigError, match="^--split-by-csi and --per-batch cannot be combined"):
            analyze_trace(small_trace(), split_by_csi=True, per_batch=True)


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

    def test_analyze_empty_group_writes_nothing(self, tmp_path, capsys):
        trace, csv_path, svg = tmp_path / "t.jsonl", tmp_path / "v.csv", tmp_path / "v.svg"
        write_trace(trace, [dataclasses.replace(r, batch_csi_m=0.5) for r in small_trace()])
        assert self.run("analyze", "--input", str(trace), "--split-by-csi",
                        "--out-csv", str(csv_path), "--out-svg", str(svg)) == 0
        out = capsys.readouterr().out.splitlines()
        assert "group inaccurate: 0 batches" in out
        assert {line.split(":")[0] for line in out} == {"group accurate", "group inaccurate", "group all"}
        rows = csv_path.read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"accurate", "all"} and len(rows) == 8
        root = ElementTree.parse(svg).getroot()
        groups = {el.get("data-group") for el in root.iter("{http://www.w3.org/2000/svg}rect")}
        assert groups - {None} == {"accurate", "all"}

    @pytest.mark.parametrize("flags", [[], ["--per-batch"], ["--split-by-csi"]])
    def test_analyze_overflowing_variance_refused_before_writing(self, tmp_path, capsys, flags):
        # Finite energies 1e300 and 0.0: their variance overflows float64.
        trace = tmp_path / "t.jsonl"
        write_trace(trace, [TraceRecord("r", 0, 0, 0, 0, s, e, 0.5) for s, e in ((0, 1e300), (1, 0.0))])
        before = sorted(tmp_path.rglob("*"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the command line would print a warning to stderr
            assert self.run("analyze", "--input", str(trace), *flags, "--out-csv", str(tmp_path / "o" / "v.csv"),
                            "--out-svg", str(tmp_path / "o" / "v.svg")) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: group ") and "overflows float64" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_analyze_split_and_per_batch_refused_before_reading(self, tmp_path, capsys):
        # The input does not exist: the flags are refused before it is opened.
        assert self.run("analyze", "--input", str(tmp_path / "none.jsonl"),
                        "--split-by-csi", "--per-batch") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --split-by-csi and --per-batch") and err.count("\n") == 1

    def test_verify_theory_deterministic_and_fault_hook(self, tmp_path, capsys, request):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        assert self.run("verify-theory", "--trials", "60", "--seed", "5", "--report", str(r1)) == 0
        assert self.run("verify-theory", "--trials", "60", "--seed", "5", "--report", str(r2)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        capsys.readouterr()
        request.getfixturevalue("broken_lemma1")
        assert self.run("verify-theory", "--trials", "30", "--seed", "5",
                        "--report", str(tmp_path / "bad.txt")) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_verify_theory_rhs_scale_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("verify-theory", "--trials", "30", "--rhs-scale", "0")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("verify-theory", "--trials", "abc"),
        ("gradcheck", "--seeds", "x"),
        ("verify-theory", "--bogus"),
        ("train-toy", "--out", "x", "--mask-strategy", "x"),  # mask_fraction alone sets the mask
        ("eval", "--pred", "p"),
        ("nope",),
        (),
    ])
    def test_usage_error_prints_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: harecast"), err

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

    def test_train_toy_counts_event_free_probe_batches(self, tmp_path, capsys, monkeypatch):
        # csi_m is nan when every threshold is skipped; the trace still writes 0.0
        args = [*MICRO, "--n-val", "4", "--probe-batches", "2"]
        assert self.run("train-toy", "--out", str(tmp_path / "base"), *args) == 0
        assert "probe: batches=2 event_free=0 " in capsys.readouterr().out
        csi_m, calls = training.csi_m, []

        def first_batch_event_free(pred, truth, thresholds):
            calls.append(1)
            return math.nan if len(calls) == 1 else csi_m(pred, truth, thresholds)

        monkeypatch.setattr(training, "csi_m", first_batch_event_free)
        assert self.run("train-toy", "--out", str(tmp_path / "free"), *args) == 0
        assert "probe: batches=2 event_free=1 " in capsys.readouterr().out
        batch_csi = {r.batch_id: r.batch_csi_m for r in read_trace(tmp_path / "free" / "probe_trace.jsonl")}
        base_csi = {r.batch_id: r.batch_csi_m for r in read_trace(tmp_path / "base" / "probe_trace.jsonl")}
        assert batch_csi == {**base_csi, 0: 0.0} and base_csi[0] != 0.0

    def test_interrupted_run_ends_with_one_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "train", interrupted)
        try:
            code = self.run("train-toy", "--out", str(tmp_path / "x"), *MICRO)
        except KeyboardInterrupt:  # caught so that it fails this test, not the session
            pytest.fail("KeyboardInterrupt escaped cli.main")
        assert code == cli.EXIT_INTERRUPTED == 130
        err = capsys.readouterr().err
        assert err == "error: train-toy: interrupted\n"
        assert "Traceback" not in err and not (tmp_path / "x").exists()

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
        ("--height", "0", "height"),
        ("--height", "-16", "height"),
        ("--frames-out", "0", "frames_out"),
        ("--den-base", "0", "den_base"),
        ("--cond-dim", "0", "cond_dim"),
        ("--trace-every", "-1", "trace_every"),
        ("--height", "20", "height must be a multiple of patch"),
        ("--width", "12", "width must be a multiple of patch"),
        ("--dim", "30", "dim must be a multiple of heads"),
        ("--den-bottleneck", "15", "den_bottleneck must be a multiple of den_heads"),
        ("--mode", "bogus", "mode must be"),
        ("--mask-fraction", "0", "mask_fraction must be in (0,1]"),
        ("--mask-fraction", "1.5", "mask_fraction must be in (0,1]"),
        ("--alpha", "0", "alpha must be in (0,1)"),
        ("--alpha", "1", "alpha must be in (0,1)"),
        ("--batch-size", "1", "batch_size must be >= 2"),
    ])
    def test_invalid_value_rejected_before_training(self, tmp_path, capsys, monkeypatch, flag, raw, names):
        calls = []
        monkeypatch.setattr(training, "objective", lambda *args, **kw: calls.append(1))
        assert self.run("train-toy", "--out", str(tmp_path / "x"), f"{flag}={raw}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--height", "--width"])
    def test_size_off_the_denoiser_stride_rejected_before_training(self, tmp_path, capsys, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(training, "objective", lambda *args, **kw: calls.append(1))
        # --patch 2 lets 18 through the encoder's patch rule; the denoiser's stride-4 rule remains.
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--patch", "2", f"{flag}=18") == 2
        err = capsys.readouterr().err
        key = flag[2:]
        assert err.startswith(f"error: {key} must be a multiple of") and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv,out_flag", [
        (["verify-theory", "--trials", "10000000"], "--report"),
        (["train-toy", "--height", "4096", "--width", "4096", "--steps", "1"], "--out"),
    ])
    def test_oversized_request_exits_2_with_one_line(self, tmp_path, argv, out_flag):
        # The address-space cap (about ten times an idle CLI process) makes
        # the first oversized allocation fail in the child, not on the host.
        limit = 1 << 30
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "harecast.cli", *argv, out_flag, str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {argv[0]}: out of memory") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_verify_theory_fits_where_whole_draws_did_not(self, tmp_path):
        # 160 MiB over the idle process: the suite needs ~70 MiB at 2*10^4
        # trials, while drawing each dim's (trials, 32, 16) normals whole
        # needs over 200 MiB.
        child = (
            "import resource, sys\n"
            "from harecast import cli\n"
            "vm = next(int(line.split()[1]) for line in open('/proc/self/status')"
            " if line.startswith('VmSize:')) * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (vm + (160 << 20), vm + (160 << 20)))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "report.txt"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", child, "verify-theory", "--trials", "20000", "--report", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().endswith("verdict: PASS\n")

    @pytest.mark.parametrize("learning_rate,where", [("1e6", "at step 2"), ("1e3", "held-out probe")])
    def test_diverged_run_exits_2_and_writes_nothing(self, tmp_path, capsys, learning_rate, where):
        out = tmp_path / "x"
        assert self.run("train-toy", "--out", str(out), *MICRO, "--learning-rate", learning_rate) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged") and where in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,target", [
        ("train-toy", "--out", "file"),
        ("train-toy", "--out", "file/sub"),
        ("verify-theory", "--report", "file/report.txt"),
        ("verify-theory", "--report", "dir"),
    ])
    def test_unwritable_output_fails_before_work(self, tmp_path, capsys, monkeypatch, command, flag, target):
        monkeypatch.setattr(cli, "train", lambda *args, **kw: pytest.fail("trained"))
        monkeypatch.setattr(cli, "run_verification_suite", lambda *args, **kw: pytest.fail("suite ran"))
        (tmp_path / "file").write_text("taken")
        (tmp_path / "dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        path = tmp_path / target
        argv = [command, flag, str(path)] + (MICRO if command == "train-toy" else ["--trials", "50"])
        assert self.run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {path}: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_unwritable_second_output_writes_nothing(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("taken")
        if command == "analyze":
            write_trace(tmp_path / "t.jsonl", small_trace())
            argv = ["analyze", "--input", str(tmp_path / "t.jsonl"), "--out-csv", str(tmp_path / "hm.csv"),
                    "--out-svg", str(tmp_path / "file" / "hm.svg")]
            flag, path = "--out-svg", tmp_path / "file" / "hm.svg"
        else:
            pred_dir, truth_dir = TestCliEval().make_dirs(tmp_path)
            argv = ["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                    "--out-csv", str(tmp_path / "file" / "m.csv")]
            flag, path = "--out-csv", tmp_path / "file" / "m.csv"
        before = sorted(tmp_path.rglob("*"))
        assert self.run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {path}: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command,flag", [
        ("analyze", "--out-csv"), ("analyze", "--out-svg"), ("eval", "--out-csv"), ("verify-theory", "--report"),
    ])
    def test_output_path_that_is_not_a_regular_file_refused(self, tmp_path, capsys, monkeypatch, command, flag):
        # Renaming the finished file over a FIFO would silently replace it.
        monkeypatch.setattr(cli, "run_verification_suite", lambda *args, **kw: pytest.fail("suite ran"))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        if command == "analyze":
            write_trace(tmp_path / "t.jsonl", small_trace())
            argv = ["analyze", "--input", str(tmp_path / "t.jsonl"), flag, str(fifo)]
        elif command == "eval":
            pred_dir, truth_dir = TestCliEval().make_dirs(tmp_path)
            argv = ["eval", "--pred", str(pred_dir), "--truth", str(truth_dir), flag, str(fifo)]
        else:
            argv = ["verify-theory", "--trials", "50", flag, str(fifo)]
        assert self.run(*argv) == 3
        assert capsys.readouterr().err == f"error: {flag} {fifo}: is not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_symlink_to_a_regular_file_output_is_replaced(self, tmp_path):
        write_trace(tmp_path / "t.jsonl", small_trace())
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old")
        link.symlink_to(target)
        assert self.run("analyze", "--input", str(tmp_path / "t.jsonl"), "--out-csv", str(link)) == 0
        assert not link.is_symlink() and link.read_text().startswith("group,")
        assert target.read_text() == "old"

    @pytest.mark.parametrize("trials", ["4611686018427387904", "100000000000000000000"])
    def test_trials_numpy_cannot_size_exit_2(self, tmp_path, capsys, trials):
        # NumPy refuses both sizes before allocating anything.
        report = tmp_path / "report.txt"
        assert self.run("verify-theory", "--trials", trials, "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: verify-theory: out of memory: ") and err.count("\n") == 1
        assert not report.exists()

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

    def test_config_file_not_utf8_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_bytes(b"\xff = 1\n")
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--config", str(cfgfile)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgfile}: not UTF-8") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        # Some editors start UTF-8 text with a byte-order mark; the file then
        # reads as the same file without one.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("steps = 3  # short\nlambda_hare = 0.5\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert cli.parse_config_file(marked) == cli.parse_config_file(plain) == {"steps": 3, "lambda_hare": 0.5}
        args = cli.build_parser().parse_args(["train-toy", "--out", str(tmp_path / "x"), "--config", str(marked)])
        assert cli.build_train_config(args) == training.TrainConfig(steps=3, lambda_hare=0.5)

    @pytest.mark.parametrize("text,key", [("steps = 2\nsteps = 3\n", "steps"),
                                          ("n-train = 4\nn_train = 4\n", "n_train")])
    def test_config_key_given_twice_rejected(self, tmp_path, capsys, text, key):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(text, encoding="utf-8")
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--config", str(cfgfile)) == 2
        assert capsys.readouterr().err == f"error: {cfgfile}:2: config key {key!r} given twice\n"
        assert not (tmp_path / "x").exists()

    def test_flag_overrides_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("steps = 3\n", encoding="utf-8")
        assert MICRO[:2] == ["--steps", "3"]
        assert self.run("train-toy", "--out", str(tmp_path / "out"), "--config", str(cfgfile),
                        "--steps", "2", *MICRO[2:]) == 0
        assert "steps: 2" in capsys.readouterr().out.splitlines()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("bogus_key = 3\n", encoding="utf-8")
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--config", str(cfgfile)) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err

    def test_train_toy_leaves_exactly_its_five_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run" / "sub"
        for _ in range(2):  # the second run replaces every file of the first
            assert self.run("train-toy", "--out", str(out), *MICRO) == 0
            assert sorted(os.listdir(out)) == ["losses.csv", "model.bin", "partitions.jsonl",
                                               "probe_trace.jsonl", "trace.jsonl"]

    def test_config_file_and_comments(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "# a whole-line comment\n\n"
            "steps = 3   # short run\nheight = 16\nwidth = 16\nframes_in = 2\n"
            "frames_out = 2\npatch = 8\ndim = 8\nlayers = 1\nheads = 2\n"
            "den_base = 4\nden_mid = 6\nden_bottleneck = 8\nbatch_size = 2\n"
            "n_train = 4\nn_val = 2\nn_test = 2\nprobe_batches = 1\n",
            encoding="utf-8",
        )
        assert self.run("train-toy", "--out", str(tmp_path / "out"), "--config", str(cfgfile)) == 0
        out = capsys.readouterr().out
        assert "steps: 3" in out

    def test_config_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("# comment\n\nsteps = 3\nlayers 2  # no '='\n", encoding="utf-8")
        assert self.run("train-toy", "--out", str(tmp_path / "x"), "--config", str(cfgfile)) == 2
        assert capsys.readouterr().err == f"error: {cfgfile}:4: expected 'key = value', got 'layers 2'\n"
        assert not (tmp_path / "x").exists()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert self.run("analyze", "--input", str(tmp_path / "nope.jsonl")) == 3

    def test_gradcheck_pass_and_perturbed_failure(self, capsys, monkeypatch):
        assert self.run("gradcheck", "--seed", "0", "--seeds", "1") == 0
        backward = attention.mha_backward

        def offset_wk(*args, **kwargs):
            grads, grad_x = backward(*args, **kwargs)
            return {**grads, "wk": grads["wk"] + 1e-3}, grad_x

        # attention_gradcheck imports mha_backward when it runs.
        monkeypatch.setattr(attention, "mha_backward", offset_wk)
        assert self.run("gradcheck", "--seed", "0", "--seeds", "1") == 1
        out = capsys.readouterr().out
        assert "wk[" in out  # failure names the parameter
        assert out.endswith("verdict: FAIL\n")

    @pytest.mark.parametrize("seed,seeds,code", [
        (2**63 - 1, 2, 2), (2**63 - 20, 21, 2), (2**63 - 1, 1, 0), (2**63 - 2, 2, 0),
    ])
    def test_gradcheck_seed_range_checked_before_work(self, capsys, monkeypatch, seed, seeds, code):
        """The objective checks run seeds --seed .. --seed + --seeds - 1, all below 2**63."""
        monkeypatch.setattr(cli, "run_gradcheck_suite", lambda seed, seeds: (True, []))
        assert self.run("gradcheck", "--seed", str(seed), "--seeds", str(seeds)) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == ("error: --seeds must be >= 1 and --seed + --seeds - 1 below 2**63, "
                                    f"got {seeds}\n")
            assert captured.out == ""
        else:
            assert captured.err == "" and captured.out == "verdict: PASS\n"

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_gradcheck_without_objective_seeds_rejected(self, capsys, seeds):
        assert self.run("gradcheck", "--seeds", seeds) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --seeds") and captured.err.count("\n") == 1
        assert "verdict" not in captured.out


    @pytest.mark.parametrize("argv", [
        ("verify-theory", "--trials", "5", "--seed", "-5"),
        ("verify-theory", "--trials", "5", "--seed", "99999999999999999999999"),
        ("gradcheck", "--seeds", "1", "--seed", "-1"),
        ("gradcheck", "--seeds", "1", "--seed", str(2**63)),
        ("train-toy", "--seed", "-1"),
        ("train-toy", "--seed", str(2**64 - 3)),
    ])
    def test_seed_outside_range_refused_before_work(self, tmp_path, capsys, monkeypatch, argv):
        def sentinel(*args, **kwargs):
            raise AssertionError("ran with a refused seed")

        for name in ("run_verification_suite", "run_gradcheck_suite", "train"):
            monkeypatch.setattr(cli, name, sentinel)
        out = tmp_path / "out"
        if argv[0] == "train-toy":
            argv = (*argv, "--out", str(out))
        assert self.run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be in [0, 2**63)" in err
        assert err.count("\n") == 1
        assert not out.exists()


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

    def test_event_free_pair_writes_skipped_not_nan(self, tmp_path, capsys):
        pred_dir, truth_dir = tmp_path / "pred", tmp_path / "truth"
        for d in (pred_dir, truth_dir):
            d.mkdir()
            save_tensors(d / "a.bin", {"frames": np.zeros((2, 16, 16))})
        csv_path = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv_path)]) == 0
        rows = dict(line.split(",") for line in csv_path.read_text().splitlines()[1:])
        for name in ("csi_m", "pooled_csi_4", "pooled_csi_16", "hss"):
            assert rows[name] == "skipped", name
        assert float(rows["ssim"]) == 1.0
        out = capsys.readouterr().out
        assert "nan" not in out and "nan" not in csv_path.read_text()
        assert out.split("\n")[0].split()[-1] == "skipped"

    @pytest.mark.parametrize("side", [8, 20, 10])
    def test_pool_that_does_not_tile_the_frame_is_skipped(self, tmp_path, capsys, side):
        pred_dir, truth_dir = tmp_path / "pred", tmp_path / "truth"
        rng = np.random.default_rng(side)
        pred, truth = (rng.uniform(0, 1, size=(2, side, side)) for _ in range(2))
        for d, frames in ((pred_dir, pred), (truth_dir, truth)):
            d.mkdir()
            save_tensors(d / "a.bin", {"frames": frames})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 0
        rows = dict(line.split(",") for line in csv.read_text().splitlines()[1:])
        active = evaluate_pair(pred, truth, SEVIR_THRESHOLDS)["csi_per_threshold"]
        assert active and rows["csi_m"] != "skipped"
        for pool in (4, 16):
            if side % pool:
                assert rows[f"pooled_csi_{pool}"] == "skipped"
            else:
                want = np.mean([pooled_csi(pred, truth, thr, pool) for thr in active])
                assert float(rows[f"pooled_csi_{pool}"]) == want
        assert "nan" not in capsys.readouterr().out

    def test_frames_smaller_than_the_ssim_window_are_skipped(self, tmp_path, capsys):
        pred_dir, truth_dir = tmp_path / "pred", tmp_path / "truth"
        rng = np.random.default_rng(6)
        for d in (pred_dir, truth_dir):
            d.mkdir()
            save_tensors(d / "a.bin", {"frames": rng.uniform(0, 1, size=(2, 6, 6))})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 0
        rows = dict(line.split(",") for line in csv.read_text().splitlines()[1:])
        assert rows["csi_m"] != "skipped"
        for name in ("ssim", "pooled_csi_4", "pooled_csi_16"):
            assert rows[name] == "skipped", name
        captured = capsys.readouterr()
        assert "nan" not in captured.out and captured.err == ""

    @pytest.mark.parametrize("scale,shift", [(255.0, 0.0), (1.0, -0.5)])
    def test_frames_outside_unit_range_refused(self, tmp_path, capsys, scale, shift):
        # Two independent uniform fields on the 0-255 scale would score csi_m near 1.
        pred_dir, truth_dir = tmp_path / "pred", tmp_path / "truth"
        rng = np.random.default_rng(8)
        for d in (pred_dir, truth_dir):
            d.mkdir()
            save_tensors(d / "a.bin", {"frames": scale * rng.uniform(0, 1, size=(2, 16, 16)) + shift})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir), "--out-csv", str(csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred_dir / 'a.bin'}: frames must lie in [0, 1], got min ")
        assert " and max " in err and err.count("\n") == 1
        assert not csv.exists()

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
                                     "overflow", "duplicate", "no_frames"])
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
                          "overflow": tensor_file((2**31, 2**31, 4), blob[29:]),
                          # the one 'frames' entry twice, under a count of 2
                          "duplicate": blob[:4] + struct.pack("<I", 2) + 2 * blob[8:],
                          # a well-formed file whose one entry is not named 'frames'
                          "no_frames": blob.replace(b"frames", b"fields", 1)}[cut])
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

    @pytest.mark.parametrize("flag,target", [("--pred", "missing"), ("--truth", "missing"),
                                             ("--pred", "e0.bin"), ("--truth", "e0.bin")])
    def test_missing_or_non_directory_input_is_io_error(self, tmp_path, capsys, flag, target):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        dirs = {"--pred": pred_dir, "--truth": truth_dir}
        dirs[flag] = dirs[flag] / target
        assert main(["eval", "--pred", str(dirs["--pred"]), "--truth", str(dirs["--truth"])]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {dirs[flag]}: ") and err.count("\n") == 1

    def test_empty_input_directories_are_usage_error(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        (tmp_path / "truth").mkdir()
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")]) == 2
        assert capsys.readouterr().err.startswith("error: no .bin files found in")

    def test_frame_sizes_differ_across_files(self, tmp_path, capsys):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        for d in (pred_dir, truth_dir):
            save_tensors(d / "e1.bin", {"frames": np.full((2, 8, 8), 0.5)})
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: frame sizes differ") and err.count("\n") == 1

    def test_frame_counts_differ_within_a_pair(self, tmp_path, capsys):
        # 3 + 4 prediction frames against 4 + 3 truth frames: the totals agree,
        # but truth a.bin's fourth frame has no prediction in a.bin.
        pred_dir, truth_dir = tmp_path / "pred", tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        for d, counts in ((pred_dir, (3, 4)), (truth_dir, (4, 3))):
            for name, count in zip(("a.bin", "b.bin"), counts):
                save_tensors(d / name, {"frames": np.full((count, 16, 16), 0.5)})
        csv = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                     "--out-csv", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err == "error: a.bin: prediction shape (3, 16, 16) != truth shape (4, 16, 16)\n"
        assert not csv.exists()

    def test_mismatched_files_listed(self, tmp_path, capsys):
        pred_dir, truth_dir = self.make_dirs(tmp_path)
        (pred_dir / "extra.bin").write_bytes((pred_dir / "e0.bin").read_bytes())
        assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir)]) == 2
        assert "extra.bin" in capsys.readouterr().err


class TestPinHeap:
    """cli.pin_heap sets glibc's heap thresholds, and only cli.main calls it."""

    @staticmethod
    def fake_libc(calls):
        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        return type("Libc", (), {"mallopt": Mallopt()})()

    def test_sets_the_three_thresholds(self, monkeypatch):
        calls = []
        libc = self.fake_libc(calls)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        cli.pin_heap()
        # M_TRIM_THRESHOLD 256 MiB, M_TOP_PAD 64 MiB, M_MMAP_THRESHOLD 64 MiB
        assert calls == [(-1, 256 << 20), (-2, 64 << 20), (-3, 64 << 20)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert libc.mallopt.restype is ctypes.c_int

    @pytest.mark.parametrize("libc", ["without mallopt", "not loadable"])
    def test_silent_no_op_without_mallopt(self, monkeypatch, capsys, libc):
        def load(name):
            if libc == "not loadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", load)
        assert cli.pin_heap() is None
        assert capsys.readouterr() == ("", "")

    def test_main_pins_before_any_work(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(cli, "pin_heap", lambda: calls.append("pin"))
        monkeypatch.setattr(cli, "read_trace", lambda path: calls.append("work") or [])
        main(["analyze", "--input", str(tmp_path / "t.jsonl")])
        assert calls == ["pin", "work"]

    def test_importing_the_library_pins_nothing(self, tmp_path):
        # A fresh interpreter counts the C-library loads pin_heap makes:
        # none on import, one per cli.main call.
        code = (
            "import ctypes, sys\n"
            "loads, real = [], ctypes.CDLL\n"
            "ctypes.CDLL = lambda name, *a, **k: loads.append(name) or real(name, *a, **k)\n"
            "import harecast, harecast.cli, harecast.nowcast.training\n"
            "before = loads.count(None)\n"
            "harecast.cli.main(['analyze', '--input', sys.argv[1]])\n"
            "print(before, loads.count(None))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "missing.jsonl")], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.stdout.split() == ["0", "1"], proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


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
    """(exit code or the sentinel, stderr) of one in-process CLI call.

    A warning counts as one stderr line, as the command line prints it.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except FuzzSentinel:
            code = FuzzSentinel
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


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
    @example(trace_lines(*(dict(zip(TRACE_KEYS, ["r", 0, 0, 10**9, 0, s, 1.0, 0.5])) for s in (0, 1))))
    # finite energies whose variance overflows float64
    @example(trace_lines(*(dict(zip(TRACE_KEYS, ["r", 0, 0, 0, 0, s, e, 0.5])) for s, e in ((0, 1e300), (1, 0.0)))))
    def test_analyze_trace_file(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            path.write_bytes(blob)
            assert_clean_exit(*run_captured(["analyze", "--input", str(path), "--split-by-csi",
                                             "--out-csv", str(Path(tmp) / "v.csv"),
                                             "--out-svg", str(Path(tmp) / "v.svg")]))
