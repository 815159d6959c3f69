import csv
import json
import os
import re
import resource
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from escore import data, experiments, metrics
from escore.cli import main, retain_freed_memory
from escore.heads import HeadConfig
from escore.mar import MarConfig
from oracles import gaussian_source

TINY_HEAD = ["--set", "train.steps=8", "--set", "train.batch=16",
             "--set", "head.width=16", "--set", "head.depth=1",
             "--set", "data.pool=256"]

TINY_MAR = ["--set", "mar.hidden_dim=16", "--set", "mar.n_blocks=2",
            "--set", "mar.n_heads=2", "--set", "mar.head_width=16",
            "--set", "mar.head_depth=1", "--set", "mar_train.steps=5",
            "--set", "mar_train.batch=4", "--set", "data.per_class=8",
            "--set", "decode.iterations=4", "--set", "decode.n_seq=3"]


def test_train_head_run_dir(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir(mode=0o700)   # an empty --out is taken, and replaced by the finished run
    (tmp_path / "plain").mkdir()
    rc = main(["train-head", "--method", "energy", "--seed", "7",
               "--out", str(out)] + TINY_HEAD)
    assert rc == 0
    assert capsys.readouterr().out == f"checkpoint written: {out / 'head.ckpt'}\n"
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "run"]
    assert (out / "head.ckpt").exists()
    assert (out / "config.json").exists()
    assert (out / "config.digest").exists()
    loss = (out / "loss.csv").read_text().splitlines()
    assert loss[0] == "step,energy,distill,total,lambda,lr,seed"
    assert len(loss) == 9   # header + 8 steps


def test_train_head_reruns_are_byte_identical(tmp_path):
    args = ["train-head", "--method", "flow", "--seed", "3"] + TINY_HEAD
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "head.ckpt").read_bytes() == (b / "head.ckpt").read_bytes()
    assert (a / "loss.csv").read_text() == (b / "loss.csv").read_text()
    assert (a / "config.digest").read_text() == (b / "config.digest").read_text()


def test_train_head_refuses_nonempty_out(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    rc = main(["train-head", "--method", "energy", "--out", str(out)] + TINY_HEAD)
    assert rc == 1


def test_a_run_whose_out_fills_while_it_runs_fails_without_mixing_files(tmp_path, capsys,
                                                                        monkeypatch):
    from escore.swiss import ToyHeadModel
    out = tmp_path / "run"
    save = ToyHeadModel.save

    def save_while_another_run_finishes(model, path, **kwargs):
        save(model, path, **kwargs)
        out.mkdir()
        (out / "head.ckpt").write_text("the other run's checkpoint\n")

    monkeypatch.setattr(ToyHeadModel, "save", save_while_another_run_finishes)
    rc = main(["train-head", "--method", "energy", "--out", str(out)] + TINY_HEAD)
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err == (f"escore: error: output directory {out} is not empty; completed runs "
                   "are immutable\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert [p.name for p in out.iterdir()] == ["head.ckpt"]
    assert (out / "head.ckpt").read_text() == "the other run's checkpoint\n"


def test_unknown_method_is_usage_error(tmp_path, capsys):
    rc = main(["train-head", "--method", "sorcery", "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--method" in err or "method" in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    rc = main(["train-head", "--method", "energy", "--out", str(tmp_path / "r"),
               "--set", "train.nope=3"])
    assert rc == 1
    assert "train.nope" in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    {"compare": {"steps_by_method": {"energy": 6}}},
    {"train": {"steps": 8}, "mar": {"m": 3}},
], ids=["steps-by-method", "two-sections"])
def test_a_partial_set_table_merges_like_the_same_table_in_a_config_file(tmp_path, table):
    from escore.config import DEFAULTS, overridden, resolve_config
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(table))
    sets = [f"{section}={json.dumps(value)}" for section, value in table.items()]
    assert resolve_config(sets) == resolve_config(config_file=str(config))
    assert resolve_config(sets) == overridden(DEFAULTS, table)
    steps = resolve_config(sets)["compare"]["steps_by_method"]
    assert steps == {**DEFAULTS["compare"]["steps_by_method"],
                     **table.get("compare", {}).get("steps_by_method", {})}


def test_overridden_changes_no_table_it_merges_and_shares_none_with_them():
    """A table that replaces a scalar is stored as a copy, so the table after
    it merges into the copy, not into the caller's table."""
    import copy
    from escore.config import DEFAULTS, overridden

    def containers(value) -> set[int]:
        found = {id(value)} if isinstance(value, (dict, list)) else set()
        for item in value.values() if isinstance(value, dict) else \
                value if isinstance(value, list) else ():
            found |= containers(item)
        return found

    t2 = {"mar": copy.deepcopy(DEFAULTS["mar"]), "compare": {"seeds": [3]}}
    tables = [{"mar": 5}, t2, {"mar": {"seq_len": 4}}]
    given = copy.deepcopy([DEFAULTS, tables])
    out = overridden(DEFAULTS, *tables)
    assert out["mar"]["seq_len"] == 4 and out["compare"]["seeds"] == [3]
    assert [DEFAULTS, tables] == given and t2["mar"]["seq_len"] == 16
    assert not containers(out) & containers([DEFAULTS, tables])


def test_a_set_value_nested_too_deep_to_copy_is_usage_error_naming_the_key(tmp_path, capsys):
    """600 levels parse as JSON, but copying them takes two calls a level."""
    out = tmp_path / "run"
    assert main(["train-head", "--method", "energy", "--out", str(out),
                 "--set", "seed=" + "[" * 600 + "]" * 600]) == 1
    err = capsys.readouterr().err
    assert "config key 'seed': value nested too deep to copy" in err and "Traceback" not in err
    assert not out.exists()


def test_an_unknown_key_in_a_set_table_is_usage_error_naming_it(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["train-head", "--method", "energy", "--out", str(out),
               "--set", 'train={"steps": 8, "nope": 3}'])
    err = capsys.readouterr().err
    assert rc == 1 and "unknown config key 'train.nope'" in err and "Traceback" not in err
    assert not out.exists()


def test_sample_counts_determinism_and_energy_steps_guard(tmp_path):
    out = tmp_path / "run"
    main(["train-head", "--method", "energy", "--seed", "1",
          "--out", str(out)] + TINY_HEAD)
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    rc = main(["sample", "--run", str(out), "--steps", "1", "--n", "100",
               "--seed", "5", "--out", str(s1), "--svg", str(tmp_path / "p.svg")])
    assert rc == 0
    pts, _ = data.read_points_csv(s1)
    assert pts.shape == (100, 2)
    assert main(["sample", "--run", str(out), "--steps", "1", "--n", "100",
                 "--seed", "5", "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert (tmp_path / "p.svg").read_text().startswith("<svg")

    rc = main(["sample", "--run", str(out), "--steps", "4", "--n", "10",
               "--seed", "1", "--out", str(tmp_path / "s3.csv")])
    assert rc == 1


def _hidden(directory) -> list[str]:
    return sorted(p.name for p in Path(directory).iterdir() if p.name.startswith("."))


@pytest.mark.parametrize("old", [False, True])
def test_a_sample_that_fails_halfway_leaves_the_old_file_or_none(tmp_path, monkeypatch, old):
    """The samples CSV and the plot are written beside their paths and renamed
    into place, so a writer that raises midway leaves no partial file."""
    from escore import svg
    run = tmp_path / "run"
    assert main(["train-head", "--method", "energy", "--out", str(run)] + TINY_HEAD) == 0
    out, plot = tmp_path / "s.csv", tmp_path / "p.svg"
    argv = ["sample", "--run", str(run), "--n", "50", "--out", str(out)]
    if old:
        out.write_text("old samples\n")
        plot.write_text("old plot\n")
    cells, format_cell = [], data._format_cell

    def failing_cell(v):   # raises in the middle of the 50 rows
        cells.append(v)
        if len(cells) == 41:
            raise RuntimeError("disk gone")
        return format_cell(v)

    with monkeypatch.context() as mp:
        mp.setattr(data, "_format_cell", failing_cell)
        assert main(argv) == 2
    assert cells and (out.read_text() == "old samples\n" if old else not out.exists())

    def failing_plot(path, panels, cols):
        Path(path).write_text("<svg")
        raise RuntimeError("disk gone")

    monkeypatch.setattr(svg, "panel_grid_svg", failing_plot)
    assert main(argv + ["--svg", str(plot)]) == 2
    assert plot.read_text() == "old plot\n" if old else not plot.exists()
    assert _hidden(tmp_path) == []
    assert len(data.read_points_csv(out)[0]) == 50   # the samples, written whole


def test_an_out_in_a_missing_directory_is_usage_error_naming_it(tmp_path, capsys):
    gen = tmp_path / "gen.csv"
    data.write_points_csv(gen, gaussian_source(16, 2, seed=3).points)
    missing = tmp_path / "missing"
    rc = main(["eval", "--generated", str(gen), "--reference", str(gen),
               "--out", str(missing / "m.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and f"no such directory: '{missing}'" in err and ".partial" not in err


def test_an_eval_that_fails_halfway_leaves_the_old_metrics_csv(tmp_path, monkeypatch):
    """The metrics CSV is copied, appended to and renamed into place, so a
    row writer that raises leaves the old bytes and no torn row."""
    gen = tmp_path / "gen.csv"
    data.write_points_csv(gen, gaussian_source(16, 2, seed=3).points)
    out = tmp_path / "metrics.csv"
    argv = ["eval", "--generated", str(gen), "--reference", str(gen), "--out", str(out)]
    assert main(argv) == 0
    before = out.read_bytes()

    def failing_row(self):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(metrics.MetricsReport, "csv_row", failing_row)
    assert main(argv) == 2
    assert out.read_bytes() == before and _hidden(tmp_path) == []
    out.unlink()
    assert main(argv) == 2
    assert not out.exists() and _hidden(tmp_path) == []


def test_eval_identity_and_schema(tmp_path):
    pts = gaussian_source(64, 2, seed=3).points
    gen = tmp_path / "gen.csv"
    data.write_points_csv(gen, pts)
    metrics_csv = tmp_path / "metrics.csv"
    rc = main(["eval", "--generated", str(gen), "--reference", str(gen),
               "--out", str(metrics_csv), "--method", "identity", "--steps", "1",
               "--seed", "3"])
    assert rc == 0
    lines = metrics_csv.read_text().splitlines()
    assert lines[0] == "method,steps,seed,n,mmd,wsd,energy_u,energy_v,bandwidth"
    fields = lines[1].split(",")
    assert fields[0] == "identity"
    assert abs(float(fields[4])) <= 1e-12   # mmd
    assert abs(float(fields[5])) <= 1e-12   # wsd
    # appending a second row must preserve the first
    rc = main(["eval", "--generated", str(gen), "--reference", str(gen),
               "--out", str(metrics_csv), "--method", "again", "--steps", "1",
               "--seed", "4"])
    assert rc == 0
    assert len(metrics_csv.read_text().splitlines()) == 3


def test_eval_writes_the_header_into_an_empty_out(tmp_path):
    gen = tmp_path / "gen.csv"
    data.write_points_csv(gen, gaussian_source(16, 2, seed=3).points)
    out = tmp_path / "metrics.csv"
    out.write_text("")
    assert main(["eval", "--generated", str(gen), "--reference", str(gen),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(metrics.MetricsReport.CSV_HEADER) and len(lines) == 2


def test_eval_refuses_an_out_that_is_not_a_metrics_csv(tmp_path, capsys, monkeypatch):
    """An --out naming the reference points is left as it was, and no metric
    is computed."""
    ref = tmp_path / "ref.csv"
    data.write_points_csv(ref, gaussian_source(16, 2, seed=3).points)
    before = ref.read_bytes()
    monkeypatch.setattr(metrics, "evaluate_samples",
                        lambda *args: pytest.fail("a metric was computed"))
    rc = main(["eval", "--generated", str(ref), "--reference", str(ref), "--out", str(ref)])
    err = capsys.readouterr().err
    assert rc == 1 and f"{ref}: not a metrics CSV" in err and "Traceback" not in err
    assert ref.read_bytes() == before


def test_eval_malformed_csv_names_problem(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    good = tmp_path / "good.csv"
    data.write_points_csv(good, np.zeros((4, 2)))
    rc = main(["eval", "--generated", str(bad), "--reference", str(good),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert "x0" in capsys.readouterr().err


def test_eval_header_only_csv_exits_1_naming_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1\n")
    good = tmp_path / "good.csv"
    data.write_points_csv(good, np.zeros((4, 2)))
    rc = main(["eval", "--generated", str(empty), "--reference", str(good),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert f"{empty}: no data rows" in capsys.readouterr().err


def test_eval_blank_row_names_the_file_row_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1,2\n\n3,4\n")
    good = tmp_path / "good.csv"
    data.write_points_csv(good, np.zeros((3, 2)))
    rc = main(["eval", "--generated", str(bad), "--reference", str(good),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert f"{bad}: data row 2 (line 3) has 0 cells, expected 2" in capsys.readouterr().err


def test_eval_reads_point_columns_by_index(tmp_path, capsys):
    swapped, plain = tmp_path / "swapped.csv", tmp_path / "plain.csv"
    swapped.write_text("x1,x0\n2,1\n4,3\n6,5\n")
    plain.write_text("x0,x1\n1,2\n3,4\n5,6\n")
    rc = main(["eval", "--generated", str(swapped), "--reference", str(plain),
               "--out", str(tmp_path / "m.csv"), "--metrics", "wsd"])
    assert rc == 0
    assert capsys.readouterr().out == "wsd=0.0\n"
    swapped.write_text("x0,x0\n1,2\n")
    rc = main(["eval", "--generated", str(swapped), "--reference", str(plain),
               "--out", str(tmp_path / "m.csv"), "--metrics", "wsd"])
    assert rc == 1
    assert f"{swapped}: header ['x0', 'x0']" in capsys.readouterr().err


@pytest.mark.parametrize("metrics_flag", ["mmd", "wsd", "energy", "mmd,wsd,energy"])
@pytest.mark.parametrize("bad_side", ["--generated", "--reference"])
def test_eval_non_finite_cell_is_blamed_on_its_file(tmp_path, capsys, metrics_flag, bad_side):
    good = tmp_path / "good.csv"
    data.write_points_csv(good, gaussian_source(8, 2, seed=1).points)
    bad = tmp_path / "bad.csv"
    pts = gaussian_source(8, 2, seed=2).points
    pts[5, 1] = np.nan
    data.write_points_csv(bad, pts)
    files = {"--generated": good, "--reference": good, bad_side: bad}
    out = tmp_path / "m.csv"
    rc = main(["eval", "--generated", str(files["--generated"]),
               "--reference", str(files["--reference"]), "--out", str(out),
               "--metrics", metrics_flag])
    assert rc == 1
    assert f"{bad}: non-finite value in data row 6" in capsys.readouterr().err
    assert not out.exists()


def test_eval_unknown_metric_name(tmp_path, capsys):
    good = tmp_path / "g.csv"
    data.write_points_csv(good, np.zeros((4, 2)))
    rc = main(["eval", "--generated", str(good), "--reference", str(good),
               "--out", str(tmp_path / "m.csv"), "--metrics", "mmd,frechet"])
    assert rc == 1
    assert "frechet" in capsys.readouterr().err


def test_eval_computes_only_the_named_metrics(tmp_path, capsys):
    """Above the Wasserstein size cap, energy alone still scores."""
    gen, ref = tmp_path / "g.csv", tmp_path / "r.csv"
    data.write_points_csv(gen, gaussian_source(2049, 2, seed=1).points)
    data.write_points_csv(ref, gaussian_source(2049, 2, seed=2).points)
    out = tmp_path / "m.csv"
    rc = main(["eval", "--generated", str(gen), "--reference", str(ref),
               "--out", str(out), "--metrics", "energy"])
    assert rc == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["mmd"] == cells["wsd"] == cells["bandwidth"] == ""
    assert np.isfinite(float(cells["energy_u"])) and float(cells["energy_v"]) > 0
    assert capsys.readouterr().out == f"energy_v={float(cells['energy_v'])!r}\n"
    assert main(["eval", "--generated", str(gen), "--reference", str(ref),
                 "--out", str(out), "--metrics", ","]) == 1


def test_eval_quotes_a_method_with_a_comma_and_a_quote(tmp_path):
    points = tmp_path / "p.csv"
    data.write_points_csv(points, gaussian_source(8, 2, seed=1).points)
    out = tmp_path / "m.csv"
    method = 'a,"b'
    assert main(["eval", "--generated", str(points), "--reference", str(points),
                 "--out", str(out), "--method", method, "--steps", "3"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["method"], row["steps"], row["wsd"]) for row in rows] == [(method, "3", "0.0")]


def test_train_mar_and_decode_roundtrip(tmp_path, capsys):
    run = tmp_path / "teacher"
    rc = main(["train-mar", "--role", "teacher", "--seed", "2",
               "--out", str(run)] + TINY_MAR)
    assert rc == 0
    ckpt = run / "mar.ckpt"
    assert ckpt.exists()
    assert capsys.readouterr().out == f"checkpoint written: {ckpt}\n"

    dec = tmp_path / "dec"
    rc = main(["decode", "--ckpt", str(ckpt), "--class", "1", "--iterations", "4",
               "--cfg", "2.0", "--n", "3", "--seed", "9", "--out", str(dec)]
              + TINY_MAR)
    assert rc == 0
    assert capsys.readouterr().out == f"sequences written: {dec / 'sequences.csv'}\n"
    seq, header = data.read_points_csv(dec / "sequences.csv")
    assert header == ["x0", "x1", "position"]
    assert seq.shape == (3 * 16, 2)
    stats = json.loads((dec / "decode_stats.json").read_text())
    assert stats["backbone_forwards"] == 8
    assert stats["head_rows"] == 3 * 16


def test_a_teacher_run_records_the_config_it_trained_with(tmp_path):
    from escore.config import config_digest
    from escore.nn import load_checkpoint
    run = tmp_path / "teacher"
    assert main(["train-mar", "--role", "teacher", "--seed", "2", "--out", str(run)]
                + TINY_MAR) == 0
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["mar"]["head_kind"] == "diffusion" and cfg["mar_train"]["lambda"] == 0.0
    manifest, _ = load_checkpoint(run / "mar.ckpt")
    assert manifest["extra"]["mar_config"]["head_kind"] == "diffusion"
    assert (manifest["config_digest"] == config_digest(cfg)
            == (run / "config.digest").read_text().strip())


@pytest.mark.parametrize("given", ["set", "config", "scalar-then-table"])
def test_a_teacher_run_refuses_a_head_kind_the_user_set(tmp_path, capsys, given):
    """A teacher trains a diffusion head, so a head kind set to another kind,
    by --set or by --config, is refused, not dropped; so is one in a table
    that replaces a ``mar`` set to a scalar."""
    from escore.config import DEFAULTS
    if given == "set":
        argv = ["--set", "mar.head_kind=flow"]
    elif given == "scalar-then-table":
        table = {**DEFAULTS["mar"], "head_kind": "flow"}
        argv = ["--set", "mar=5", "--set", f"mar={json.dumps(table)}"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mar": {"head_kind": "flow"}}))
        argv = ["--config", str(path)]
    out = tmp_path / "run"
    rc = main(["train-mar", "--role", "teacher", "--out", str(out)] + argv + TINY_MAR)
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert 'mar.head_kind="flow" is a student setting; a teacher trains at "diffusion"' in err
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_student(tmp_path_factory):
    """A checkpoint of a tiny energy student, trained once for the module."""
    run = tmp_path_factory.mktemp("student") / "run"
    assert main(["train-mar", "--role", "student", "--seed", "4",
                 "--out", str(run)] + TINY_MAR) == 0
    return run / "mar.ckpt"


def _decode_stats(ckpt, out, *argv) -> dict:
    assert main(["decode", "--ckpt", str(ckpt), "--n", "2", "--out", str(out),
                 *argv] + TINY_MAR) == 0
    return json.loads((out / "decode_stats.json").read_text())


def test_decode_takes_the_config_seed_unless_given_one(tmp_path, tiny_student):
    """Without --seed a decode uses the config's seed (default 1), so a
    --set or --config seed takes effect; --seed overrides either."""
    config = tmp_path / "cfg.json"
    config.write_text('{"seed": 6}')
    runs = {"default": [], "set": ["--set", "seed=5"], "config": ["--config", str(config)],
            "flag": ["--seed", "5"], "both": ["--seed", "2", "--set", "seed=5"]}
    seeds = {name: _decode_stats(tiny_student, tmp_path / name, *argv)["seed"]
             for name, argv in runs.items()}
    assert seeds == {"default": 1, "set": 5, "config": 6, "flag": 5, "both": 2}
    assert ((tmp_path / "set" / "sequences.csv").read_bytes()
            == (tmp_path / "flag" / "sequences.csv").read_bytes())


def test_decode_at_scale_one_runs_the_conditional_pass_alone(tmp_path, tiny_student):
    stats = _decode_stats(tiny_student, tmp_path / "dec", "--cfg", "1")
    assert stats["cfg_scale"] == 1.0 and "guided" not in stats
    assert stats["backbone_forwards"] == stats["iterations"] == 4


def test_null_class_decode_runs_the_null_pass_alone(tmp_path, tiny_student):
    """Both passes of a null-class decode would be null, so at the default
    scale 4 it runs one backbone pass per iteration."""
    stats = _decode_stats(tiny_student, tmp_path / "dec", "--class", "null")
    assert stats["class_id"] is None and stats["cfg_scale"] == 4.0
    assert stats["backbone_forwards"] == stats["iterations"] == 4


@pytest.mark.parametrize("argv,named", [
    (["decode", "--ckpt", "absent.ckpt", "--set", "decode.guided=false"],
     "unknown config key 'decode.guided'"),
    (["decode", "--ckpt", "absent.ckpt", "--no-guidance"],
     "unrecognized arguments: --no-guidance"),
    (["train-head", "--method", "energy", "--set", "metrics.n=7"],
     "unknown config key 'metrics.n'"),
], ids=["decode.guided", "no-guidance", "metrics.n"])
def test_removed_setting_is_a_usage_error_naming_it(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and named in err and "Traceback" not in err
    assert not out.exists()


def test_toy_loss_log_records_the_warmed_up_rate(tmp_path):
    out = tmp_path / "run"
    assert main(["train-head", "--method", "flow", "--out", str(out), "--set", "train.lr=0.003",
                 "--set", "train.warmup=3"] + TINY_HEAD) == 0
    lines = (out / "loss.csv").read_text().splitlines()
    lr = [float(line.split(",")[5]) for line in lines[1:]]
    assert lr == [0.003 * min(1.0, t / 3) for t in range(1, 9)]


@pytest.mark.parametrize("argv,ckpt,keys", [
    (["train-head", "--method", "energy"] + TINY_HEAD, "head.ckpt", {"model", "head_config"}),
    (["train-mar", "--role", "student"] + TINY_MAR, "mar.ckpt",
     {"model", "mar_config", "role", "lambda"}),
], ids=["toy", "mar"])
def test_checkpoint_extra_records_each_fact_once(tmp_path, argv, ckpt, keys):
    from escore import nn
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    manifest, _ = nn.load_checkpoint(tmp_path / "run" / ckpt)
    assert set(manifest["extra"]) == keys


@pytest.mark.parametrize("field", ["beta_max", "shortcut_levels", "consistency_frac",
                                   "r_eq_t_prob", "x0_clip", "latent_dim"])
def test_checkpoint_with_a_retired_head_field_is_a_usage_error(tmp_path, capsys, field):
    """The head settings that became module constants are unknown fields of
    a saved head config."""
    from escore.swiss import ToyHeadModel
    ckpt = tmp_path / "head.ckpt"
    ToyHeadModel(HeadConfig(kind="diffusion", width=8, depth=1), seed=0).save(ckpt)
    _rewrite_manifest(ckpt, _config_edit(lambda cfg: cfg.update({field: 1})))
    rc = main(["sample", "--ckpt", str(ckpt), "--steps", "1", "--n", "4",
               "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and f"{ckpt}: unknown config key 'head_config.{field}'" in err
    assert "Traceback" not in err and not (tmp_path / "s.csv").exists()


def test_student_lambda_requires_teacher(tmp_path, capsys):
    rc = main(["train-mar", "--role", "student", "--out", str(tmp_path / "s"),
               "--set", "mar_train.lambda=0.5"] + TINY_MAR)
    assert rc == 1
    assert "teacher" in capsys.readouterr().err


@pytest.mark.parametrize("argv,cause", [
    (["--role", "student", "--set", "mar_train.init_from_teacher=true"],
     "mar_train.init_from_teacher requires --teacher"),
    (["--role", "student", "--teacher", "{teacher}"],
     "--teacher is used only under mar_train.lambda > 0 or mar_train.init_from_teacher"),
    (["--role", "teacher", "--teacher", "{teacher}"],
     "--teacher is used only under mar_train.lambda > 0 or mar_train.init_from_teacher"),
    (["--role", "teacher", "--set", "mar_train.lambda=0.5"],
     "mar_train.lambda=0.5 is a student setting; a teacher trains at 0.0"),
    (["--role", "teacher", "--set", "mar_train.frozen_backbone=true"],
     "mar_train.frozen_backbone=true is a student setting; a teacher trains at false"),
    (["--role", "teacher", "--set", "mar_train.init_from_teacher=true"],
     "mar_train.init_from_teacher=true is a student setting; a teacher trains at false"),
], ids=["init-without-teacher", "unused-by-student", "unused-by-teacher", "teacher-lambda",
        "teacher-frozen", "teacher-init"])
def test_a_run_takes_a_teacher_exactly_when_it_uses_one(tmp_path, capsys, tiny_student,
                                                        argv, cause):
    out = tmp_path / "run"
    argv = [a.format(teacher=tiny_student) for a in argv]
    rc = main(["train-mar", "--out", str(out)] + argv + TINY_MAR)
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override,cause", [
    (["mar.hidden_dim=8", "mar_train.init_from_teacher=true"],
     "mar.hidden_dim=8 differs from the teacher's 16"),
    (["mar.hidden_dim=8", "mar_train.lambda=0.1"], "mar.hidden_dim=8 differs from the teacher's 16"),
    (["mar.seq_len=8", "mar_train.lambda=0.1"], "mar.seq_len=8 differs from the teacher's 16"),
], ids=["init-from-teacher", "distill", "seq-len"])
def test_student_rejects_a_teacher_of_another_shape_naming_the_key(tmp_path, capsys, tiny_student,
                                                                    override, cause):
    """Any MAR checkpoint can teach; the tiny one has width 16 and 16 tokens."""
    out = tmp_path / "s"
    argv = ["train-mar", "--role", "student", "--teacher", str(tiny_student), "--out", str(out)]
    rc = main(argv + TINY_MAR + [arg for kv in override for arg in ("--set", kv)])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not out.exists()


def test_negative_student_lambda_is_usage_error_naming_the_key(tmp_path, capsys):
    rc = main(["train-mar", "--role", "student", "--out", str(tmp_path / "s"),
               "--set", "mar_train.lambda=-0.5"] + TINY_MAR)
    assert rc == 1
    assert "mar_train.lambda must be a number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("override,cause", [
    ("train.steps=abc", "config key 'train.steps' must be an integer like its default"),
    ("train.lr=true", "config key 'train.lr' must be a number like its default"),
    ("metrics.bandwidth=wide", "config key 'metrics.bandwidth' must be 'median' or a number"),
], ids=["int", "bool-for-number", "bandwidth"])
def test_mistyped_config_value_fails_before_any_output(tmp_path, capsys, override, cause):
    out = tmp_path / "run"
    rc = main(["train-head", "--method", "energy", "--out", str(out), "--set", override])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override,cause", [
    ("head.width=0", "config key 'head.width' must be an integer >= 1, got 0"),
    ("train.batch=0", "config key 'train.batch' must be an integer >= 1, got 0"),
    ("train.warmup=-1", "config key 'train.warmup' must be an integer >= 0, got -1"),
    ("compare.multi_steps=[4,0]", "'compare.multi_steps' must be integers >= 1, got [4, 0]"),
    ("compare.steps_by_method.flow=0",
     "config key 'compare.steps_by_method.flow' must be an integer >= 1, got 0"),
    ("train.lr=-1", "train.lr must be a number > 0, got -1"),
    ("mar_train.lr=0", "mar_train.lr must be a number > 0, got 0"),
    ("train.lr=NaN", "train.lr must be a finite number, got nan"),
    ("train.weight_decay=-0.1", "train.weight_decay must be a number >= 0, got -0.1"),
    ("mar_train.weight_decay=-1", "mar_train.weight_decay must be a number >= 0, got -1"),
    ("mar.p_drop=1.5", "mar.p_drop must be a number in [0, 1), got 1.5"),
    ("mar.p_drop=1", "mar.p_drop must be a number in [0, 1), got 1"),
    ("mar.mask_lo=0", "mar.mask_lo must be a number in (0, 1], got 0"),
    ("mar.mask_hi=1.2", "mar.mask_hi must be a number in (0, 1], got 1.2"),
    ("mar.mask_hi=0.5", "mar.mask_lo must be <= mar.mask_hi, got 0.7 > 0.5"),
    ("mar_train.lambda=-0.5", "mar_train.lambda must be a number >= 0, got -0.5"),
    ("decode.cfg_scale=Infinity", "decode.cfg_scale must be a finite number, got inf"),
    ("data.noise_sigma=-0.01", "data.noise_sigma must be a number >= 0, got -0.01"),
    ("data.jitter=-1", "data.jitter must be a number >= 0, got -1"),
    ("metrics.bandwidth=-1", "metrics.bandwidth: kernel bandwidth -1 is not a finite number"),
    ("metrics.bandwidth=1e-160", "metrics.bandwidth: kernel bandwidth 1e-160 is not a finite"),
    ("train.lr=1" + "0" * 400, "train.lr must be a finite number, got 1000"),
    ("metrics.bandwidth=1" + "0" * 400, "metrics.bandwidth: int too large to convert to float"),
    ("mar.n_heads=3", "mar.hidden_dim must be a multiple of mar.n_heads, got 64 and 3"),
], ids=["width", "batch", "warmup", "list-item", "nested-table", "lr", "mar-lr", "lr-nan",
        "weight-decay", "mar-weight-decay", "p-drop", "p-drop-one", "mask-lo", "mask-hi",
        "mask-lo-above-hi", "lambda", "cfg-scale-inf", "noise-sigma", "jitter",
        "bandwidth-negative", "bandwidth-tiny", "lr-int-past-float",
        "bandwidth-int-past-float", "mar-heads"])
def test_out_of_range_config_value_fails_before_any_output(tmp_path, capsys, override, cause):
    out = tmp_path / "run"
    rc = main(["train-head", "--method", "energy", "--out", str(out)] + TINY_HEAD
              + ["--set", override])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["shortcut", "meanflow"])
def test_mar_head_kind_that_cannot_train_fails_before_any_output(tmp_path, capsys, kind):
    out = tmp_path / "run"
    rc = main(["train-mar", "--role", "student", "--out", str(out), "--set",
               f"mar.head_kind={kind}"] + TINY_MAR)
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert (f"mar.head_kind must be one of ('energy', 'diffusion', 'flow'), the head kinds "
            f"MAR can train, got '{kind}'") in err
    assert not out.exists()


def test_importing_the_cli_does_not_import_scipy():
    import subprocess
    import sys
    code = "import sys, escore.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_config_counts_are_at_least_one_but_seeds_and_warmups():
    from escore.config import DEFAULTS, resolve_config
    assert resolve_config() == DEFAULTS
    cfg = resolve_config(["seed=-3", "sweep.seeds=[0,-1]", "compare.seeds=[-5]",
                          "train.warmup=0", "mar_train.warmup=0", "mar_train.lambda=0",
                          "decode.cfg_scale=0"])
    assert (cfg["seed"], cfg["sweep"]["seeds"], cfg["compare"]["seeds"]) == (-3, [0, -1], [-5])
    assert cfg["train"]["warmup"] == cfg["mar_train"]["warmup"] == 0


def test_config_head_mar_and_decode_sections_are_the_dataclass_defaults():
    """Each of the three sections is its dataclass's field defaults under the
    section's key map, and the default config builds the default dataclasses."""
    from dataclasses import asdict

    from escore.config import (DECODE_KEYS, HEAD_KEYS, MAR_KEYS, head_config_from,
                               mar_config_from, resolve_config)
    from escore.mar import DecodeConfig, MarConfig
    cfg = resolve_config()
    for section, default, keys in (("head", HeadConfig(), HEAD_KEYS),
                                   ("mar", MarConfig(), MAR_KEYS),
                                   ("decode", DecodeConfig(), DECODE_KEYS)):
        values = asdict(default)
        assert {key: values[name] for key, name in keys.items()} == \
            {key: v for key, v in cfg[section].items() if key != "n_seq"}, section
    assert head_config_from(cfg) == HeadConfig() and mar_config_from(cfg) == MarConfig()


def test_library_decode_defaults_are_the_default_config_decode():
    """A library caller's default DecodeConfig decodes as ``escore decode``
    does by default: guided at the config's scale."""
    from escore.config import decode_config_from, mar_config_from, resolve_config
    from escore.mar import DecodeConfig
    cfg = resolve_config()
    head = mar_config_from(cfg).head_config()
    assert DecodeConfig(seed=3) == decode_config_from(cfg, 3, head)


def test_config_values_take_the_type_of_their_default(tmp_path):
    from escore.config import ConfigError, resolve_config
    cfg = resolve_config(["train.lr=1", "metrics.bandwidth=0.5", "sweep.seeds=[2]"])
    assert (cfg["train"]["lr"], cfg["metrics"]["bandwidth"], cfg["sweep"]["seeds"]) == (1, 0.5, [2])
    path = tmp_path / "cfg.json"
    path.write_text('{"mar_train": {"frozen_backbone": 1}}')
    with pytest.raises(ConfigError, match="'mar_train.frozen_backbone' must be true or false"):
        resolve_config(None, str(path))


@pytest.mark.parametrize("argv", [
    ["train-mar", "--role", "student"] + TINY_MAR + ["--set", "mar.m=1"],
    ["train-head", "--method", "energy"] + TINY_HEAD + ["--set", "head.m=1"],
], ids=["train-mar", "train-head"])
def test_bad_model_config_fails_before_creating_the_run_directory(tmp_path, capsys, argv):
    out = tmp_path / "run"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "m_samples must be >= 2" in err
    assert not out.exists() or not any(out.iterdir())
    assert main(argv[:-2] + ["--out", str(out)]) == 0


@pytest.mark.parametrize("init_from_teacher", [False, True])
def test_frozen_backbone_student_keeps_its_starting_backbone(tmp_path, init_from_teacher):
    """A frozen student's backbone stays as built: fresh, or the teacher's
    under mar_train.init_from_teacher; its head still trains."""
    from escore.mar import MarModel
    argv = ["train-mar", "--role", "student", "--seed", "4", "--out", str(tmp_path / "s"),
            "--set", "mar_train.frozen_backbone=true"] + TINY_MAR
    if init_from_teacher:
        assert main(["train-mar", "--role", "teacher", "--seed", "2",
                     "--out", str(tmp_path / "t")] + TINY_MAR) == 0
        argv += ["--teacher", str(tmp_path / "t" / "mar.ckpt"),
                 "--set", "mar_train.init_from_teacher=true"]
    assert main(argv) == 0
    student = MarModel.load(tmp_path / "s" / "mar.ckpt")
    fresh = MarModel(student.cfg, 4)
    start = MarModel.load(tmp_path / "t" / "mar.ckpt") if init_from_teacher else fresh
    backbone = [name for name in student.params.names() if name.startswith("backbone.")]
    for name in backbone:
        assert np.array_equal(student.params[name].value, start.params[name].value), name
    if init_from_teacher:
        assert any(not np.array_equal(start.params[n].value, fresh.params[n].value)
                   for n in backbone)
    assert any(not np.array_equal(p.value, fresh.params[name].value)
               for name, p in student.params.items() if name.startswith("head."))


def _check_sweep_grid(tmp_path, param, values, ckpt, field=(), extra=()):
    """Runs a one-seed sweep over ``values`` and checks its table. Each value's
    student checkpoint must exist and, given a ``field`` path into the
    manifest's extra, record the value there. Returns the cell directory."""
    from escore.nn import load_checkpoint
    out = tmp_path / "sweep"
    rc = main(["sweep", "--param", param, "--values", ",".join(values), "--out", str(out),
               "--set", "sweep.seeds=[1]", "--set", "sweep.eval_per_class=4"]
              + TINY_MAR + list(extra))
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "param,value,seeds,n,mmd,wsd,energy_u,energy_v"
    assert len(rows) == len(values) + 1
    assert all(row.split(",")[2] == "1" for row in rows[1:])
    cell = out / "cells" / "seed1"
    for value in values:
        manifest, _ = load_checkpoint(cell / ckpt.format(value))
        recorded = manifest["extra"]
        for key in field:
            recorded = recorded[key]
        assert not field or str(recorded) == value
    return cell


def test_sweep_m_grid_contract(tmp_path):
    _check_sweep_grid(tmp_path, "m", ["2", "3"], "student_m{}/mar.ckpt",
                      ("mar_config", "m_samples"))


def test_sweep_wiring_grid_contract(tmp_path):
    _check_sweep_grid(tmp_path, "wiring", ["noise_as_input", "noise_as_condition"],
                      "student_{}/mar.ckpt", ("mar_config", "wiring"))


def test_sweep_blocks_grid_trains_students_of_those_depths(tmp_path):
    _check_sweep_grid(tmp_path, "blocks", ["1", "2"], "student_blocks{}/mar.ckpt",
                      ("mar_config", "n_blocks"))


def test_sweep_lambda_grid_contract(tmp_path):
    cell = _check_sweep_grid(tmp_path, "lambda", ["0.25", "0.5"], "student_lambda{}/mar.ckpt",
                             ("lambda",))
    assert (cell / "teacher" / "mar.ckpt").exists()


def test_sweep_cfg_grid_trains_one_student(tmp_path, capsys):
    cell = _check_sweep_grid(tmp_path, "cfg", ["1.0", "3.0"], "student/mar.ckpt")
    assert [str(p.relative_to(cell)) for p in cell.rglob("*.ckpt")] == ["student/mar.ckpt"]
    assert capsys.readouterr().out == f"sweep written: {tmp_path / 'sweep' / 'sweep.csv'}\n"


@pytest.mark.parametrize("param,values,ckpt", [
    ("m", ["2", "3"], "student_m{}/mar.ckpt"),
    ("wiring", ["noise_as_input", "noise_as_condition"], "student_{}/mar.ckpt"),
], ids=["m", "wiring"])
def test_sweep_distills_every_student_under_a_positive_lambda(tmp_path, param, values, ckpt):
    from escore.nn import load_checkpoint
    cell = _check_sweep_grid(tmp_path, param, values, ckpt,
                             extra=["--set", "mar_train.lambda=0.1"])
    assert (cell / "teacher" / "mar.ckpt").exists()
    for value in values:
        manifest, _ = load_checkpoint(cell / ckpt.format(value))
        assert manifest["extra"]["lambda"] == 0.1


@pytest.mark.parametrize("param,values,ckpt,extra", [
    ("lambda", ["0", "0.5"], "student_lambda{}/mar.ckpt", []),
    ("lambda", ["0", "0.5"], "student_lambda{}/mar.ckpt", ["mar_train.init_from_teacher=true"]),
    ("m", ["2"], "student_m{}/mar.ckpt", ["mar_train.init_from_teacher=true"]),
], ids=["lambda", "lambda-init", "m-init"])
def test_a_frozen_sweep_trains_its_whole_teacher_and_starts_students_from_it(
        tmp_path, param, values, ckpt, extra):
    """Under a frozen backbone the teacher still trains its backbone, and each
    student keeps the backbone it was built with: the teacher's when it
    starts from it, at any lambda, else its own."""
    from escore.mar import MarModel
    extra = ["mar_train.frozen_backbone=true"] + extra
    cell = _check_sweep_grid(tmp_path, param, values, ckpt,
                             extra=[a for kv in extra for a in ("--set", kv)])
    teacher = MarModel.load(cell / "teacher" / "mar.ckpt")
    backbone = [n for n in teacher.params.names() if n.startswith("backbone.")]
    fresh = MarModel(teacher.cfg, 1)
    assert any(not np.array_equal(teacher.params[n].value, fresh.params[n].value)
               for n in backbone)
    for value in values:
        student = MarModel.load(cell / ckpt.format(value))
        start = teacher if "init" in extra[-1] else MarModel(student.cfg, 1)
        for name in backbone:
            assert np.array_equal(student.params[name].value, start.params[name].value), name


SWEEP_GRIDS = {   # id -> (--param, grid values, extra overrides)
    "lambda": ("lambda", [0.0, 0.5], []),
    "cfg": ("cfg", [1.0, 3.0], []),
    "cfg-distilled": ("cfg", [1.0, 3.0], ["mar_train.lambda=0.2"]),
    "m": ("m", [2, 3], []),
    "wiring": ("wiring", ["noise_as_input", "noise_as_condition"], []),
}


@pytest.mark.parametrize("grid", sorted(SWEEP_GRIDS))
def test_sweep_matches_per_parameter_reference(tmp_path, grid):
    """The one sweep cell writes the tables and trains the models that the
    four per-parameter cells did, over two seeds."""
    import sweep_reference
    from escore.config import resolve_config
    from escore.nn import load_checkpoint
    param, values, extra = SWEEP_GRIDS[grid]
    overrides = TINY_MAR[1::2] + ["sweep.seeds=[1,2]", "sweep.eval_per_class=4"] + extra
    new, ref = tmp_path / "new", tmp_path / "ref"
    assert main(["sweep", "--param", param, "--values", ",".join(map(str, values)),
                 "--out", str(new)] + [a for o in overrides for a in ("--set", o)]) == 0
    sweep_reference.run_sweep(resolve_config(overrides), ref, param, values)
    for table in ("sweep.csv", "sweep_cells.csv"):
        assert (new / table).read_bytes() == (ref / table).read_bytes(), table
    ckpts = sorted(ref.rglob("*.ckpt"))
    assert len(ckpts) >= 2
    for path in ckpts:
        _, want = load_checkpoint(path)
        _, got = load_checkpoint(new / path.relative_to(ref))
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want), path.name
    for path in ref.rglob("loss.csv"):
        assert (new / path.relative_to(ref)).read_bytes() == path.read_bytes()
    distilled = grid in ("lambda", "cfg-distilled")
    assert (new / "cells" / "seed1" / "teacher" / "mar.ckpt").exists() == distilled


@pytest.mark.parametrize("kind,steps", [("energy", 1), ("diffusion", 100)])
def test_sweep_cell_decodes_with_the_head_steps_decode_uses(tmp_path, monkeypatch,
                                                            kind, steps):
    """A sweep cell reads cfg["decode"] through the builder that decode uses,
    so a diffusion student samples with its chain length."""
    from escore import experiments
    from escore.config import resolve_config
    from escore.mar import MarModel
    from escore.rng import Stream
    seen = []

    def spy(model, class_id, n_seq, dcfg):
        seen.append(dcfg)
        s = Stream.from_seed(class_id, "fake")
        return s.normal((n_seq, model.cfg.seq_len, data.LATENT_DIM)), {}

    monkeypatch.setattr(MarModel, "decode", spy)
    cfg = resolve_config(TINY_MAR[1::2] + [f"mar.head_kind={kind}",
                                           "sweep.eval_per_class=4"])
    experiments._sweep_cell(cfg, "cfg", [2.0], str(tmp_path / "cell"))   # at seed 1
    assert len(seen) == 3   # one decode per class
    assert {(d.head_steps, d.cfg_scale, d.iterations) for d in seen} == {(steps, 2.0, 4)}


@pytest.mark.parametrize("param,values,cause", [
    ("m", "2,1", "m_samples must be >= 2"),
    ("lambda", "0,-0.5", "mar_train.lambda must be a number >= 0"),
    ("wiring", "noise_as_input,bogus", "unknown wiring 'bogus'"),
], ids=["m", "lambda", "wiring"])
def test_sweep_rejects_an_untrainable_value_before_any_output(tmp_path, capsys, param,
                                                               values, cause):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--param", param, "--values", values, "--out", str(out)] + TINY_MAR)
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "--values" in err
    assert not out.exists()


def test_sweep_unknown_param(tmp_path, capsys):
    rc = main(["sweep", "--param", "dropout", "--values", "1", "--out",
               str(tmp_path / "x")])
    assert rc == 1


def test_gradcheck_smoke(capsys):
    rc = main(["gradcheck", "--points", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    assert "matmul" in out and "transformer-block" in out
    assert "affine(2-d)" in out and "affine(3-d)" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_gradcheck_points_below_one_is_usage_error(capsys, value):
    assert main(["gradcheck", "--points", value]) == 1
    captured = capsys.readouterr()
    assert "--points" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("argv,flag", [
    (["decode", "--ckpt", "{tmp}/mar.ckpt", "--class", "abc"], "--class"),
    (["eval", "--generated", "{tmp}/g.csv", "--reference", "{tmp}/r.csv",
      "--bandwidth", "foo"], "--bandwidth"),
    *[(["eval", "--generated", "{tmp}/g.csv", "--reference", "{tmp}/r.csv",
        "--bandwidth", value], "--bandwidth")
      for value in ("-1", "0", "nan", "inf", "1e-300", "1e-160")],
    (["sweep", "--param", "lambda", "--values", "a,b"], "--values"),
    (["sweep", "--param", "m", "--values", "2,2.5"], "--values"),
    *[(["decode", "--ckpt", "{tmp}/mar.ckpt", "--cfg", value], "--cfg")
      for value in ("nan", "inf", "-inf", "four")],
], ids=["decode-class", "eval-bandwidth", "eval-bandwidth-negative", "eval-bandwidth-zero",
        "eval-bandwidth-nan", "eval-bandwidth-inf", "eval-bandwidth-underflow",
        "eval-bandwidth-factor-overflow", "sweep-lambda", "sweep-m", "decode-cfg-nan",
        "decode-cfg-inf", "decode-cfg-minus-inf", "decode-cfg-word"])
def test_bad_flag_value_names_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


TINY_COMPARE = ["--set", "compare.seeds=[1]",
                "--set", 'compare.steps_by_method={"energy":6,"diffusion":6,'
                         '"flow":6,"shortcut":6,"meanflow":6}',
                "--set", "compare.sample_n=64",
                "--set", "compare.multi_steps=[4,100]",
                "--set", "head.width=16", "--set", "head.depth=1",
                "--set", "train.batch=16", "--set", "data.pool=256"]


@pytest.mark.parametrize("argv,cause", [
    (["compare-swissroll", "--set", "head.m=1"] + TINY_COMPARE, "m_samples must be >= 2"),
    (["compare-swissroll", "--set", "head.wiring=bogus"] + TINY_COMPARE,
     "unknown wiring 'bogus'"),
    (["compare-swissroll", "--set", "head.t_diff=1"] + TINY_COMPARE,
     "a diffusion head takes at most its chain length t_diff = 1 steps, got 4"),
    (["sweep", "--param", "cfg", "--values", "2", "--set", "decode.schedule=bogus",
      "--set", "sweep.seeds=[1]"] + TINY_MAR, "unknown unmask schedule 'bogus'"),
], ids=["compare-m", "compare-wiring", "compare-t-diff", "sweep-schedule"])
def test_bad_model_setting_fails_before_the_verb_writes(tmp_path, capsys, argv, cause):
    from escore.config import DEFAULTS
    assert {4, 100} <= set(DEFAULTS["compare"]["multi_steps"])   # the grid t_diff checks
    out = tmp_path / "run"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not out.exists()


def test_compare_swissroll_tiny(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare-swissroll", "--out", str(out)] + TINY_COMPARE)
    assert rc == 0
    assert capsys.readouterr().out == f"metrics written: {out / 'metrics.csv'}\n"
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) - 1 == 9   # 5 one-step + diffusion/flow at 4 and 100 steps
    assert (out / "swissroll_seed1.svg").exists()
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"energy", "diffusion", "flow", "shortcut", "meanflow"}


def test_a_compare_cell_whose_samples_cannot_be_scored_is_a_runtime_failure(tmp_path, capsys):
    """One Adam step at lr 1e150 leaves finite samples whose pooled distances
    overflow, so the median bandwidth is degenerate: the run's own output,
    not a usage error, and the message names the cell."""
    runs = tmp_path / "runs"
    runs.mkdir()
    rc = main(["compare-swissroll", "--out", str(runs / "cmp"), "--set", "compare.seeds=[1]",
               "--set", 'compare.steps_by_method={"energy":1,"diffusion":1,"flow":1,'
                        '"shortcut":1,"meanflow":1}',
               "--set", "compare.sample_n=64", "--set", "compare.multi_steps=[2]",
               "--set", "head.width=8", "--set", "head.depth=1", "--set", "train.batch=8",
               "--set", "train.warmup=1", "--set", "train.lr=1e150"])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err and "Warning" not in err
    assert re.search(r"runtime failure: compare cell [a-z]+_seed1: its \d+-step samples "
                     r"cannot be scored: degenerate kernel bandwidth inf", err)
    assert list(runs.iterdir()) == []


@pytest.mark.parametrize("argv,cause", [
    (["compare-swissroll"] + TINY_COMPARE + ["--set", "compare.seeds=[1,1]"],
     "compare.seeds lists 1 twice"),
    (["compare-swissroll"] + TINY_COMPARE + ["--set", "compare.multi_steps=[4,2,4]"],
     "compare.multi_steps lists 4 twice"),
    (["compare-swissroll"] + TINY_COMPARE + ["--set", "compare.multi_steps=[1,4]"],
     "compare.multi_steps must hold step counts above 1"),
    (["sweep", "--param", "cfg", "--values", "2"] + TINY_MAR + ["--set", "sweep.seeds=[2,2]"],
     "sweep.seeds lists 2 twice"),
    (["sweep", "--param", "lambda", "--values", "0.5,1,0.5"] + TINY_MAR,
     "--values lists 0.5 twice"),
    (["sweep", "--param", "lambda", "--values", "0.5,0.50"] + TINY_MAR,
     "--values lists 0.5 twice"),
    (["sweep", "--param", "cfg", "--values", "1,1.0"] + TINY_MAR, "--values lists 1.0 twice"),
    (["sweep", "--param", "wiring", "--values", "noise_as_input,noise_as_input"] + TINY_MAR,
     "--values lists 'noise_as_input' twice"),
    (["sweep", "--param", "lambda", "--values", "0.1234561,0.3,0.1234562"] + TINY_MAR,
     "--values 0.1234561 and 0.1234562 both name the student 'student_lambda0.123456'"),
], ids=["compare-seeds", "compare-steps", "compare-step-one", "sweep-seeds", "lambda",
        "lambda-spelt-twice", "cfg", "wiring", "lambda-one-student"])
def test_a_repeated_list_item_fails_before_any_output(tmp_path, capsys, argv, cause):
    """Seeds, step counts and grid values each name an item once: a repeat
    would train a cell twice or write its rows twice."""
    out = tmp_path / "run"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("param", ["backbone.block0.mlp1.w", "head.block0.fc1.w"])
def test_decode_rejects_non_finite_weight_naming_the_leaf(tmp_path, capsys, param):
    from escore.mar import MarModel
    model = MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                               head_kind="diffusion", head_width=16, head_depth=1), 0)
    model.params[param].value[0, 0] = np.nan
    bad = tmp_path / "bad.ckpt"
    model.save(bad)
    rc = main(["decode", "--ckpt", str(bad), "--n", "2", "--iterations", "2",
               "--head-steps", "2", "--out", str(tmp_path / "dec")])
    assert rc == 2
    assert param in capsys.readouterr().err


@pytest.fixture(scope="module")
def noisy_mar_ckpt(tmp_path_factory):
    """A tiny MAR checkpoint whose weights are pushed off their initial scale,
    so a huge CFG scale overflows its guided representation."""
    from escore.mar import MarModel
    from escore.rng import Stream
    model = MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                               head_width=16, head_depth=1), 0)
    for name, p in model.params.items():
        p.value = p.value + Stream.from_seed(0, name).normal(p.value.shape)
    ckpt = tmp_path_factory.mktemp("noisy") / "mar.ckpt"
    model.save(ckpt)
    return ckpt


@pytest.fixture(scope="module")
def mar_teachers(tmp_path_factory):
    """Two tiny diffusion teachers of 8 tokens: one as initialised, and one
    whose input projection and first query weights are scaled by 1e200, so
    its pass overflows a layer norm's row variance."""
    from escore.mar import MarModel
    model = MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                               head_kind="diffusion", head_width=16, head_depth=1), 0)
    root = tmp_path_factory.mktemp("teachers")
    model.save(root / "teacher.ckpt")
    for name in ("backbone.latent_in.w", "backbone.block0.wq.w"):
        model.params[name].value = model.params[name].value * 1e200
    model.save(root / "overflowing.ckpt")
    return root


@pytest.mark.parametrize("argv,diverge,cause", [
    (["train-head", "--method", kind] + TINY_HEAD, ["--set", "train.lr=1e300"],
     f" (training {kind} at step 2)\n")
    for kind in ("energy", "shortcut", "meanflow")
] + [
    (["train-mar", "--role", "teacher"] + TINY_MAR, ["--set", "mar_train.lr=1e300"],
     " (training diffusion at step 2)\n"),
    # the later --teacher wins, so the rerun without it takes the sane teacher
    (["train-mar", "--role", "student", "--teacher", "{teachers}/teacher.ckpt"] + TINY_MAR
     + ["--set", "mar.seq_len=8", "--set", "mar_train.lambda=0.5", "--set", "mar_train.steps=3"],
     ["--teacher", "{teachers}/overflowing.ckpt"],
     "runtime failure: layer_norm: the variance of a row overflowed (the teacher's pass) "
     "(training energy at step 1)\n"),
    (["compare-swissroll"] + TINY_COMPARE, ["--set", "train.lr=1e300"],
     " (training energy at step 2)\n"),
    (["sweep", "--param", "cfg", "--values", "2", "--set", "sweep.seeds=[1]",
      "--set", "sweep.eval_per_class=4"] + TINY_MAR, ["--set", "mar_train.lr=1e300"],
     " (training energy at step 2)\n"),
    (["decode", "--ckpt", "{noisy}", "--n", "2", "--iterations", "2"], ["--cfg", "1e308"],
     "runtime failure: CFG scale 1e+308 gives a non-finite guided representation"),
], ids=["train-head", "train-head-shortcut", "train-head-meanflow", "train-mar",
        "train-mar-teacher-overflow", "compare-swissroll", "sweep", "decode-cfg-overflow"])
def test_diverging_training_run_exits_2_naming_the_kind_and_the_step(tmp_path, capsys, argv,
                                                                     diverge, cause,
                                                                     noisy_mar_ckpt,
                                                                     mar_teachers):
    """A failed run leaves neither ``--out`` nor the hidden sibling it was
    built in, so a sane rerun can use the same ``--out``. A numeric failure
    ends its message with the step it failed in."""
    def placed(args):
        return [a.replace("{noisy}", str(noisy_mar_ckpt)).replace("{teachers}", str(mar_teachers))
                for a in args]
    argv, diverge = placed(argv), placed(diverge)
    runs = tmp_path / "runs"
    runs.mkdir()
    out = ["--out", str(runs / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's overflow warnings are not printed
        rc = main(argv + diverge + out)
    err = capsys.readouterr().err
    assert rc == 2 and cause in err and "Traceback" not in err and "Warning" not in err
    assert list(runs.iterdir()) == []
    assert main(argv + out) == 0
    assert [p.name for p in runs.iterdir()] == ["run"]


@pytest.mark.parametrize("case", ["sample", "decode", "decode-layer-norm"])
def test_a_numeric_failure_names_the_checkpoint(tmp_path, capsys, noisy_mar_ckpt, case):
    """A forward pass that overflows fails the verb (exit 2) without a numpy
    warning, naming the checkpoint: a toy head whose output weights are near
    the float range, a guidance scale that overflows, and a value projection
    weight with its top exponent bit flipped, which overflows the variance of
    a layer norm's row."""
    from escore import nn
    from escore.mar import MarModel
    from escore.swiss import ToyHeadModel
    decode = ["decode", "--n", "2", "--iterations", "2", "--out", str(tmp_path / "dec")]
    if case == "sample":
        ckpt = tmp_path / "head.ckpt"
        model = ToyHeadModel(HeadConfig(kind="energy", width=8, depth=1), seed=0)
        model.params["head.out.w"].value = np.full(model.params["head.out.w"].shape, 1e308)
        model.save(ckpt)
        argv = ["sample", "--ckpt", str(ckpt), "--n", "4", "--out", str(tmp_path / "s.csv")]
    elif case == "decode":
        ckpt = noisy_mar_ckpt
        argv = decode + ["--ckpt", str(ckpt), "--cfg", "1e308"]
    else:
        ckpt = tmp_path / "mar.ckpt"
        MarModel(MarConfig(seq_len=4, hidden_dim=8, n_blocks=1, n_heads=2, head_kind="diffusion",
                           head_width=8, head_depth=1), 0).save(ckpt)
        _, values = nn.load_checkpoint(ckpt)   # in payload order
        names = list(values)
        at = sum(values[n].size for n in names[:names.index("backbone.block0.wv.w")]) + 1
        blob = bytearray(ckpt.read_bytes())
        blob[blob.index(b"\n") + 1 + 8 * at + 7] ^= 0x40   # the value's top exponent bit
        ckpt.write_bytes(bytes(blob))
        argv = decode + ["--ckpt", str(ckpt), "--cfg", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2 and str(ckpt) in err and "Traceback" not in err and "Warning" not in err, err
    assert case != "decode-layer-norm" or "layer_norm: the variance of a row overflowed" in err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "dec").exists()


def _config_key(manifest) -> str:
    """The key of the head or MAR config that ``manifest`` saves."""
    return "mar_config" if "mar_config" in manifest["extra"] else "head_config"


def _config_edit(change):
    """A manifest edit applying ``change`` to the saved head or MAR config."""
    def edit(manifest):
        change(manifest["extra"][_config_key(manifest)])
    return edit


BAD_CHECKPOINTS = {   # defect -> (part edited, its edit, cause printed)
    "missing": ("values", lambda values, name: {k: v for k, v in values.items() if k != name},
                "no value for parameter {name!r}"),
    "unknown": ("values", lambda values, name: {**values, "stray.w": np.zeros(3)},
                "unknown parameter 'stray.w'"),
    "shape": ("values", lambda values, name: {**values, name: np.zeros((2, 2))},
              "parameter {name!r} has shape (2, 2)"),
    "trailing": ("bytes", lambda data: data + b"\0" * 8, "{path}: trailing bytes"),
    "truncated": ("bytes", lambda data: data[:-8], "{path}: truncated payload for"),
    "not-json": ("bytes", lambda data: b"escore\n" + data.split(b"\n", 1)[1],
                 "{path}: checkpoint header is not a JSON manifest"),
    "not-utf8": ("bytes", lambda data: b"\xff" + data,
                 "{path}: checkpoint header is not a JSON manifest"),
    "config-unknown": ("manifest", _config_edit(lambda cfg: cfg.update(stray=1)),
                       "{path}: unknown config key '{config}.stray'"),
    "config-missing": ("manifest", _config_edit(lambda cfg: cfg.pop("m_samples")),
                       "{path}: config key '{config}.m_samples' is missing"),
    "config-type": ("manifest", _config_edit(lambda cfg: cfg.update(m_samples="2")),
                    "{path}: config key '{config}.m_samples' must be an integer like its "
                    "default 2, got '2'"),
    "no-params": ("manifest", lambda manifest: manifest.pop("params"), "no 'params' list"),
    "no-seed": ("manifest", lambda manifest: manifest.pop("seed"), "no integer 'seed'"),
    "params-entry": ("manifest", lambda manifest: manifest["params"][1].pop("shape"),
                     "params entry 1"),
    "params-bool-size": ("manifest", lambda manifest: manifest["params"][1]["shape"].insert(
        0, True), "params entry 1"),
    # sizes the file cannot hold: 128 GiB, and 2**64 values (0 in int64)
    "count-past-file": ("manifest", lambda manifest: manifest["params"][1].update(
        shape=[2 ** 34]), "{path}: truncated payload for"),
    "count-past-int64": ("manifest", lambda manifest: manifest["params"][1].update(
        shape=[2 ** 32, 2 ** 32]), "{path}: truncated payload for"),
}
# a count of 0 or -1 in each integer field of the model configs, one verb each
for _key, _cls in (("head_config", HeadConfig), ("mar_config", MarConfig)):
    for _field in [f.name for f in fields(_cls) if type(f.default) is int]:
        for _value in (0, -1):
            BAD_CHECKPOINTS[f"{_key}.{_field}={_value}"] = (
                "manifest", _config_edit(lambda cfg, f=_field, v=_value: cfg.update({f: v})),
                f"{{path}}: config key '{_key}.{_field}' must be an integer >= 1, got {_value}")


def _rewrite_manifest(path, edit) -> None:
    header, payload = Path(path).read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    edit(manifest)
    Path(path).write_bytes(json.dumps(manifest).encode() + b"\n" + payload)


def _spoil(path, defect, name):
    """Saves the checkpoint again with one defect; returns the expected cause."""
    from escore import nn
    part, edit, cause = BAD_CHECKPOINTS[defect]
    config = _config_key(nn.load_checkpoint(path)[0])
    if part == "bytes":
        Path(path).write_bytes(edit(Path(path).read_bytes()))
    elif part == "manifest":
        _rewrite_manifest(path, edit)
    else:
        manifest, values = nn.load_checkpoint(path)
        params = nn.ParameterSet()
        for key, arr in edit(values, name).items():
            params.add(key, arr)
        nn.save_checkpoint(path, params, config_digest=manifest["config_digest"],
                           seed=manifest["seed"], step=manifest["step"],
                           extra=manifest["extra"])
    return cause.format(name=name, path=path, config=config)


@pytest.mark.parametrize("defect", [d for d in sorted(BAD_CHECKPOINTS)
                                    if not d.startswith("mar_config.")])
def test_sample_rejects_a_bad_checkpoint_naming_the_cause(tmp_path, capsys, defect):
    from escore.swiss import ToyHeadModel
    ckpt = tmp_path / "head.ckpt"
    ToyHeadModel(HeadConfig(kind="energy", width=8, depth=1), seed=0).save(ckpt)
    cause = _spoil(ckpt, defect, "head.block0.fc1.w")
    rc = main(["sample", "--ckpt", str(ckpt), "--steps", "1", "--n", "4",
               "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("defect", [d for d in sorted(BAD_CHECKPOINTS)
                                    if not d.startswith("head_config.")])
def test_decode_rejects_a_bad_checkpoint_naming_the_cause(tmp_path, capsys, defect):
    from escore.mar import MarModel
    ckpt = tmp_path / "mar.ckpt"
    MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                       head_width=16, head_depth=1), 0).save(ckpt)
    cause = _spoil(ckpt, defect, "backbone.block0.mlp1.w")
    rc = main(["decode", "--ckpt", str(ckpt), "--n", "2", "--iterations", "2",
               "--out", str(tmp_path / "dec")])
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["sample", "decode"])
@pytest.mark.parametrize("error,code", [(MemoryError, 2), (ValueError, 1)],
                         ids=["memory", "value"])
def test_a_model_too_large_to_build_fails_naming_the_checkpoint(tmp_path, capsys, monkeypatch,
                                                                verb, error, code):
    """A saved config whose model cannot be allocated (a head width of 2**40
    asks numpy for 16 TiB) fails naming the file. The constructor raises here
    as numpy would: allocating such a model on a host that overcommits memory
    may fill pages instead of failing."""
    from escore.mar import MarModel
    from escore.swiss import ToyHeadModel
    if verb == "sample":
        ckpt, cls = tmp_path / "head.ckpt", ToyHeadModel
        ToyHeadModel(HeadConfig(kind="energy", width=8, depth=1), seed=0).save(ckpt)
        argv = ["sample", "--ckpt", str(ckpt), "--n", "4", "--out", str(tmp_path / "out")]
    else:
        ckpt, cls = tmp_path / "mar.ckpt", MarModel
        MarModel(MarConfig(seq_len=4, hidden_dim=8, n_blocks=1, n_heads=2, head_width=8,
                           head_depth=1), 0).save(ckpt)
        argv = ["decode", "--ckpt", str(ckpt), "--n", "1", "--out", str(tmp_path / "out")]

    def refuse(self, *args, **kwargs):
        raise error("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(cls, "__init__", refuse)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == code and f"{ckpt}: cannot build the model of its " in err
    assert "Unable to allocate 16.0 TiB" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# runs the CLI on its arguments with the address space capped, so a load that
# allocates what a saved config asks for fails here instead of filling the host
_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from escore.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("kind,field,value,code,cause", [
    ("energy", "depth", 2 ** 40, 1, "no value for parameter 'head.block1.fc1.w'"),
    ("energy", "width", 2 ** 40, 1, "parameter 'head.inp.w' has shape (2, 8), "
                                    "expected (2, 1099511627776)"),
    ("diffusion", "t_diff", 2 ** 40, 2, "cannot build the model of its head_config"),
    ("mar", "n_blocks", 10 ** 30, 1, "no value for parameter 'backbone.block1.wq.w'"),
    ("mar", "seq_len", 2 ** 40, 1, "parameter 'backbone.pos_embed' has shape (6, 8), "
                                   "expected (1099511627778, 8)"),
], ids=["depth", "width", "t_diff", "n_blocks", "seq_len"])
def test_a_saved_config_too_large_to_build_fails_without_building_it(tmp_path, kind, field,
                                                                     value, code, cause):
    """A saved config whose layout outgrows the file fails at the first
    parameter it lacks or sizes otherwise, before a parameter is made; only the
    diffusion schedule, which ``t_diff`` sizes, is allocated, and fails. The
    child runs under a 400 MiB address-space limit."""
    import subprocess
    import sys
    from escore.mar import MarModel
    from escore.swiss import ToyHeadModel
    ckpt, out = tmp_path / "model.ckpt", tmp_path / "out"
    if kind == "mar":
        MarModel(MarConfig(seq_len=4, hidden_dim=8, n_blocks=1, n_heads=2, head_width=8,
                           head_depth=1), 0).save(ckpt)
        argv = ["decode", "--ckpt", str(ckpt), "--n", "1", "--iterations", "2"]
    else:
        ToyHeadModel(HeadConfig(kind=kind, width=8, depth=1), seed=0).save(ckpt)
        argv = ["sample", "--ckpt", str(ckpt), "--n", "4"]
    _rewrite_manifest(ckpt, _config_edit(lambda cfg: cfg.update({field: value})))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code and f"{ckpt}: " in done.stderr and cause in done.stderr
    assert "Traceback" not in done.stderr and not out.exists()


@pytest.mark.parametrize("kind", ["energy", "diffusion", "flow", "shortcut", "meanflow",
                                  "mar-energy", "mar-diffusion", "mar-flow"])
def test_a_load_draws_no_initial_value(tmp_path, monkeypatch, kind):
    """Loading a checkpoint opens no ``init/`` stream: every value is the file's."""
    from escore.mar import MarModel
    from escore.rng import Stream
    from escore.swiss import ToyHeadModel
    ckpt = tmp_path / "model.ckpt"
    if kind.startswith("mar-"):
        cls, model = MarModel, MarModel(MarConfig(seq_len=4, hidden_dim=8, n_blocks=2,
                                                  n_heads=2, head_kind=kind[4:], head_width=8,
                                                  head_depth=1), 0)
    else:
        cls, model = ToyHeadModel, ToyHeadModel(HeadConfig(kind=kind, width=8, depth=1), 0)
    model.save(ckpt)
    from_seed = Stream.from_seed.__func__

    def no_init(stream_cls, seed, label="root"):
        assert not label.startswith("init/"), f"a load drew {label}"
        return from_seed(stream_cls, seed, label)

    monkeypatch.setattr(Stream, "from_seed", classmethod(no_init))
    loaded = cls.load(ckpt)
    for name, p in model.params.items():
        assert loaded.params[name].value.tobytes() == p.value.tobytes(), name


@pytest.mark.parametrize("change,cause", [
    ({"head_kind": "shortcut"}, "mar.head_kind must be one of ('energy', 'diffusion', 'flow')"),
    ({"mask_lo": 0.9, "mask_hi": 0.8}, "mar.mask_lo must be <= mar.mask_hi, got 0.9 > 0.8"),
    ({"n_heads": 3}, "mar.hidden_dim must be a multiple of mar.n_heads, got 16 and 3"),
], ids=["head-kind", "mask-order", "heads"])
def test_decode_rejects_a_mar_config_its_rules_forbid(tmp_path, capsys, change, cause):
    from escore.mar import MarModel
    ckpt = tmp_path / "mar.ckpt"
    MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                       head_width=16, head_depth=1), 0).save(ckpt)
    _rewrite_manifest(ckpt, _config_edit(lambda cfg: cfg.update(change)))
    out = tmp_path / "dec"
    rc = main(["decode", "--ckpt", str(ckpt), "--n", "2", "--iterations", "2",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and f"{ckpt}: {cause}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["sample", "--ckpt", "{tmp}/absent.ckpt", "--out", "{tmp}/out.csv"], "absent.ckpt"),
    (["decode", "--ckpt", "{tmp}/absent.ckpt", "--out", "{tmp}/out"], "absent.ckpt"),
    (["train-mar", "--role", "student", "--teacher", "{tmp}/absent.ckpt", "--out", "{tmp}/out"],
     "absent.ckpt"),
    (["eval", "--generated", "{tmp}/absent.csv", "--reference", "{tmp}/points.csv",
      "--out", "{tmp}/out.csv"], "absent.csv"),
    (["eval", "--generated", "{tmp}/points.csv", "--reference", "{tmp}/absent.csv",
      "--out", "{tmp}/out.csv"], "absent.csv"),
    (["train-head", "--method", "energy", "--config", "{tmp}/absent.json", "--out", "{tmp}/out"],
     "absent.json"),
    (["train-head", "--method", "energy", "--config", "{tmp}/points.csv", "--out", "{tmp}/out"],
     "points.csv: not a JSON config file"),
], ids=["sample-ckpt", "decode-ckpt", "train-mar-teacher", "eval-generated",
        "eval-reference", "config", "config-not-json"])
def test_unreadable_input_file_is_usage_error_naming_it(tmp_path, capsys, argv, named):
    data.write_points_csv(tmp_path / "points.csv", np.zeros((4, 2)))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path}/{named}" in err and "Traceback" not in err
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


READER_DEFECTS = {   # id -> (the flag that reads the file, its bytes, cause after the path)
    "csv-not-utf8": ("--generated", b"x0,x1\n\xff,1\n", ": not a points CSV: 'utf-8' codec"),
    "csv-long-field": ("--generated", b"x0,x1\n" + b"1" * 131_073 + b",1\n",
                       ": not a points CSV: field larger than field limit"),
    "csv-long-index": ("--generated", b"x0,x" + b"1" * 5_000 + b"\n1,1\n", ": header ["),
    "config-deep": ("--config", b"[" * 100_000, ": not a JSON config file: maximum recursion"),
    "config-unknown-key": ("--config", b'{"data": {"pools": 1}}',
                           ": unknown config key 'data.pools'"),
    "config-bad-value": ("--config", b'{"sweep": {"seeds": [3, 3]}}',
                         ": sweep.seeds lists 3 twice"),
}


@pytest.mark.parametrize("defect", sorted(READER_DEFECTS))
def test_a_reader_names_the_file_on_any_bad_input(tmp_path, capsys, defect):
    flag, blob, cause = READER_DEFECTS[defect]
    bad, good = tmp_path / "bad", tmp_path / "good.csv"
    bad.write_bytes(blob)
    data.write_points_csv(good, np.zeros((3, 2)))
    argv = {"--generated": ["eval", "--generated", str(bad), "--reference", str(good)],
            "--config": ["train-head", "--method", "energy", "--config", str(bad)]}[flag]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}{cause}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_eval_names_both_files_when_the_metrics_cannot_score_them(tmp_path, capsys):
    gen, ref = tmp_path / "gen.csv", tmp_path / "ref.csv"
    data.write_points_csv(gen, np.zeros((2, 2)))
    data.write_points_csv(ref, np.ones((3, 2)))
    assert main(["eval", "--generated", str(gen), "--reference", str(ref),
                 "--out", str(tmp_path / "m.csv"), "--metrics", "wsd"]) == 1
    assert f"{gen} against {ref}: set sizes differ: 2 vs 3" in capsys.readouterr().err


def test_a_set_value_nested_too_deep_is_usage_error_naming_the_key(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-head", "--method", "energy", "--out", str(out),
                 "--set", "seed=" + "[" * 100_000]) == 1
    err = capsys.readouterr().err
    assert "override 'seed': value nested too deep to parse" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["decode", "--ckpt", "{tmp}/mar.ckpt", "--out", "{tmp}/dec", "--iterations", "0"],
     "--iterations"),
    (["decode", "--ckpt", "{tmp}/mar.ckpt", "--out", "{tmp}/dec", "--head-steps", "0"],
     "--head-steps"),
    (["decode", "--ckpt", "{tmp}/mar.ckpt", "--out", "{tmp}/dec", "--cfg", "nan"], "--cfg"),
    (["sample", "--ckpt", "{tmp}/head.ckpt", "--out", "{tmp}/s.csv", "--n", "0"], "--n"),
    (["gradcheck", "--points", "0"], "--points"),
], ids=["decode-iterations", "decode-head-steps", "decode-cfg-nan", "sample-n",
        "gradcheck-points"])
def test_a_flag_the_cli_checks_is_usage_error_naming_it(tmp_path, capsys, argv, flag):
    """The flag is checked as the command line is parsed, before any file is
    read or written."""
    rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and f"argument {flag}" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--iterations", "--n", "--head-steps"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_decode_count_below_one_is_usage_error(tmp_path, capsys, flag, value):
    from escore.mar import MarModel
    ckpt = tmp_path / "mar.ckpt"
    MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                       head_width=16, head_depth=1), 0).save(ckpt)
    rc = main(["decode", "--ckpt", str(ckpt), flag, value, "--out", str(tmp_path / "dec")])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "dec").exists()


@pytest.mark.parametrize("argv,cause", [
    (["--class", "99"], "class id must be in [0, 3) or null, got 99"),
    (["--iterations", "9"], "iterations must be in [1, 8], got 9"),
    (["--head-steps", "3"], "energy heads sample in exactly one step"),
], ids=["class", "iterations", "head-steps"])
def test_decode_rejects_inputs_before_creating_the_run_directory(tmp_path, capsys, argv,
                                                                 cause):
    from escore.mar import MarModel
    ckpt = tmp_path / "mar.ckpt"
    MarModel(MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                       head_width=16, head_depth=1), 0).save(ckpt)
    out = tmp_path / "dec"
    rc = main(["decode", "--ckpt", str(ckpt), "--n", "2", "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert rc == 1 and cause in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n", "--steps"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_sample_count_below_one_is_usage_error(tmp_path, capsys, flag, value):
    from escore.swiss import ToyHeadModel
    ckpt = tmp_path / "head.ckpt"
    ToyHeadModel(HeadConfig(kind="diffusion", width=8, depth=1), seed=0).save(ckpt)
    argv = {"--n": "4", "--steps": "2", flag: value}
    rc = main(["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "s.csv")]
              + [part for item in argv.items() for part in item])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", ""])
def test_bad_escore_threads_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("ESCORE_THREADS", value)
    assert main(["gradcheck", "--points", "1"]) == 1
    err = capsys.readouterr().err
    assert "ESCORE_THREADS" in err and repr(value) in err


def test_valid_escore_threads_is_accepted(monkeypatch, tmp_path):
    monkeypatch.setenv("ESCORE_THREADS", "2")
    assert main(["train-head", "--method", "energy", "--out",
                 str(tmp_path / "run")] + TINY_HEAD) == 0


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _job_after_a_failed_first(index: int, marks: str) -> None:
    if index == 0:
        raise RuntimeError("the first job fails")
    time.sleep(0.1)
    (Path(marks) / f"job{index}").touch()


def test_a_failed_pool_job_stops_the_jobs_not_yet_started(monkeypatch, tmp_path):
    monkeypatch.setenv("ESCORE_THREADS", "2")
    jobs = [(index, str(tmp_path)) for index in range(9)]
    with pytest.raises(RuntimeError, match="the first job fails"):
        experiments.run_jobs(_job_after_a_failed_first, jobs)
    assert len(list(tmp_path.iterdir())) < len(jobs) - 1


def _blas_threads(_) -> int:
    return experiments.bundled_openblas().scipy_openblas_get_num_threads64_()


@pytest.mark.skipif(experiments.bundled_openblas() is None,
                    reason="numpy bundles no scipy-openblas")
def test_pool_workers_run_blas_on_one_thread_unless_the_environment_says(monkeypatch):
    monkeypatch.setenv("ESCORE_THREADS", "2")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    lib = experiments.bundled_openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)   # forked workers start with this count
    try:
        assert experiments.run_jobs(_blas_threads, [(0,), (1,)]) == [1, 1]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert experiments.run_jobs(_blas_threads, [(0,), (1,)]) == [2, 2]
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_every_cell_checkpoint_records_the_config_of_its_own_seed(tmp_path):
    """A compare or sweep cell trains from the run's config with its seed
    merged over it, and its checkpoints hash that config. Every checkpoint
    sits in a run directory whose config.json and config.digest record it."""
    from escore.config import config_digest, nested, overridden
    from escore.nn import load_checkpoint
    cmp, swp, cfg_swp = tmp_path / "cmp", tmp_path / "swp", tmp_path / "cfg_swp"
    assert main(["compare-swissroll", "--out", str(cmp), "--set", "compare.seeds=[1,2]",
                 "--set", "compare.multi_steps=[4]"] + TINY_COMPARE[2:]) == 0
    sweep = ["--set", "sweep.seeds=[1,2]", "--set", "sweep.eval_per_class=4"] + TINY_MAR
    assert main(["sweep", "--param", "lambda", "--values", "0,0.1", "--out", str(swp)]
                + sweep) == 0
    assert main(["sweep", "--param", "cfg", "--values", "1,3", "--out", str(cfg_swp),
                 "--set", "mar_train.lambda=0.1"] + sweep) == 0
    expected = {}
    cfg = json.loads((cmp / "config.json").read_text())
    for method, steps in cfg["compare"]["steps_by_method"].items():
        for seed in (1, 2):
            cell = overridden(cfg, {"head": {"method": method}, "train": {"steps": steps}},
                              {"seed": seed})
            expected[f"cells/{method}_seed{seed}/head.ckpt"] = config_digest(cell)
    cfg = json.loads((swp / "config.json").read_text())
    for seed in (1, 2):
        cell = overridden(cfg, {"seed": seed})
        expected[f"cells/seed{seed}/teacher/mar.ckpt"] = config_digest(
            overridden(cell, experiments.TEACHER))
        for value in (0.0, 0.1):
            expected[f"cells/seed{seed}/student_lambda{value:g}/mar.ckpt"] = config_digest(
                overridden(cell, nested("mar_train.lambda", value)))
    found = {str(p.relative_to(root)): load_checkpoint(p)[0]["config_digest"]
             for root in (cmp, swp) for p in root.rglob("*.ckpt")}
    assert found == expected
    seed1 = {name: digest for name, digest in expected.items() if "seed1" in name}
    assert all(expected[name.replace("seed1", "seed2")] != d for name, d in seed1.items())
    ckpts = [path for root in (cmp, swp, cfg_swp) for path in root.rglob("*.ckpt")]
    assert len(ckpts) == len(expected) + 4   # a teacher and a student per seed
    for path in ckpts:
        digest = load_checkpoint(path)[0]["config_digest"]
        assert (path.parent / "config.digest").read_text() == digest + "\n", path
        assert config_digest(json.loads((path.parent / "config.json").read_text())) == digest


def test_compare_swissroll_output_does_not_depend_on_thread_count(monkeypatch, tmp_path):
    trees = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ESCORE_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert main(["compare-swissroll", "--out", str(out)] + TINY_COMPARE) == 0
        trees.append(_tree(out))
    assert list(trees[0]) == list(trees[1]) and len(trees[0]) > 10
    for name, blob in trees[0].items():
        assert trees[1][name] == blob, name


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="mallopt is glibc's")
def test_freed_buffers_are_reused_without_page_faults():
    assert retain_freed_memory()

    def rounds(n):
        for _ in range(n):
            live = [np.ones(1 << 17) for _ in range(10)]   # ten 1 MiB buffers at once
            del live

    rounds(1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds(20)
    # glibc's defaults map and unmap these: about 50,000 faults
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def test_allocator_tuning_yields_to_the_environment(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    retain_freed_memory.cache_clear()
    try:
        assert retain_freed_memory() is False
    finally:
        retain_freed_memory.cache_clear()
