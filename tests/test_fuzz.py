"""Fuzzers for the file readers, run through ``cli.main``: checkpoints
(``sample --ckpt`` and ``decode --ckpt``), points CSVs (``eval
--generated``) and config files (``--config``).

Whatever the bytes, a verb exits 0, 1 or 2, never raises, prints no
traceback, and a failing verb names the file it was given. The inputs are
truncations, byte flips and splices of a small valid file, and random bytes
or text.

The tests set no example count: they take the loaded hypothesis profile's
(``conftest.py``). Tier-1 runs a few examples each; the ``fuzz`` profile
runs many more::

    PYTHONPATH=src python -m pytest -q tests/test_fuzz.py --hypothesis-profile=fuzz
"""
import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from escore import data
from escore.cli import main
from escore.config import DEFAULTS
from escore.heads import HeadConfig
from escore.mar import MarConfig, MarModel
from escore.swiss import ToyHeadModel
from oracles import gaussian_source


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a tiny valid toy-head and MAR checkpoint, two
    points CSVs and a config file."""
    root = tmp_path_factory.mktemp("fuzz")
    ToyHeadModel(HeadConfig(kind="energy", width=4, depth=1), seed=0).save(root / "head.ckpt")
    MarModel(MarConfig(seq_len=4, hidden_dim=8, n_blocks=1, n_heads=2, head_width=4,
                       head_depth=1), 0).save(root / "mar.ckpt")
    data.write_points_csv(root / "gen.csv", gaussian_source(6, 2, seed=1).points)
    data.write_points_csv(root / "ref.csv", gaussian_source(6, 2, seed=2).points)
    (root / "config.json").write_text(json.dumps(DEFAULTS))
    return root


@st.composite
def _mutated(draw, blob: bytes) -> bytes:
    """``blob`` truncated, with bytes flipped, or with one range cut out or
    repeated (a splice of the file with itself)."""
    n = len(blob)
    how = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if how == "truncate":
        return blob[:draw(st.integers(0, n - 1))]
    if how == "flip":
        out = bytearray(blob)
        for at, mask in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                                      min_size=1, max_size=4)):
            out[at] ^= mask
        return bytes(out)
    return blob[:draw(st.integers(0, n))] + blob[draw(st.integers(0, n)):]


def _inputs(files, name: str, random):
    """Mutations of the valid file ``name``, or ``random`` input."""
    return st.one_of(_mutated((files / name).read_bytes()), random)


def _check(argv: list[str], named) -> None:
    """Runs the CLI on ``argv``: exit 0, 1 or 2 without a traceback, and a
    non-zero exit names ``named``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc in (0, 1, 2), message
    assert "Traceback" not in message
    assert rc == 0 or str(named) in message, message


@given(pick=st.data())
def test_sample_reads_any_checkpoint_bytes(files, pick):
    ckpt = files / "sample.ckpt"
    ckpt.write_bytes(pick.draw(_inputs(files, "head.ckpt", st.binary())))
    _check(["sample", "--ckpt", str(ckpt), "--steps", "1", "--n", "4",
            "--out", str(files / "samples.csv")], ckpt)


@given(pick=st.data())
def test_decode_reads_any_checkpoint_bytes(files, pick):
    ckpt, out = files / "decode.ckpt", files / "decoded"
    ckpt.write_bytes(pick.draw(_inputs(files, "mar.ckpt", st.binary())))
    shutil.rmtree(out, ignore_errors=True)
    _check(["decode", "--ckpt", str(ckpt), "--n", "1", "--iterations", "2",
            "--out", str(out)], ckpt)


@given(pick=st.data())
def test_eval_reads_any_points_csv_bytes(files, pick):
    gen = files / "generated.csv"
    gen.write_bytes(pick.draw(_inputs(files, "gen.csv", st.binary())))
    _check(["eval", "--generated", str(gen), "--reference", str(files / "ref.csv"),
            "--out", str(files / "metrics.csv")], gen)


@given(pick=st.data())
def test_a_verb_reads_any_config_file(files, pick):
    config, out = files / "fuzzed.json", files / "decoded"
    config.write_bytes(pick.draw(_inputs(files, "config.json",
                                         st.text().map(lambda text: text.encode()))))
    shutil.rmtree(out, ignore_errors=True)
    _check(["decode", "--ckpt", str(files / "mar.ckpt"), "--n", "1", "--iterations", "2",
            "--config", str(config), "--out", str(out)], config)
