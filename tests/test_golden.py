"""Golden digests: byte-for-byte artifacts of fixed tiny CLI runs.

Every artifact below comes from `escore.cli.main` with only sizes and step
budgets shrunk through `--set`. The sha256 values were recorded once and are
never edited: a change to the graph engine, the layers, the metrics or the
runners that alters a single bit of a checkpoint, loss log, sample file,
decode output or metrics CSV fails here. A change that is meant to alter
numerics must say so and why.

``GOLDEN`` holds one table per (numpy dispatch path, OpenBLAS core) pair.
numpy 2.4.6 rounds float64 ``exp``, ``log`` and ``power`` differently in
its AVX-512 (``X86_V4``) loops and its AVX2 (``X86_V3``) loops (``tanh``,
``sin``, ``cos``, ``sqrt``, matmul and the reductions agree), so seven
digests differ between the two SkylakeX tables: both MAR checkpoints, the
student's loss log, the mean-flow head, the energy decode's sequences and
both metrics CSVs (the last bits of the eval's MMD and of the energy head's
MMD in the compare CSV). The OpenBLAS that numpy bundles picks its GEMM
kernels by CPU too, and those kernels round differently: its Haswell
kernels, which an AVX2 host runs, move the toy heads' checkpoints, the
sample and decode outputs and the MAR runs as well. The AVX2 tables were
recorded on an AVX-512 host with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, the Haswell
one also with ``OPENBLAS_CORETYPE=Haswell``, which is how an AVX-512 host
checks them. A pair with no table fails every digest test with a message
naming both parts; it is never skipped.

Both SkylakeX tables were recorded again, once, when the run surface dropped the
settings that chose nothing and the recorded facts that repeated others;
no parameter value, loss, sample, decode or score changed. Fourteen
artifacts moved in each table: the five toy ``head.ckpt`` (their manifest
``extra`` lost ``kind`` and ``prefix``, their ``head_config`` lost four
fields that became module constants, and the config digest lost
``decode.guided`` and ``metrics.n``), the five toy ``loss.csv`` (the ``lr``
column now holds the step's warmed-up rate, as the MAR logs do, so the
warm-up rows changed), both ``mar.ckpt`` (the config digest, and ``extra``
lost ``m`` and ``wiring``, which repeat ``mar_config``) and both
``decode_stats.json`` (the ``guided`` entry is gone). The Haswell table was
recorded after that, once.

All three tables were recorded again, once, when the head, MAR and decode
dataclasses became the only home of their settings' rules. Exactly seven
artifacts moved in each: the five toy ``head.ckpt`` and both ``mar.ckpt``,
because their manifests lost the retired fields (``head_config`` lost
``latent_dim`` and ``x0_clip``, ``mar_config`` lost ``latent_dim`` and
``n_classes``, all now module constants). Their parameter bytes and the
other thirteen artifacts did not change on any of the three pairs.

All three tables were recorded again, once, when a teacher run began to
train from the config it records: its config is the given one with
``experiments.TEACHER`` over it, so its ``config.json`` says
``mar.head_kind`` "diffusion", the head it trains. Exactly one artifact
moved in each table, ``teacher/mar.ckpt``, and only through its manifest's
``config_digest``; its parameter bytes and ``teacher/loss.csv`` did not
change on any of the three pairs. Running this file as a script prints the
current pair's table.
"""
import ctypes
import hashlib
import json

import numpy as np
import pytest

from escore.cli import main
from escore.experiments import bundled_openblas


def _dispatch_path() -> str:
    """The numpy float64 loops this process runs: AVX-512, AVX2 or neither."""
    try:
        features = np._core._multiarray_umath.__cpu_features__
    except AttributeError:
        return "unknown (numpy reports no CPU features)"
    if features.get("X86_V4"):
        return "AVX-512"
    return "AVX2" if features.get("X86_V3") else "baseline (no X86_V3 or X86_V4)"


def _blas_core() -> str:
    """The kernel set that numpy's bundled OpenBLAS chose for this CPU."""
    try:
        corename = bundled_openblas().scipy_openblas_get_corename64_
    except AttributeError:   # no bundled library, or one without the call
        return "unknown (no bundled scipy-openblas reports its core)"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


PAIR = (_dispatch_path(), _blas_core())

TINY_HEAD = ["--set", "train.steps=6", "--set", "train.batch=16",
             "--set", "train.warmup=2", "--set", "head.width=16",
             "--set", "head.depth=2", "--set", "data.pool=256"]

TINY_MAR = ["--set", "mar.hidden_dim=16", "--set", "mar.n_blocks=2",
            "--set", "mar.n_heads=2", "--set", "mar.head_width=16",
            "--set", "mar.head_depth=2", "--set", "mar_train.steps=4",
            "--set", "mar_train.warmup=2", "--set", "mar_train.batch=4",
            "--set", "data.per_class=8"]

KINDS = ("energy", "diffusion", "flow", "shortcut", "meanflow")

GOLDEN = {
    ("AVX-512", "SkylakeX"): {
        "compare/metrics.csv": "7756e998e8320873161047ad99f642c495c1bd4b481af7e0a361a1af1407e0f1",
        "decode_diffusion/decode_stats.json": "c5421a35b22b4e2f755a47cc6d8d1782bbdf2494dc1298295267a0b223516796",
        "decode_diffusion/sequences.csv": "de243d6a3a61c20075d32ef92b49534c6a8fac1af7bcc48f19500e738337232e",
        "decode_energy/decode_stats.json": "34d82d2f6b85919dee6785f81657a871fe8380312682856c7233c8d5b8733de8",
        "decode_energy/sequences.csv": "71d5d112b9c191730daf04e1d950624711c98f929d5f81f8a7e150c080ed4da4",
        "diffusion/head.ckpt": "024ed409d779bee3e55b10803a47f02493838b4db7fb60cbbbb12b25a9509384",
        "diffusion/loss.csv": "9895388f3bb74646b7818b09f95cb8ec3603bd81522adcebf3d80f9786dded7a",
        "energy/head.ckpt": "9fb6444835bfd666e7a6ea2306e25fe06d31d915d77b2869136f3b354b50d6c6",
        "energy/loss.csv": "cdbb2e4c4895e8d065b2b37231b9ffc0b3dd31a86445bab822e52448660b5c4a",
        "eval.csv": "657907e360a42b1fd29dee8489b04fb0e08362f08a42b6b478421f343cf99563",
        "flow/head.ckpt": "d5bd9e8051276dde92b784140a080823e7b135db1be16d20c942133bd978fbfd",
        "flow/loss.csv": "079aadb69a040a891aa93ef356f61a1e923a9097ba8428143d0f51e5d4528498",
        "meanflow/head.ckpt": "4502059265f5f3eddd039a7cd43b8d38d0c74917e53634ec9ee17725ee6c11c4",
        "meanflow/loss.csv": "0ac0f0467fd4bbc0a1f3dade73da9e89d14a16591a87c93c44b8ce5261481f36",
        "samples.csv": "965c26e44f07a87dad22a0aec6cf5136ad479e70a90e337a83517a23f9cbcb7a",
        "shortcut/head.ckpt": "22b418f57fe309861ffc2e2e665662003143eb829895c670ae738801db886e1b",
        "shortcut/loss.csv": "31fa1224459641d88d6f2cbfb9b3bdfbedcabcffe629c600b3c23040da8ee4f8",
        "student/loss.csv": "e66e5bc44b8ad9ebfb8a84f2dc40302c1390a2e20a5ca0051254988423e3de3b",
        "student/mar.ckpt": "3944b42bab44acc379d52499d69c586e2aea5522f27105e8296bd29f5c4aa718",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "f675aa0c98585bd64a46cd88e34b54fa98eb00bee845a2ff8805ea6818aadbd9",
    },
    ("AVX2", "SkylakeX"): {
        "compare/metrics.csv": "78f00db5e50ab9fddf2ad082ebe1ab11d0c7fb62f925e30173fd569ff6d174a7",
        "decode_diffusion/decode_stats.json": "c5421a35b22b4e2f755a47cc6d8d1782bbdf2494dc1298295267a0b223516796",
        "decode_diffusion/sequences.csv": "de243d6a3a61c20075d32ef92b49534c6a8fac1af7bcc48f19500e738337232e",
        "decode_energy/decode_stats.json": "34d82d2f6b85919dee6785f81657a871fe8380312682856c7233c8d5b8733de8",
        "decode_energy/sequences.csv": "606e36466d1848e06b7bec1012d18876d001b57b7f7e24653e35abd72a7220cf",
        "diffusion/head.ckpt": "024ed409d779bee3e55b10803a47f02493838b4db7fb60cbbbb12b25a9509384",
        "diffusion/loss.csv": "9895388f3bb74646b7818b09f95cb8ec3603bd81522adcebf3d80f9786dded7a",
        "energy/head.ckpt": "9fb6444835bfd666e7a6ea2306e25fe06d31d915d77b2869136f3b354b50d6c6",
        "energy/loss.csv": "cdbb2e4c4895e8d065b2b37231b9ffc0b3dd31a86445bab822e52448660b5c4a",
        "eval.csv": "2a4b1694c84a933c2dc4498fb3a85044ed12a08dd91e8d499b0c56ea56cc942d",
        "flow/head.ckpt": "d5bd9e8051276dde92b784140a080823e7b135db1be16d20c942133bd978fbfd",
        "flow/loss.csv": "079aadb69a040a891aa93ef356f61a1e923a9097ba8428143d0f51e5d4528498",
        "meanflow/head.ckpt": "25b89b54f452bb2ea26ed469a3ebf3cccf49e551f513a66d7ebfc752595c8425",
        "meanflow/loss.csv": "0ac0f0467fd4bbc0a1f3dade73da9e89d14a16591a87c93c44b8ce5261481f36",
        "samples.csv": "965c26e44f07a87dad22a0aec6cf5136ad479e70a90e337a83517a23f9cbcb7a",
        "shortcut/head.ckpt": "22b418f57fe309861ffc2e2e665662003143eb829895c670ae738801db886e1b",
        "shortcut/loss.csv": "31fa1224459641d88d6f2cbfb9b3bdfbedcabcffe629c600b3c23040da8ee4f8",
        "student/loss.csv": "ba8a182d8c14f2a1beb0474149ddff4185b2f0e84e6d12a12071687f79c200d8",
        "student/mar.ckpt": "6a1c805bf1be8b8eb48201631755601235fd9a3dbefa038c7ce65e5971c10e96",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "113d7ed9d3edd0a6c5bd922d88d94c9e7a43698a88a83d320f8901156f347ee7",
    },
    ("AVX2", "Haswell"): {
        "compare/metrics.csv": "78f00db5e50ab9fddf2ad082ebe1ab11d0c7fb62f925e30173fd569ff6d174a7",
        "decode_diffusion/decode_stats.json": "c5421a35b22b4e2f755a47cc6d8d1782bbdf2494dc1298295267a0b223516796",
        "decode_diffusion/sequences.csv": "52c291c5c693cd2805866f9bbadb5783d63dbcc7434cae619cf8903e76983dcd",
        "decode_energy/decode_stats.json": "34d82d2f6b85919dee6785f81657a871fe8380312682856c7233c8d5b8733de8",
        "decode_energy/sequences.csv": "50b4b11b549d4c9a3993ad36dca0bcc175e5e1fa9429fd22927e8ac2986d5bc6",
        "diffusion/head.ckpt": "29109b3347bbdb1a7a1d7842dd6723cd5cd832a53c6c2dd7d81e5305ba318ccd",
        "diffusion/loss.csv": "9895388f3bb74646b7818b09f95cb8ec3603bd81522adcebf3d80f9786dded7a",
        "energy/head.ckpt": "bc256d6a2791d36f5682614afca1ff1245521de96f5b278940b7b49d686fbc44",
        "energy/loss.csv": "fd38cbff6da7385ff9ffe173bc1d335077c1d951f10f6b77d5c84907de01fe93",
        "eval.csv": "657907e360a42b1fd29dee8489b04fb0e08362f08a42b6b478421f343cf99563",
        "flow/head.ckpt": "5d446059e86077d4e8507062b7be1f476d31585c0c130d89bdb4903ea6909ea4",
        "flow/loss.csv": "079aadb69a040a891aa93ef356f61a1e923a9097ba8428143d0f51e5d4528498",
        "meanflow/head.ckpt": "f5ea929086d0aabb958240b495cf2a0d16300044c73a7feb0a257c621742790d",
        "meanflow/loss.csv": "0ac0f0467fd4bbc0a1f3dade73da9e89d14a16591a87c93c44b8ce5261481f36",
        "samples.csv": "56468baceef253ce8e5e4e8f46debbd4d076f277252494b4273d364573076081",
        "shortcut/head.ckpt": "db52bb85c31cdf2a78d9bd04309da7fdfff9dbb828d3f8da7a17f19533af7518",
        "shortcut/loss.csv": "31fa1224459641d88d6f2cbfb9b3bdfbedcabcffe629c600b3c23040da8ee4f8",
        "student/loss.csv": "3dcefca44cecbc49b7a058975b3caaf304fb984959020e740463b532a3034754",
        "student/mar.ckpt": "f66039c73ac2cddd5627f17b8c59b4c6bddb18aee1e8413fdf5ff6f220f8d824",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "c81e8e0c6629e25b306b5ba8a6ca08bfc64952079dfcbf03eb2eedf0a4f6a38c",
    },
}


def _run_all(root) -> dict[str, str]:
    """Runs every golden verb under `root`; returns artifact -> sha256."""
    def run(argv):
        assert main(argv) == 0, argv

    for kind in KINDS:
        run(["train-head", "--method", kind, "--seed", "3",
             "--out", str(root / kind)] + TINY_HEAD)
    run(["sample", "--run", str(root / "diffusion"), "--steps", "4", "--n", "32",
         "--seed", "5", "--out", str(root / "samples.csv")])
    run(["train-mar", "--role", "teacher", "--seed", "2",
         "--out", str(root / "teacher")] + TINY_MAR)
    run(["train-mar", "--role", "student", "--seed", "4",
         "--teacher", str(root / "teacher" / "mar.ckpt"),
         "--set", "mar_train.lambda=0.5", "--out", str(root / "student")] + TINY_MAR)
    run(["decode", "--ckpt", str(root / "student" / "mar.ckpt"), "--class", "1",
         "--iterations", "4", "--cfg", "2.0", "--n", "3", "--seed", "9",
         "--out", str(root / "decode_energy")])
    run(["decode", "--ckpt", str(root / "teacher" / "mar.ckpt"), "--class", "2",
         "--iterations", "4", "--cfg", "2.0", "--n", "3", "--seed", "9",
         "--head-steps", "5", "--out", str(root / "decode_diffusion")])
    run(["sample", "--run", str(root / "energy"), "--n", "32", "--seed", "6",
         "--out", str(root / "reference.csv")])
    run(["eval", "--generated", str(root / "samples.csv"),
         "--reference", str(root / "reference.csv"), "--method", "diffusion",
         "--steps", "4", "--seed", "5", "--out", str(root / "eval.csv")])
    run(["compare-swissroll", "--out", str(root / "compare"),
         "--set", "compare.seeds=[1]", "--set", "compare.sample_n=32",
         "--set", "compare.multi_steps=[2]",
         "--set", "compare.steps_by_method=" + json.dumps(dict.fromkeys(KINDS, 6))]
        + TINY_HEAD)

    artifacts = [f"{kind}/{name}" for kind in KINDS for name in ("head.ckpt", "loss.csv")]
    artifacts += ["samples.csv"]
    artifacts += [f"{role}/{name}" for role in ("teacher", "student")
                  for name in ("mar.ckpt", "loss.csv")]
    artifacts += [f"{run_dir}/{name}" for run_dir in ("decode_energy", "decode_diffusion")
                  for name in ("sequences.csv", "decode_stats.json")]
    artifacts += ["eval.csv", "compare/metrics.csv"]
    return {a: hashlib.sha256((root / a).read_bytes()).hexdigest() for a in artifacts}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


ARTIFACTS = sorted(GOLDEN["AVX-512", "SkylakeX"])


def _table() -> dict[str, str]:
    assert PAIR in GOLDEN, (f"no golden table for numpy dispatch path {PAIR[0]} "
                            f"with OpenBLAS core {PAIR[1]}")
    return GOLDEN[PAIR]


def test_golden_set_is_complete(digests):
    assert all(sorted(table) == ARTIFACTS for table in GOLDEN.values())
    assert sorted(digests) == sorted(_table())


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_golden_digest(digests, artifact):
    assert digests[artifact] == _table()[artifact], (
        f"digest on numpy dispatch path {PAIR[0]} with OpenBLAS core {PAIR[1]} "
        f"differs from that pair's table")


if __name__ == "__main__":
    # prints this (dispatch path, OpenBLAS core) pair's table, ready to paste
    # into GOLDEN:
    #   PYTHONPATH=src python tests/test_golden.py
    import contextlib
    import pathlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        current = _run_all(pathlib.Path(tmp))
    print(f"# numpy dispatch path {PAIR[0]}, OpenBLAS core {PAIR[1]}")
    print(f'    ("{PAIR[0]}", "{PAIR[1]}"): {{')
    for artifact in sorted(current):
        print(f'        "{artifact}": "{current[artifact]}",')
    print("    },")
