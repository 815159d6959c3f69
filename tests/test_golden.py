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
recorded after that, once. Running this file as a script prints the current
pair's table.
"""
import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from escore.cli import main

pytestmark = pytest.mark.dispatch_path   # the CI reruns every test here on the AVX2 path


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
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
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
        "diffusion/head.ckpt": "64c98c03271b95b2846ba12f5bf05ed304c49aa0c292bdcd46b46ed7f892da54",
        "diffusion/loss.csv": "9895388f3bb74646b7818b09f95cb8ec3603bd81522adcebf3d80f9786dded7a",
        "energy/head.ckpt": "10505758c8c86ad511167307a562548e904a8f61ca3de968d1f4081eb362a647",
        "energy/loss.csv": "cdbb2e4c4895e8d065b2b37231b9ffc0b3dd31a86445bab822e52448660b5c4a",
        "eval.csv": "657907e360a42b1fd29dee8489b04fb0e08362f08a42b6b478421f343cf99563",
        "flow/head.ckpt": "859bf55162c8deef7f519204841a2d3ec03a051e795b3ae5c881f9c9e63e17e1",
        "flow/loss.csv": "079aadb69a040a891aa93ef356f61a1e923a9097ba8428143d0f51e5d4528498",
        "meanflow/head.ckpt": "34d6be7669c3ef0aacb458627f1aac5259a9af6d2b04c8b6ff93bec37617d3dd",
        "meanflow/loss.csv": "0ac0f0467fd4bbc0a1f3dade73da9e89d14a16591a87c93c44b8ce5261481f36",
        "samples.csv": "965c26e44f07a87dad22a0aec6cf5136ad479e70a90e337a83517a23f9cbcb7a",
        "shortcut/head.ckpt": "4129e47042740c9ae3b5e38d57a6f37923588cfc8ec689ca0b0cf17f93cce712",
        "shortcut/loss.csv": "31fa1224459641d88d6f2cbfb9b3bdfbedcabcffe629c600b3c23040da8ee4f8",
        "student/loss.csv": "e66e5bc44b8ad9ebfb8a84f2dc40302c1390a2e20a5ca0051254988423e3de3b",
        "student/mar.ckpt": "95b1320938c0cfaafc3693297c6c2beace060dc8f5fc5c4b560783413e7e6e6d",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "170f4f088244eeff2211027d438cb98173c03dc22db4109cb7b3813f3d51b617",
    },
    ("AVX2", "SkylakeX"): {
        "compare/metrics.csv": "78f00db5e50ab9fddf2ad082ebe1ab11d0c7fb62f925e30173fd569ff6d174a7",
        "decode_diffusion/decode_stats.json": "c5421a35b22b4e2f755a47cc6d8d1782bbdf2494dc1298295267a0b223516796",
        "decode_diffusion/sequences.csv": "de243d6a3a61c20075d32ef92b49534c6a8fac1af7bcc48f19500e738337232e",
        "decode_energy/decode_stats.json": "34d82d2f6b85919dee6785f81657a871fe8380312682856c7233c8d5b8733de8",
        "decode_energy/sequences.csv": "606e36466d1848e06b7bec1012d18876d001b57b7f7e24653e35abd72a7220cf",
        "diffusion/head.ckpt": "64c98c03271b95b2846ba12f5bf05ed304c49aa0c292bdcd46b46ed7f892da54",
        "diffusion/loss.csv": "9895388f3bb74646b7818b09f95cb8ec3603bd81522adcebf3d80f9786dded7a",
        "energy/head.ckpt": "10505758c8c86ad511167307a562548e904a8f61ca3de968d1f4081eb362a647",
        "energy/loss.csv": "cdbb2e4c4895e8d065b2b37231b9ffc0b3dd31a86445bab822e52448660b5c4a",
        "eval.csv": "2a4b1694c84a933c2dc4498fb3a85044ed12a08dd91e8d499b0c56ea56cc942d",
        "flow/head.ckpt": "859bf55162c8deef7f519204841a2d3ec03a051e795b3ae5c881f9c9e63e17e1",
        "flow/loss.csv": "079aadb69a040a891aa93ef356f61a1e923a9097ba8428143d0f51e5d4528498",
        "meanflow/head.ckpt": "c99828a9245978214db21068ab668b316e702a7f8784f44f7cb96a343bfc9d27",
        "meanflow/loss.csv": "0ac0f0467fd4bbc0a1f3dade73da9e89d14a16591a87c93c44b8ce5261481f36",
        "samples.csv": "965c26e44f07a87dad22a0aec6cf5136ad479e70a90e337a83517a23f9cbcb7a",
        "shortcut/head.ckpt": "4129e47042740c9ae3b5e38d57a6f37923588cfc8ec689ca0b0cf17f93cce712",
        "shortcut/loss.csv": "31fa1224459641d88d6f2cbfb9b3bdfbedcabcffe629c600b3c23040da8ee4f8",
        "student/loss.csv": "ba8a182d8c14f2a1beb0474149ddff4185b2f0e84e6d12a12071687f79c200d8",
        "student/mar.ckpt": "f809b119bd2db9dd4d47e2c3dfc249c8d345edc031669d9a8f74f113d509e6f3",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "6dc6fe05fc4022f3790180d03c7ed8c44fdb6e0d94780daaa6e3bbf99ce26b10",
    },
    ("AVX2", "Haswell"): {
        "compare/metrics.csv": "78f00db5e50ab9fddf2ad082ebe1ab11d0c7fb62f925e30173fd569ff6d174a7",
        "decode_diffusion/decode_stats.json": "c5421a35b22b4e2f755a47cc6d8d1782bbdf2494dc1298295267a0b223516796",
        "decode_diffusion/sequences.csv": "52c291c5c693cd2805866f9bbadb5783d63dbcc7434cae619cf8903e76983dcd",
        "decode_energy/decode_stats.json": "34d82d2f6b85919dee6785f81657a871fe8380312682856c7233c8d5b8733de8",
        "decode_energy/sequences.csv": "50b4b11b549d4c9a3993ad36dca0bcc175e5e1fa9429fd22927e8ac2986d5bc6",
        "diffusion/head.ckpt": "bbc13c0c29f95980195dfc65c19e3feb7781fed1d75eb620d4cb96a586f2de4d",
        "diffusion/loss.csv": "9895388f3bb74646b7818b09f95cb8ec3603bd81522adcebf3d80f9786dded7a",
        "energy/head.ckpt": "3c02ad8440425396007bb59c5731f27bdd1ba66dfdf68df0f3e61d6298fd50a3",
        "energy/loss.csv": "fd38cbff6da7385ff9ffe173bc1d335077c1d951f10f6b77d5c84907de01fe93",
        "eval.csv": "657907e360a42b1fd29dee8489b04fb0e08362f08a42b6b478421f343cf99563",
        "flow/head.ckpt": "5d5389e5718fc4c863144a44409559fd8d3e4bba93bba4ed6b588b4e0577c8c4",
        "flow/loss.csv": "079aadb69a040a891aa93ef356f61a1e923a9097ba8428143d0f51e5d4528498",
        "meanflow/head.ckpt": "621dc9438bafa28e3645fa33f5679a22159c4ea5504f25a616bbc05b9c207577",
        "meanflow/loss.csv": "0ac0f0467fd4bbc0a1f3dade73da9e89d14a16591a87c93c44b8ce5261481f36",
        "samples.csv": "56468baceef253ce8e5e4e8f46debbd4d076f277252494b4273d364573076081",
        "shortcut/head.ckpt": "e77ae6aed932064120358ffa021ffc015d7b85def6e2238549ff85a6bd9aae15",
        "shortcut/loss.csv": "31fa1224459641d88d6f2cbfb9b3bdfbedcabcffe629c600b3c23040da8ee4f8",
        "student/loss.csv": "3dcefca44cecbc49b7a058975b3caaf304fb984959020e740463b532a3034754",
        "student/mar.ckpt": "ce8ade790c6a31ea26bc2a35bf708292cfd8756466353a89aac55f1d41bf2fd8",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "36bb5f716ad718c92bd21b07b925d33018f9098990df9413ad5c52aef3b36704",
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
