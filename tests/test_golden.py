"""Golden digests: byte-for-byte artifacts of fixed tiny CLI runs.

Every artifact below comes from `escore.cli.main` with only sizes and step
budgets shrunk through `--set`. The sha256 values were recorded once and are
never edited: a change to the graph engine, the layers, the metrics or the
runners that alters a single bit of a checkpoint, loss log, sample file,
decode output or metrics CSV fails here. A change that is meant to alter
numerics must say so and why.

``GOLDEN`` holds one table per numpy dispatch path. numpy 2.4.6 rounds
float64 ``exp``, ``log`` and ``power`` differently in its AVX-512
(``X86_V4``) loops and its AVX2 (``X86_V3``) loops (``tanh``, ``sin``,
``cos``, ``sqrt``, matmul and the reductions agree), so seven digests differ
between the tables: both MAR checkpoints, the student's loss log, the
mean-flow head, the energy decode's sequences and both metrics CSVs (the
last bits of the eval's MMD and of the energy head's MMD in the compare
CSV). The AVX2 table was
recorded on an AVX-512 host with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, which is how
an AVX-512 host checks it. A path with no table fails every digest test
with a message naming the path; it is never skipped.
"""
import hashlib
import json

import numpy as np
import pytest

from escore.cli import main


def _dispatch_path() -> str:
    """The numpy float64 loops this process runs: AVX-512, AVX2 or neither."""
    try:
        features = np._core._multiarray_umath.__cpu_features__
    except AttributeError:
        return "unknown (numpy reports no CPU features)"
    if features.get("X86_V4"):
        return "AVX-512"
    return "AVX2" if features.get("X86_V3") else "baseline (no X86_V3 or X86_V4)"


PATH = _dispatch_path()

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
    "AVX-512": {
        "compare/metrics.csv": "7756e998e8320873161047ad99f642c495c1bd4b481af7e0a361a1af1407e0f1",
        "decode_diffusion/decode_stats.json": "7be0db79d42953832875a55e5774247d69d530f5329cefb25fdcdaa0beefcabd",
        "decode_diffusion/sequences.csv": "de243d6a3a61c20075d32ef92b49534c6a8fac1af7bcc48f19500e738337232e",
        "decode_energy/decode_stats.json": "cc203d6fcaa85c94a0d7d8934b01bf19ad44736ede55ac3c36404a0af79840a3",
        "decode_energy/sequences.csv": "71d5d112b9c191730daf04e1d950624711c98f929d5f81f8a7e150c080ed4da4",
        "diffusion/head.ckpt": "729cff662fc41d8cda41dab036d3c3b24c473686a8d9d53f407021a9f86c4728",
        "diffusion/loss.csv": "9b1db0ef19ee137d1cbb6567aa1ab61430ba861491b541157e78fced3a6911f3",
        "energy/head.ckpt": "183bb35cafd1d74aa0fa0cb619512517491e944c557d6b5ecd616423cca0f981",
        "energy/loss.csv": "66e3c2a2b96b22f8e4baa2501b9ead03ac8f797b66f7df738bd297ff79bd3935",
        "eval.csv": "657907e360a42b1fd29dee8489b04fb0e08362f08a42b6b478421f343cf99563",
        "flow/head.ckpt": "8af55da5c02038efb14ecacd225c34dedb3981d5e2f95ef8bf78fa29114c3873",
        "flow/loss.csv": "745cf89960e27b70b14395f5d2df0633f535ba908eb41409a5258ae044d78ba6",
        "meanflow/head.ckpt": "8cd39cf41b0b02cc8c4bba90aa0289c603e67ba8ad159771243ab2fc562a91b4",
        "meanflow/loss.csv": "e1c4e3f51217e8748dbad61f5dce426c7e5b4ea9da68d9089f826b63f840f1a8",
        "samples.csv": "965c26e44f07a87dad22a0aec6cf5136ad479e70a90e337a83517a23f9cbcb7a",
        "shortcut/head.ckpt": "fcb1c42de4ca98689a93cb07453665b1fc61fddbca8219c6b976e50673ca5cbd",
        "shortcut/loss.csv": "31c79e1860ab9b3096ac3486df3e1902fd27fb9e8b1266444b895af92f52468b",
        "student/loss.csv": "e66e5bc44b8ad9ebfb8a84f2dc40302c1390a2e20a5ca0051254988423e3de3b",
        "student/mar.ckpt": "aefaafe06d3e4a6f273bfac586db83793cdc64356fc6988e8b76d8f2ad8afb32",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "27cecccf4967e2774e4b1dd5c920c76ff5ac4c159c4f98ed0225c379eb4e2fd7",
    },
    "AVX2": {
        "compare/metrics.csv": "78f00db5e50ab9fddf2ad082ebe1ab11d0c7fb62f925e30173fd569ff6d174a7",
        "decode_diffusion/decode_stats.json": "7be0db79d42953832875a55e5774247d69d530f5329cefb25fdcdaa0beefcabd",
        "decode_diffusion/sequences.csv": "de243d6a3a61c20075d32ef92b49534c6a8fac1af7bcc48f19500e738337232e",
        "decode_energy/decode_stats.json": "cc203d6fcaa85c94a0d7d8934b01bf19ad44736ede55ac3c36404a0af79840a3",
        "decode_energy/sequences.csv": "606e36466d1848e06b7bec1012d18876d001b57b7f7e24653e35abd72a7220cf",
        "diffusion/head.ckpt": "729cff662fc41d8cda41dab036d3c3b24c473686a8d9d53f407021a9f86c4728",
        "diffusion/loss.csv": "9b1db0ef19ee137d1cbb6567aa1ab61430ba861491b541157e78fced3a6911f3",
        "energy/head.ckpt": "183bb35cafd1d74aa0fa0cb619512517491e944c557d6b5ecd616423cca0f981",
        "energy/loss.csv": "66e3c2a2b96b22f8e4baa2501b9ead03ac8f797b66f7df738bd297ff79bd3935",
        "eval.csv": "2a4b1694c84a933c2dc4498fb3a85044ed12a08dd91e8d499b0c56ea56cc942d",
        "flow/head.ckpt": "8af55da5c02038efb14ecacd225c34dedb3981d5e2f95ef8bf78fa29114c3873",
        "flow/loss.csv": "745cf89960e27b70b14395f5d2df0633f535ba908eb41409a5258ae044d78ba6",
        "meanflow/head.ckpt": "d3763ad7f4d4f284f8cdb1ac21d8431d49d0a3995251382cfb1082309b43b1b2",
        "meanflow/loss.csv": "e1c4e3f51217e8748dbad61f5dce426c7e5b4ea9da68d9089f826b63f840f1a8",
        "samples.csv": "965c26e44f07a87dad22a0aec6cf5136ad479e70a90e337a83517a23f9cbcb7a",
        "shortcut/head.ckpt": "fcb1c42de4ca98689a93cb07453665b1fc61fddbca8219c6b976e50673ca5cbd",
        "shortcut/loss.csv": "31c79e1860ab9b3096ac3486df3e1902fd27fb9e8b1266444b895af92f52468b",
        "student/loss.csv": "ba8a182d8c14f2a1beb0474149ddff4185b2f0e84e6d12a12071687f79c200d8",
        "student/mar.ckpt": "64dc8ecf9e21ac1dbb0ba478654e79fa16c4dcc71a722b5df3828f36230c0284",
        "teacher/loss.csv": "404a4e7b4e976583941b18d0ed6d64d4f20ea6108ef993956b57199cbdba13b4",
        "teacher/mar.ckpt": "534000e0f95461fca67863dce9ca5fc0a61685280a4f6520ec9c721fe263030e",
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


ARTIFACTS = sorted(GOLDEN["AVX-512"])


def _table() -> dict[str, str]:
    assert PATH in GOLDEN, f"no golden table for numpy dispatch path {PATH}"
    return GOLDEN[PATH]


def test_golden_set_is_complete(digests):
    assert all(sorted(table) == ARTIFACTS for table in GOLDEN.values())
    assert sorted(digests) == sorted(_table())


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_golden_digest(digests, artifact):
    assert digests[artifact] == _table()[artifact], (
        f"digest on numpy dispatch path {PATH} differs from that path's table")
