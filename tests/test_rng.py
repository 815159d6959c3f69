import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rng_reference as R
from escore.rng import Stream


def test_same_seed_reproduces():
    a = Stream.from_seed(7, "noise").normal((100,))
    b = Stream.from_seed(7, "noise").normal((100,))
    assert np.array_equal(a, b)


def test_distinct_labels_differ():
    a = Stream.from_seed(7, "noise1").normal((64,))
    b = Stream.from_seed(7, "noise2").normal((64,))
    assert not np.array_equal(a, b)


def test_counter_advances():
    s = Stream.from_seed(3, "u")
    first = s.normal((16,))
    second = s.normal((16,))
    assert not np.array_equal(first, second)


def test_child_streams_do_not_disturb_parent():
    s = Stream.from_seed(11, "root")
    _ = s.child("a").normal((8,))
    got = s.normal((8,))
    fresh = Stream.from_seed(11, "root").normal((8,))
    assert np.array_equal(got, fresh)


def test_normal_moments():
    z = Stream.from_seed(123, "gauss").normal((200_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03


def test_uniform_range_and_mean():
    u = Stream.from_seed(5, "u").uniform((100_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_integers_bounds_and_coverage():
    k = Stream.from_seed(9, "ints").integers(7, (10_000,))
    assert k.min() == 0 and k.max() == 6
    assert len(np.unique(k)) == 7


def test_permutation_is_permutation():
    for n in (1, 2, 5, 33):
        p = Stream.from_seed(n, "perm").permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_sample_without_replacement():
    s = Stream.from_seed(4, "mask")
    idx = s.sample_without_replacement(16, 12)
    assert len(idx) == 12 and len(set(idx.tolist())) == 12
    assert np.all(idx[:-1] < idx[1:])
    assert idx.min() >= 0 and idx.max() < 16


@settings(max_examples=10, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=12), st.integers(1, 700),
       st.integers(1, 33), st.data())
def test_one_key_and_batched_draws_match_reference(seed, label, n_keys, n, data):
    """0-d, 1-d and 2-d key arrays give the pre-change one-key bits, draw
    after draw."""
    k = data.draw(st.integers(0, n), label="k")
    ref_root = R.Stream.from_seed(seed, label)
    root = Stream.from_seed(seed, label)
    assert root.key.shape == () and root.key == ref_root.key
    labels = [f"{label}/{r}" for r in range(n_keys)]
    refs = [ref_root.child(name) for name in labels]
    ones = [root.child(name) for name in labels]
    row = root.child(labels)
    # the second row runs the labels backwards
    grid = root.child(np.array([labels, labels[::-1]]))
    assert row.key.tolist() == [int(s.key) for s in refs]
    assert [s.key for s in ones] == [s.key for s in refs]
    assert grid.key.shape == (2, n_keys)

    # the same sequence of draws on every stream exercises the counters too
    draws = [("normal", (n,)), ("uniform", (n,)), ("permutation", (n,)),
             ("sample_without_replacement", (n, k)), ("normal", ((2, n),)),
             ("normal", ()), ("uniform", ()), ("integers", (n, ())),
             ("integers", (n + 3, (2, n)))]
    for name, args in draws:
        want = np.stack([getattr(s, name)(*args) for s in refs])
        assert np.stack([getattr(s, name)(*args) for s in ones]).tobytes() == want.tobytes()
        assert getattr(row, name)(*args).tobytes() == want.tobytes()
        assert getattr(grid, name)(*args).tobytes() == np.stack([want, want[::-1]]).tobytes()
    assert row.counter == grid.counter == refs[0].counter == ones[0].counter


def test_one_key_scalar_draws_are_python_numbers():
    s = Stream.from_seed(8, "scalar")
    ref = R.Stream.from_seed(8, "scalar")
    for name, args, kind in [("uniform", (), float), ("normal", (), float),
                             ("integers", (9,), int)]:
        got = getattr(s, name)(*args)
        assert type(got) is kind and got == getattr(ref, name)(*args)
    # a batched stream's scalar draw is one value per key
    assert s.child(["a", "b"]).normal().shape == (2,)


def test_batched_children_broadcast_keys_against_labels():
    root = Stream.from_seed(3, "decode")
    seqs = root.child([f"seq/{j}" for j in range(4)])
    grid = Stream(seqs.key[:, None]).child(["a", "b", "c"])
    assert grid.key.shape == (4, 3)
    noise = grid.normal((2,))
    assert noise.shape == (4, 3, 2)
    for j in range(4):
        for i, name in enumerate("abc"):
            want = root.child(f"seq/{j}").child(name).normal((2,))
            assert noise[j, i].tobytes() == want.tobytes()
    # a str label and an array of str take different paths to the same key
    assert root.child(np.array("x")).key.shape == ()
    assert root.child(np.array("x")).key == root.child(["x"]).key[0] == root.child("x").key
    assert root.child(["x\x00"]).key[0] == root.child("x\x00").key != root.child("x").key
