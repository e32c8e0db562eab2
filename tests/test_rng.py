"""Counter-based rng: bit-identical streams, stream independence,
uniform permutations, and the branch-addressable dropout masks."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntrr.errors import ContractError
from ntrr.rng import DropoutStreams, DualDropoutStreams, Rng, fold_stream_id


def test_same_key_same_sequence():
    a = Rng(123, 7).normal((4, 5))
    b = Rng(123, 7).normal((4, 5))
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = Rng(123, 7).normal((64,))
    b = Rng(123, 8).normal((64,))
    assert not np.array_equal(a, b)


def test_for_stream_tags_are_order_sensitive():
    a = Rng.for_stream(5, "dropout", 1, 2).uniform((16,))
    b = Rng.for_stream(5, "dropout", 2, 1).uniform((16,))
    assert not np.array_equal(a, b)


def test_fold_stream_id_stable():
    assert fold_stream_id("dropout", 3, 1) == fold_stream_id("dropout", 3, 1)
    assert fold_stream_id("dropout", 3, 1) != fold_stream_id("dropout", 3, 2)
    assert 0 <= fold_stream_id("x") < 2 ** 64


def test_derive_is_deterministic_and_distinct():
    base = Rng(9, 0)
    assert np.array_equal(base.derive(4).uniform((8,)), Rng(9, 0).derive(4).uniform((8,)))
    assert not np.array_equal(base.derive(4).uniform((8,)), base.derive(5).uniform((8,)))


def test_randbelow_range_and_determinism():
    rng = Rng(1, 1)
    draws = [rng.randbelow(7) for _ in range(500)]
    assert all(0 <= d < 7 for d in draws)
    assert set(draws) == set(range(7))
    rng2 = Rng(1, 1)
    assert draws == [rng2.randbelow(7) for _ in range(500)]


def test_permutation_is_bijection():
    for n in (1, 2, 5, 17):
        p = Rng(3, n).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_permutation_near_uniform():
    # all 3! = 6 orders of n=3 should appear with roughly equal frequency
    counts = collections.Counter()
    rng = Rng(11, 0)
    trials = 6000
    for i in range(trials):
        counts[tuple(rng.derive(i).permutation(3))] += 1
    assert len(counts) == 6
    expected = trials / 6
    for c in counts.values():
        # 5 sigma of a binomial(trials, 1/6)
        assert abs(c - expected) < 5 * np.sqrt(trials * (1 / 6) * (5 / 6))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_permutation_property(seed, n):
    p = Rng(seed, 13).permutation(n)
    assert sorted(p.tolist()) == list(range(n))


def test_uniform_bounds():
    u = Rng(0, 0).uniform((1000,))
    assert np.all(u >= 0.0) and np.all(u < 1.0)


# ------------------------------------------------------------ dropout streams


def test_dropout_streams_reproducible_site_sequence():
    a = DropoutStreams(42, 3, 1)
    b = DropoutStreams(42, 3, 1)
    m1 = [a.mask((4, 6), 0.3) for _ in range(3)]
    m2 = [b.mask((4, 6), 0.3) for _ in range(3)]
    for x, y in zip(m1, m2):
        assert np.array_equal(x, y)
    # site counter advances: consecutive masks differ
    assert not np.array_equal(m1[0], m1[1])


def test_dropout_streams_branches_differ():
    m1 = DropoutStreams(42, 3, 1).mask((8, 8), 0.4)
    m2 = DropoutStreams(42, 3, 2).mask((8, 8), 0.4)
    assert not np.array_equal(m1, m2)


def test_dual_streams_concatenate_branch_masks():
    shape = (6, 5, 4)
    dual = DualDropoutStreams(7, 9)
    full = dual.mask(shape, 0.25)
    half1 = DropoutStreams(7, 9, 1).mask((3, 5, 4), 0.25)
    half2 = DropoutStreams(7, 9, 2).mask((3, 5, 4), 0.25)
    assert np.array_equal(full[:3], half1)
    assert np.array_equal(full[3:], half2)


def test_dual_streams_reject_odd_batch():
    with pytest.raises(ContractError):
        DualDropoutStreams(7, 9).mask((5, 4), 0.25)


def test_gradcheck_replayed_masks_match_fresh_streams():
    from ntrr.gradcheck import _ReplayedMasks
    shapes = [(2, 5, 16), (2, 2, 5, 5), (2, 5, 16)]
    replay = _ReplayedMasks(3)
    for _ in range(3):
        replay.restart()
        fresh = DualDropoutStreams(3, 7)
        for shape in shapes:
            got = replay.mask(shape, 0.1)
            assert np.array_equal(got, fresh.mask(shape, 0.1))
            assert not got.flags.writeable
    replay.restart()
    with pytest.raises(ContractError):
        replay.mask((2, 5, 8), 0.1)


def test_mask_rate_close_to_nominal():
    m = DropoutStreams(5, 1, 1).mask((200, 200), 0.3)
    keep_rate = m.mean()
    assert abs(keep_rate - 0.7) < 0.01
