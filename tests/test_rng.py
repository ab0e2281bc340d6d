"""Pinned-RNG behavior: reference vectors, bounds, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from communifind.rng import SeededRng, derive_seed, geometric_gaps, stacked_uniforms, _GOLDEN, _MASK64, _mix64


def test_splitmix64_reference_vector():
    # published splitmix64 outputs for seed 0; validates the mixer constants
    state = 0
    outs = []
    for _ in range(3):
        state = (state + _GOLDEN) & _MASK64
        outs.append(_mix64(state))
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_regression_pins():
    # published splitmix64 reference vectors (Rosetta Code,
    # "Pseudo-random numbers/Splitmix64"); guards stream stability
    r = SeededRng(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    r = SeededRng(987654321)
    counts = np.bincount([math.floor(5 * r.random()) for _ in range(100_000)], minlength=5)
    assert counts.tolist() == [20027, 19892, 20073, 19978, 20030]
    assert derive_seed(7, 1, 3) == 9272713977647161869


@pytest.mark.parametrize("seed", [0, 987654321, 2**64 - 1])
@pytest.mark.parametrize("lead", [0, 1, 7])
def test_block_draws_equal_scalar_continuation(seed, lead):
    a, b = SeededRng(seed), SeededRng(seed)
    assert [a.next_u64() for _ in range(lead)] == b.u64s(lead).tolist()
    block = a.u64s(33)
    assert block.dtype == np.uint64
    assert block.tolist() == [b.next_u64() for _ in range(33)]
    assert a.uniforms(9).tolist() == [b.random() for _ in range(9)]
    assert a.next_u64() == int(b.u64s(1)[0])  # and back to scalar draws
    assert a.u64s(0).size == 0


def test_stacked_uniforms_rows_equal_per_seed_draws():
    # the last seed's counters wrap past 2**64 from the first draw on
    seeds = [0, 987654321, 2**63 + 5, 2**64 - 3]
    rows = stacked_uniforms(seeds, 41)
    assert rows.shape == (4, 41) and rows.dtype == np.float64
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == SeededRng(seed).uniforms(41).tobytes()
    assert stacked_uniforms(seeds, 0).shape == (4, 0)
    with pytest.raises(ValueError):
        stacked_uniforms(seeds, -1)


def test_geometric_skips_are_the_shared_gap_expression():
    p = 2.0 / 1023
    u = stacked_uniforms([5, 6], 300)
    gaps = geometric_gaps(u, p)
    assert gaps.dtype == np.int64 and gaps.shape == (2, 300)
    assert gaps[1].tobytes() == geometric_gaps(SeededRng(6).uniforms(300), p).tobytes()
    assert gaps.tobytes() == geometric_gaps(u.ravel(), p).tobytes()  # elementwise, whatever the shape
    # a tiny p caps the counts instead of overflowing int64
    assert geometric_gaps(np.array([0.5, 1.0 - 2.0**-53]), 1e-300).tolist() == [2**62, 2**62]
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            geometric_gaps(u, bad)


def test_same_seed_same_stream():
    a, b = SeededRng(99), SeededRng(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a, b = SeededRng(1), SeededRng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_random_unit_interval():
    r = SeededRng(7)
    xs = [r.random() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < float(np.mean(xs)) < 0.6


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**64 - 1))
def test_randrange_in_bounds(bound, seed):
    r = SeededRng(seed)
    assert all(0 <= r.randrange(bound) < bound for _ in range(20))


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SeededRng(0).randrange(0)


def test_randrange_covers_small_range():
    r = SeededRng(3)
    seen = {r.randrange(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_sample_distinct_and_in_range(k, seed):
    n = 60
    out = SeededRng(seed).sample(n, k)
    assert len(out) == k == len(set(out))
    assert all(0 <= x < n for x in out)


def test_sample_full_range_is_permutation():
    out = SeededRng(11).sample(10, 10)
    assert sorted(out) == list(range(10))


def test_sample_rejects_oversized():
    with pytest.raises(ValueError):
        SeededRng(0).sample(5, 6)


def test_geometric_skip_matches_mean():
    # mean of the geometric(p) failure count is (1 - p) / p
    r = SeededRng(42)
    p = 0.2
    draws = geometric_gaps(r.uniforms(20000), p)
    assert draws.dtype == np.int64 and draws.size == 20000
    assert draws.min() >= 0
    assert abs(float(np.mean(draws)) - (1 - p) / p) < 0.1


def test_geometric_skips_reject_degenerate_p():
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            geometric_gaps(SeededRng(0).uniforms(4), p)


def test_derive_seed_changes_with_each_salt():
    base = derive_seed(5, 0, 0)
    assert derive_seed(5, 0, 1) != base
    assert derive_seed(5, 1, 0) != base
    assert derive_seed(6, 0, 0) != base
    assert derive_seed(5, 0, 0) == base
