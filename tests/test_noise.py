import numpy as np
import pytest
from scipy import stats

from ncelm.errors import ConfigError
from ncelm.noise import (
    from_counts,
    reconstructed_probs,
    sample,
    uniform,
)


def test_uniform_probs_and_logs():
    dist = uniform(8)
    assert np.allclose(dist.probs, 0.125)
    assert np.allclose(dist.log_probs, np.log(0.125))
    assert dist.has_full_support
    with pytest.raises(ConfigError):
        uniform(0)


def test_from_counts_smoothing_gives_full_support():
    dist = from_counts([0, 10, 0, 30])
    assert dist.has_full_support
    assert np.isclose(dist.probs.sum(), 1.0)
    assert np.allclose(dist.probs, np.array([1, 11, 1, 31]) / 44)

    raw = from_counts([0, 10, 0, 30], smoothing=0.0)
    assert not raw.has_full_support
    assert raw.probs[0] == 0.0


def test_from_counts_validates_inputs():
    with pytest.raises(ConfigError):
        from_counts([1, -2])
    with pytest.raises(ConfigError):
        from_counts([0, 0], smoothing=0.0)
    with pytest.raises(ConfigError):
        from_counts([1, 2], smoothing=-0.5)


@pytest.mark.parametrize("v", [1, 2, 7, 1000, 100_000])
def test_alias_table_reconstructs_input_exactly(v):
    rng = np.random.default_rng(v)
    probs = rng.dirichlet(np.full(v, 0.3)) if v > 1 else np.ones(1)
    dist = from_counts(probs, smoothing=0.0)
    assert np.max(np.abs(reconstructed_probs(dist) - dist.probs)) <= 1e-12


def test_sample_matches_distribution_chi_square():
    rng = np.random.default_rng(42)
    counts = rng.integers(1, 500, size=50)
    dist = from_counts(counts)
    n = 200_000
    draws = sample(dist, np.random.default_rng(7), size=n)
    observed = np.bincount(draws, minlength=50)
    expected = dist.probs * n
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 1e-3


def test_sample_is_deterministic_and_typed():
    dist = from_counts([3, 1, 4, 1, 5])
    a = sample(dist, np.random.default_rng(0), size=100)
    b = sample(dist, np.random.default_rng(0), size=100)
    assert np.array_equal(a, b)
    assert a.dtype == np.int64

    shaped = sample(dist, np.random.default_rng(1), size=(4, 6))
    assert shaped.shape == (4, 6)


def test_sample_never_leaves_support():
    dist = from_counts([0, 0, 1, 0, 3], smoothing=0.0)
    draws = sample(dist, np.random.default_rng(3), size=20_000)
    assert set(np.unique(draws)) <= {2, 4}
