"""Tests of the benchmark's oracles against brute force.

Run: python3 -m pytest qbcbench/test_oracles.py
"""

import itertools
import math

import numpy as np
import pytest

import oracles

HAMMING_7_4 = np.array(
    [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)
EXTENDED_HAMMING = np.hstack([HAMMING_7_4, (HAMMING_7_4.sum(axis=1) % 2)[:, None]]).astype(
    np.uint8
)


def codewords(generator):
    k = generator.shape[0]
    msgs = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    return ((msgs @ generator) % 2).astype(np.uint8)


def brute_force_posterior(generator, r, m):
    """Mean P(true parity) over every codeword and every m-subset, by
    counting the codewords consistent with the known positions."""
    words = codewords(generator)
    parities = (words @ r) % 2
    total = 0.0
    count = 0
    for subset in itertools.combinations(range(generator.shape[1]), m):
        cols = list(subset)
        for word, bit in zip(words, parities):
            consistent = (words[:, cols] == word[cols]).all(axis=1)
            total += (parities[consistent] == bit).mean()
            count += 1
    return total / count


@pytest.mark.parametrize("R", [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
def test_detection_probabilities_match_closed_forms(R):
    exact = oracles.detection_probabilities(R)
    for name, closed in oracles.closed_form_detection(R).items():
        assert exact[name] == pytest.approx((closed, closed), abs=1e-12)


@pytest.mark.parametrize("R", [0.2, 0.5, 0.7])
def test_honest_photon_always_fires_its_detector(R):
    for bit in (0, 1):
        assert oracles.expected_click_probability(oracles.encode(bit, R), bit, R) == (
            pytest.approx(1.0, abs=1e-12)
        )


def test_splitter_is_unitary():
    s = oracles.splitter(0.3)
    assert np.allclose(s.conj().T @ s, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("f,eps", [(0.25, 0.3), (0.5, 0.5), (0.9, 0.1), (0.0, 0.4)])
def test_intercept_posterior_is_bayes_rule(f, eps):
    silent_intercepted = f * (1.0 - eps)
    silent = silent_intercepted + (1.0 - f)
    assert oracles.intercept_posterior(f, eps) == pytest.approx(silent_intercepted / silent)


@pytest.mark.parametrize("flips", [0, 1, 2, 4])
def test_escape_probability_by_enumeration(flips):
    p = 0.3
    escape = sum(
        math.prod(p if hit else 1.0 - p for hit in pattern)
        for pattern in itertools.product((0, 1), repeat=flips)
        if not any(pattern)
    )
    assert oracles.escape_probability(p, flips) == pytest.approx(escape)


@pytest.mark.parametrize("positions,q,eps,n,d", [(8, 0.15, 0.3, 8, 4), (4, 0.3, 0.3, 8, 4), (8, 0.5, 0.5, 8, 4), (6, 0.2, 0.1, 24, 8)])
def test_abort_probability_by_enumeration(positions, q, eps, n, d):
    threshold = 1.0 - d / n
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=positions):
        k = sum(pattern)
        if k / (eps * n) >= threshold:
            total += q**k * (1.0 - q) ** (positions - k)
    assert oracles.abort_probability(positions, q, eps, n, d) == pytest.approx(total, abs=1e-12)


def test_min_distance_of_hamming_codes():
    assert oracles.min_distance(HAMMING_7_4) == 3
    assert oracles.min_distance(EXTENDED_HAMMING) == 4


@pytest.mark.parametrize("generator", [HAMMING_7_4, EXTENDED_HAMMING], ids=["hamming", "extended_hamming"])
def test_concealing_posterior_matches_codeword_counting(generator):
    rng = np.random.default_rng(5)
    n = generator.shape[1]
    checked = 0
    while checked < 4:
        r = rng.integers(0, 2, size=n).astype(np.uint8)
        if not ((generator @ r) % 2).any():
            continue  # parity constant on the code: no commitment possible
        checked += 1
        for m in range(n + 1):
            assert oracles.concealing_posterior(generator, r, m) == pytest.approx(
                brute_force_posterior(generator, r, m), abs=1e-12
            )


def test_probe_chain_transfers_fully_without_defence():
    for cycles in (1, 5, 100):
        assert oracles.probe_dc_probability(cycles, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_defended_probe_mostly_misses():
    mean, std = oracles.probe_dc_defended(100, points=1024)
    assert 0.0 < mean < 0.05
    assert std > 0.0
