"""Closed forms and exact oracles the benchmark checks the program against.

Nothing here imports the program: each value is derived again from the
physics or the combinatorics, so a fault in the program cannot hide by
being copied into its own reference.

* The interferometer is a 2x2 splitter matrix acting per time bin on a
  (rail, bin) amplitude array.  From it follow the receiver's detection
  probabilities: 1/2 for the blind guess, 1 for full-measure-late and
  min(R, T) for the best single-channel resend.
* The intercept posterior f(1 - eps) / (1 - eps f), the escape probability
  (1 - p)^flips and the binomial abort tails at the threshold 1 - d/n.
* The concealing posterior by a GF(2) rank test: a receiver who knows the
  positions S of c = mG learns the parity m.(G r^T) exactly when G r^T lies
  in the column span of G[:, S], and otherwise learns nothing.
* The probe chain's mean bypass click probability under the random-phase
  defence.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_X, _Y = 0, 1
_BINS = 4
#: half-width of every statistical check, in binomial standard deviations
SIGMAS = 5.0


def splitter(R: float) -> np.ndarray:
    """Beam splitter on (X, Y): transmit sqrt(T), reflect -i sqrt(R)."""
    t, r = math.sqrt(1.0 - R), -1j * math.sqrt(R)
    return np.array([[t, r], [r, t]])


def _delay(state: np.ndarray, rail: int) -> np.ndarray:
    out = state.copy()
    out[rail, 1:] = state[rail, :-1]
    out[rail, 0] = 0.0
    return out


def encode(bit: int, R: float) -> np.ndarray:
    """(rail, bin) amplitudes of the sender's photon for one bit."""
    state = np.zeros((2, _BINS), dtype=complex)
    state[_Y if bit == 0 else _X, 0] = 1.0
    state[:, 0] = splitter(R) @ state[:, 0]
    return _delay(state, _Y)


def expected_click_probability(state: np.ndarray, bit: int, R: float) -> float:
    """P(detector D_bit clicks in bin 1) after the receiver-side
    interferometer: delay X, pi phase on Y, recombine every bin.  D0 watches
    the Y port and D1 the X port."""
    out = _delay(state, _X)
    out[_Y] *= -1.0
    out = splitter(R) @ out
    return abs(out[_Y if bit == 0 else _X, 1]) ** 2


def flag_probability(state: np.ndarray, bit: int, R: float) -> float:
    """P(the sender's check flags a resent `state` for `bit`)."""
    return 1.0 - expected_click_probability(state, bit, R)


def _packet(rail: int) -> np.ndarray:
    state = np.zeros((2, _BINS), dtype=complex)
    state[rail, 0 if rail == _X else 1] = 1.0
    return state


def detection_probabilities(R: float) -> dict[str, tuple[float, float]]:
    """Exact flag probability per closed-form strategy and bit (0, 1)."""
    blind = tuple(
        0.5 * sum(flag_probability(encode(g, R), b, R) for g in (0, 1)) for b in (0, 1)
    )
    late = tuple(flag_probability(_delay(_delay(encode(b, R), _X), _Y), b, R) for b in (0, 1))
    single = tuple(min(flag_probability(_packet(rail), b, R) for rail in (_X, _Y)) for b in (0, 1))
    return {
        "blind_guess_on_time": blind,
        "full_measure_late": late,
        "single_channel": single,
    }


def closed_form_detection(R: float) -> dict[str, float]:
    """The paper's closed forms: 1/2, 1 and min(R, T)."""
    return {
        "blind_guess_on_time": 0.5,
        "full_measure_late": 1.0,
        "single_channel": min(R, 1.0 - R),
    }


def intercept_posterior(f: float, eps: float) -> float:
    """P(a position that showed no mismatch was intercepted)."""
    return f * (1.0 - eps) / (1.0 - eps * f)


def escape_probability(p: float, flips: int) -> float:
    """P(none of `flips` silent positions was intercepted)."""
    return (1.0 - p) ** flips


def abort_probability(positions: int, q: float, eps: float, n: int, d: int) -> float:
    """P(K / (eps n) >= 1 - d/n) for K ~ Binomial(positions, q).

    The comparison is made in floating point exactly as the sender's check
    makes it, so the tail starts at the same integer the program uses.
    """
    threshold = 1.0 - d / n
    return sum(
        math.comb(positions, k) * q**k * (1.0 - q) ** (positions - k)
        for k in range(positions + 1)
        if k / (eps * n) >= threshold
    )


def binomial_tolerance(p: float, count: int) -> float:
    """Half-width for an observed frequency over `count` Bernoulli(p) draws."""
    if count == 0:
        return math.inf
    p = min(max(p, 0.0), 1.0)
    return SIGMAS * math.sqrt(p * (1.0 - p) / count) + 1e-12


def min_distance(generator: np.ndarray) -> int:
    """Minimum nonzero codeword weight by enumerating all 2^k messages."""
    k = generator.shape[0]
    msgs = (np.arange(1, 1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    return int(((msgs @ generator) % 2).sum(axis=1).min())


def _column_masks(generator: np.ndarray) -> np.ndarray:
    """Column j of the k x n generator as an integer with bit i = G[i, j]."""
    weights = 1 << np.arange(generator.shape[0], dtype=np.int64)
    return (generator.astype(np.int64) * weights[:, None]).sum(axis=0)


def _reduce(vectors: np.ndarray, basis: np.ndarray, bits: int) -> np.ndarray:
    """Reduce each row's vector against that row's echelon basis."""
    rows = np.arange(len(vectors))
    for bit in range(bits - 1, -1, -1):
        hit = ((vectors >> bit) & 1).astype(bool) & (basis[:, bit] != 0)
        vectors = np.where(hit, vectors ^ basis[rows, bit], vectors)
    return vectors


def parity_determined(generator: np.ndarray, r: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """For each row of position subsets, whether G r^T lies in the GF(2)
    span of the columns G[:, subset] (a rank test, batched over rows)."""
    k = generator.shape[0]
    masks = _column_masks(generator)
    cols = masks[subsets]
    target = int(np.bitwise_xor.reduce(masks[np.flatnonzero(r)]))
    rows = np.arange(len(subsets))
    basis = np.zeros((len(subsets), k), dtype=np.int64)
    for j in range(subsets.shape[1]):
        v = _reduce(cols[:, j], basis, k)
        lead = np.zeros(len(v), dtype=np.int64)
        for bit in range(k):
            lead = np.where((v >> bit) & 1 == 1, bit, lead)
        fresh = v != 0
        basis[rows[fresh], lead[fresh]] = v[fresh]
    residue = _reduce(np.full(len(subsets), target, dtype=np.int64), basis, k)
    return residue == 0


def concealing_posterior(generator: np.ndarray, r: np.ndarray, m: int) -> float:
    """Exact mean parity posterior of a receiver who knows m uniformly
    random positions of a uniformly random codeword.

    Each subset either reveals the parity (posterior 1) or leaves it at 1/2,
    so the true-bit posterior and the max posterior share this mean.
    """
    n = generator.shape[1]
    if m == 0:
        return 0.5
    subsets = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    return 0.5 + 0.5 * float(parity_determined(generator, r, subsets).mean())


def probe_dc_probability(cycles: int, theta: float) -> float:
    """P(Dc) of an unblocked probe chain: `cycles` rotations by
    pi/(2 cycles), each followed by the phase theta on path b."""
    eta = math.pi / (2 * cycles)
    step = np.diag([1.0, np.exp(1j * theta)]) @ np.array(
        [[math.cos(eta), -math.sin(eta)], [math.sin(eta), math.cos(eta)]]
    )
    amps = np.linalg.matrix_power(step, cycles) @ np.array([1.0, 0.0])
    return float(abs(amps[1]) ** 2)


def probe_dc_defended(cycles: int, points: int = 4096) -> tuple[float, float]:
    """Mean and standard deviation of the unblocked P(Dc) over a uniform
    defence phase, by the midpoint rule on `points` phases."""
    thetas = 2 * math.pi * (np.arange(points) + 0.5) / points
    vals = np.array([probe_dc_probability(cycles, t) for t in thetas])
    return float(vals.mean()), float(vals.std())
