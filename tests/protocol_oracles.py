"""Scalar and Monte-Carlo oracles for the protocol and the probe attack.

`fbs_run` is the probe chain as one complex scalar recurrence per phase,
its M passes stepped one by one; `mzqbc.counterfactual.probe_chain`
computes the same chain in closed form, and tests compare the two to the
loop's own rounding.  `defense_honest_invariance`
and `sample_intercept_posterior` check the receiver's phase defense and
the intercept posterior by direct simulation, the latter counting two
independent float uniforms per position with `intercept_posterior_counts`;
the library has no use for either.  `abort_at` turns a kernel test's float abort threshold into the
integer cutoff the kernels take.  `run_unveil` is the receiver's checks
over every mode, membership by rank and the parity by an integer product;
the library reads only the modes where the announcement differs from the
sent word.
"""

import cmath
import math

import numpy as np

from optics_oracles import table_distribution
from mzqbc import codes, optics, protocol
from mzqbc.optics import RAIL_X, RAIL_Y, BeamSplitterParams


def fbs_run(cycles: int, blocked: bool, theta: float = 0.0) -> dict[str, float]:
    """Exact outcome distribution over {Dc, Dd, Absorbed}, one complex
    amplitude pair stepped through the M passes at per-pass phase theta."""
    eta = math.pi / (2 * cycles)
    c, s = math.cos(eta), math.sin(eta)
    phase = cmath.exp(1j * theta)
    amp_a, amp_b = 1.0 + 0j, 0j
    absorbed = 0.0
    for _ in range(cycles):
        amp_a, amp_b = c * amp_a - s * amp_b, s * amp_a + c * amp_b
        if blocked:
            absorbed += abs(amp_b) ** 2
            amp_b = 0j
        else:
            amp_b *= phase
    return {
        "Dc": abs(amp_b) ** 2,
        "Dd": abs(amp_a) ** 2,
        "Absorbed": absorbed,
    }


def defense_honest_invariance(
    bit: int, theta: float, params: BeamSplitterParams
) -> dict:
    """The honest sender's detection distribution when the receiver phases
    both rails by theta: identical to the unphased one (global factor)."""
    state = optics.encode(bit, params)
    state = optics.phase_apply(state, RAIL_X, theta)
    state = optics.phase_apply(state, RAIL_Y, theta)
    return table_distribution(optics.detection_table(state, params))


def sample_intercept_posterior(
    f: float, epsilon: float, samples: int, rng: np.random.Generator
) -> dict:
    """Monte-Carlo oracle for the intercept posterior: the empirical
    frequency of interception among positions that showed no mismatch."""
    u_mode = rng.random(samples)
    u_mis = rng.random(samples)
    return intercept_posterior_counts(u_mode, u_mis, f, epsilon)


def intercept_posterior_counts(
    u_mode: np.ndarray, u_mis: np.ndarray, f: float, epsilon: float
) -> dict:
    """Interception frequency among silent positions, one position per pair
    of uniforms: intercepted iff u_mode < f, and an intercepted position
    shows a mismatch iff u_mis < epsilon."""
    samples = len(u_mode)
    intercept = u_mode < f
    silent = ~(intercept & (u_mis < epsilon))
    n_silent = int(silent.sum())
    hits = int((intercept & silent).sum())
    predicted = protocol.intercept_posterior(f, epsilon)
    sigma = math.sqrt(predicted * (1 - predicted) / n_silent) if n_silent else float("nan")
    return {
        "samples": samples,
        "silent_positions": n_silent,
        "empirical_posterior": hits / n_silent if n_silent else float("nan"),
        "predicted_posterior": predicted,
        "three_sigma": 3 * sigma,
    }


def abort_at(eps: float, n: int, threshold: float) -> int:
    """The fewest mismatch count c with c / (eps * n) >= threshold, or
    n + 1 when no c in 0..n reaches it."""
    return next((c for c in range(n + 1) if c / (eps * n) >= threshold), n + 1)


def run_unveil(transcript, announcement) -> str:
    """The receiver's verdict, checked in order: the announced word is a
    0/1 vector in the generator's row space (the rank does not grow), its
    parity against r is the announced bit, and it agrees with the sent
    word at every position whose mode is an intercept."""
    params = transcript.params
    code = params.code
    c = np.asarray(announcement.c, dtype=np.uint8)
    if c.shape != (code.n,):
        raise ValueError(f"announced codeword must have length {code.n}")
    binary = np.isin(c, (0, 1)).all()
    if not binary or codes.gf2_rank(np.vstack([code.generator, c])) != code.k:
        return protocol.REJECT_NOT_CODEWORD
    if int(c.astype(np.int64) @ params.r.astype(np.int64)) % 2 != announcement.b:
        return protocol.REJECT_PARITY
    intercepted = np.array(transcript.modes) == protocol.INTERCEPT
    if (c != transcript.codeword)[intercepted].any():
        return protocol.REJECT_INTERCEPT_MISMATCH
    return protocol.ACCEPT
