"""Shared helpers: guarded errors, Haar-random unitaries, seed splitting."""

from __future__ import annotations

import numpy as np


class GuardError(Exception):
    """Raised when a computation would exceed a hard size/dimension guard."""


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# Experiments split one master seed into fixed-size blocks so that results
# are byte-identical regardless of how many worker threads process them.
BLOCK_TRIALS = 16384


def block_seed_sequences(seed: int, trials: int):
    """Per-block SeedSequences for `trials` trials; block b covers trials
    [b*BLOCK_TRIALS, min((b+1)*BLOCK_TRIALS, trials))."""
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    return np.random.SeedSequence(seed).spawn(n_blocks)


def block_slices(trials: int):
    for start in range(0, trials, BLOCK_TRIALS):
        yield start, min(start + BLOCK_TRIALS, trials)
