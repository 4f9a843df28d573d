"""Shared helpers: guarded errors, Haar-random unitaries, seeded trial blocks."""

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


def blocks(seed: int, trials: int) -> list[tuple[np.random.SeedSequence, int]]:
    """One (SeedSequence, trial count) pair per block: block b covers trials
    [b*BLOCK_TRIALS, min((b+1)*BLOCK_TRIALS, trials))."""
    starts = range(0, trials, BLOCK_TRIALS)
    seqs = np.random.SeedSequence(seed).spawn(len(starts))
    return [(seq, min(BLOCK_TRIALS, trials - start)) for seq, start in zip(seqs, starts)]
