"""Shared helpers: guarded errors and seeded trial blocks."""

from __future__ import annotations

import numpy as np


class GuardError(Exception):
    """Raised when a computation would exceed a hard size/dimension guard."""


# Experiments split one master seed into fixed-size blocks so that results
# are byte-identical regardless of how many worker threads process them.
BLOCK_TRIALS = 16384


def blocks(seed: int, trials: int) -> list[tuple[np.random.SeedSequence, int]]:
    """One (SeedSequence, trial count) pair per block: block b covers trials
    [b*BLOCK_TRIALS, min((b+1)*BLOCK_TRIALS, trials))."""
    starts = range(0, trials, BLOCK_TRIALS)
    seqs = np.random.SeedSequence(seed).spawn(len(starts))
    return [(seq, min(BLOCK_TRIALS, trials - start)) for seq, start in zip(seqs, starts)]
