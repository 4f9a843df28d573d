"""Operator model of the commit phase, read off the intercepted pattern.

The commit phase is equivalent to a three-stage process: the sender hands
over a register `alpha` of n qubits (one per photon, in the orthonormal
basis given by the two encoded states); the receiver prepares a register
`beta` of n qubits in a private fiducial state and a register `gamma` of n
qutrits initialized to the "not measured" state |2>, applies one unitary
per photon, and returns `beta` to the sender.  Per photon the unitary is
either a bypass (swap the beta and alpha qubits, leave the qutrit alone)
or an intercept (measure the alpha qubit in the encoding basis and record
the outcome in the qutrit, realized coherently by conditioned qutrit
permutations that map |2> to the outcome).

Every gate is a swap or a controlled permutation, and the committed state
is a uniform mixture over the parity-b codewords c.  So each branch c stays
a product over photons: a bypassed photon leaves beta_i = |c_i> and
(alpha_i, gamma_i) = (fiducial, |2>), an intercepted one leaves beta_i =
fiducial and (alpha_i, gamma_i) = (|c_i>, |c_i>).  The receiver's ket B_c
thus depends only on the pattern c_S of the intercepted positions S: two
branches with one pattern are equal and two with different patterns are
orthogonal, whatever the fiducial.  So rho_b = mean_c |B_c><B_c| is
diagonal in the patterns, and the two states are read off S alone: when S
fixes the parity (`kernels.parity_determined`) they sit on disjoint
patterns, trace distance 1 and overlap 0; otherwise both are the uniform
mixture of the 2^rank(G[:, S]) patterns, trace distance 0 and overlap
2^-rank.

Two structural facts carry the security argument, and both are testable:
the committed alpha states for bit 0 and bit 1 are exactly orthogonal
(disjoint codeword mixtures), and nothing the sender applies to her
returned qubits alone can change the receiver's reduced state.  The
invariance check takes n from the code and guards its own size: one
trial's Haar draw, then the whole run's trial budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import kernels
from .codes import LinearCode
from .util import GuardError, haar_unitary

#: Largest per-trial array of the invariance check, in complex amplitudes:
#: the 2^n x 2^n Haar draw, which also bounds the 2^(k-1) of its columns that
#: the bit-0 branches read (a full-rank generator has k <= n).  One Haar draw
#: took 16 ms at n = 8, 78 ms at n = 9, 0.36 s at n = 10 and 2.9 s at n = 11
#: (2-core VM), so n <= 9 keeps the default 100 trials under 10 s.
MAX_TRIAL_AMPLITUDES = 1 << 18
#: Budget of one invariance check, in trials x 4^n amplitudes, a trial
#: counting at least 4^5 for its fixed cost.  Measured per trial (2-core VM):
#: 0.1-0.3 ms up to n = 5, then about 0.4 us per amplitude (96 ms at n = 9).
#: 2^25 admits the default 100 trials at n = 9 (about 10 s) and keeps every
#: admitted run under about 20 s.
MAX_CHECK_AMPLITUDES = 1 << 25
MIN_TRIAL_AMPLITUDES = 4**5

@dataclass(frozen=True)
class SparseDiagonalDensity:
    """Diagonal density matrix stored as (index, weight) pairs; this is how
    committed-register states look in the codeword basis."""

    dim: int
    indices: np.ndarray
    weights: np.ndarray


def _parity_half(code: LinearCode, r: np.ndarray, b: int) -> np.ndarray:
    words = code.codewords()
    return words[words @ np.asarray(r, dtype=np.uint8) % 2 == b]


def committed_density(
    code: LinearCode, r: np.ndarray, b: int
) -> SparseDiagonalDensity:
    """The committed register's state: the uniform mixture of the product
    encodings of the parity-b codewords, diagonal in the codeword basis.

    The sparse form carries only the |C_b| nonzero weights, so it scales to
    every enumerable code.
    """
    if b and not codes_mod.message_mask(code, r).any():
        raise ValueError("committed subset empty; choose different r")
    if code.n > 63:
        raise ValueError("basis indices beyond 63 qubits overflow int64")
    subset = _parity_half(code, r, b)
    # basis index of |c_1 ... c_n>, qubit 1 the most significant
    indices = subset.astype(np.int64) @ (1 << np.arange(code.n - 1, -1, -1, dtype=np.int64))
    weights = np.full(len(subset), 1.0 / len(subset))
    return SparseDiagonalDensity(dim=1 << code.n, indices=indices, weights=weights)


def overlap(rho_a: SparseDiagonalDensity, rho_b: SparseDiagonalDensity) -> float:
    """trace(rho_a rho_b) of two diagonal states."""
    if rho_a.dim != rho_b.dim:
        raise ValueError("dimension mismatch")
    _, ia, ib = np.intersect1d(
        rho_a.indices, rho_b.indices, assume_unique=True, return_indices=True
    )
    return float(rho_a.weights[ia] @ rho_b.weights[ib])


def alice_local_invariance(
    modes: list[str],
    code: LinearCode,
    r: np.ndarray,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Check that unitaries on the sender's returned qubits cannot move the
    receiver's reduced state.

    For `trials` Haar-random unitaries V on the beta register, each
    codeword branch of the bit-0 commitment is reweighted by |V beta_c|^2;
    the report gives the largest change of the receiver's state (operator
    norm, which bounds every matrix entry: the largest per-pattern sum of
    the weight changes) and of its overlap with the bit-1 state.  Also
    reports how distinguishable the two reduced states are, which is what
    the receiver's intercept records buy him.  The fiducial is |0>; no
    reported field depends on it.

    Refused before anything is drawn or allocated when one trial's
    2^n x 2^n Haar draw is beyond `MAX_TRIAL_AMPLITUDES`, and then when
    `trials` exceed the budget `MAX_CHECK_AMPLITUDES`.
    """
    n = code.n
    if 4**n > MAX_TRIAL_AMPLITUDES:
        raise GuardError(
            f"composite of n = {n} photons needs a 2^{n} x 2^{n} "
            f"Haar draw per trial; the limit is {MAX_TRIAL_AMPLITUDES} amplitudes "
            "(n <= 9)"
        )
    if trials < 1:
        raise ValueError("the invariance check needs at least one trial")
    per_trial = max(4**n, MIN_TRIAL_AMPLITUDES)
    if trials * per_trial > MAX_CHECK_AMPLITUDES:
        raise GuardError(
            f"{trials} trials at n = {n} exceed the invariance check's budget of "
            f"{MAX_CHECK_AMPLITUDES} trial amplitudes (at most "
            f"{MAX_CHECK_AMPLITUDES // per_trial} trials)"
        )
    if len(modes) != n:
        raise ValueError("one mode per photon required")
    for mode in modes:
        if mode not in ("bypass", "intercept"):
            raise ValueError(f"unknown mode {mode!r}")
    if not codes_mod.message_mask(code, r).any():
        raise ValueError("r is orthogonal to every codeword: the parity commits no bit")

    intercepted = np.array([mode == "intercept" for mode in modes])
    determined = bool(kernels.parity_determined(code.generator, r, intercepted[None])[0])
    # an open parity puts 2^(k - rank - 1) words of each parity in every one
    # of the 2^rank patterns, so both states are the uniform pattern mixture
    base_overlap = 0.0 if determined else 2.0 ** -codes_mod.gf2_rank(
        code.generator[:, intercepted]
    )

    words = _parity_half(code, r, 0)
    m0 = len(words)
    # with the fiducial |0>, branch c's returned qubits are the basis ket
    # |c_i on bypassed photons, 0 on intercepted ones>, so V reweights it by
    # the squared norm of that column of V
    columns = (words * ~intercepted) @ (1 << np.arange(n - 1, -1, -1))
    _, pattern = np.unique(kernels.pack_rows(words[:, intercepted]), return_inverse=True)

    max_dev = 0.0
    max_overlap_dev = 0.0
    for _ in range(trials):
        v = haar_unitary(1 << n, rng)
        change = np.sum(np.abs(v.T[columns]) ** 2, axis=1) / m0 - 1.0 / m0
        per_pattern = np.bincount(pattern, weights=change)
        max_dev = max(max_dev, float(np.max(np.abs(per_pattern))))
        max_overlap_dev = max(max_overlap_dev, abs(float(change.sum())) * base_overlap)
    return {
        "n": n,
        "modes": list(modes),
        "trials": trials,
        "max_deviation": max_dev,
        "max_overlap_deviation": max_overlap_dev,
        "reduced_overlap": base_overlap,
        "reduced_trace_distance": 1.0 if determined else 0.0,
    }
