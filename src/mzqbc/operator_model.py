"""Operator model of the commit phase, one product ket per codeword.

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
fiducial and (alpha_i, gamma_i) = (|c_i>, |c_i>).  The receiver holds
rho_b = mean_c |B_c><B_c|, and everything about it follows from the Gram
matrix of the B_c over both parity halves (at most 2^k on a side), whose
entries are products of per-photon inner products.

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
from .codes import LinearCode
from .util import GuardError, haar_unitary

#: Largest per-trial array of the invariance check, in complex amplitudes:
#: the 2^n x 2^n Haar draw, which also bounds the 2^k branch kets of 2^n
#: amplitudes each (a full-rank generator has k <= n).  One Haar draw took
#: 16 ms at n = 8, 78 ms at n = 9, 0.36 s at n = 10 and 2.9 s at n = 11
#: (2-core VM), so n <= 9 keeps the default 100 trials under 10 s.
MAX_TRIAL_AMPLITUDES = 1 << 18
#: Budget of one invariance check, in trials x 4^n amplitudes, a trial
#: counting at least 4^5 for its fixed cost.  Measured per trial (2-core VM):
#: 0.1-0.3 ms up to n = 5, then about 0.4 us per amplitude (96 ms at n = 9).
#: 2^25 admits the default 100 trials at n = 9 (about 10 s) and keeps every
#: admitted run under about 20 s.
MAX_CHECK_AMPLITUDES = 1 << 25
MIN_TRIAL_AMPLITUDES = 4**5

QUTRIT_UNMEASURED = 2


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


def _photon_kets(mode: str, fiducial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One photon's kets after its gate, row a for codeword bit c_i = a: the
    returned qubit beta_i (2 amplitudes) and the receiver's alpha_i x gamma_i
    (6 amplitudes)."""
    qubit, qutrit = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    if mode == "bypass":  # swap: beta_i takes |a>, alpha_i the fiducial
        kept = np.kron(fiducial, qutrit[QUTRIT_UNMEASURED])
        return qubit, np.stack([kept, kept])
    if mode == "intercept":  # measure and record: |a>|2> -> |a>|a>
        return np.stack([fiducial, fiducial]), np.stack(
            [np.kron(qubit[a], qutrit[a]) for a in (0, 1)]
        )
    raise ValueError(f"unknown mode {mode!r}")


def alice_local_invariance(
    modes: list[str],
    code: LinearCode,
    r: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    beta_qubit: np.ndarray | None = None,
) -> dict:
    """Check that unitaries on the sender's returned qubits cannot move the
    receiver's reduced state.

    For `trials` Haar-random unitaries V on the beta register, each
    codeword branch of the bit-0 commitment is reweighted by |V beta_c|^2;
    the report gives the largest change of the receiver's state (operator
    norm, which bounds every matrix entry) and of its overlap with the
    bit-1 state.  Also reports how distinguishable the two reduced states
    are, which is what the receiver's intercept records buy him.

    beta_qubit is the receiver's (secret, his choice) per-qubit fiducial
    ket; default |0> in the encoding basis.

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
    if not codes_mod.message_mask(code, r).any():
        raise ValueError("r is orthogonal to every codeword: the parity commits no bit")
    fiducial = np.array([1.0, 0.0] if beta_qubit is None else beta_qubit, dtype=complex)
    fiducial = fiducial / np.linalg.norm(fiducial)

    halves = [_parity_half(code, r, b) for b in (0, 1)]
    words = np.concatenate(halves)
    m, m0 = len(words), len(halves[0])
    beta = np.ones((m, 1), dtype=complex)
    gram = np.ones((m, m), dtype=complex)
    for i, mode in enumerate(modes):
        beta_i, kept_i = _photon_kets(mode, fiducial)
        bits = words[:, i]
        beta = (beta[:, :, None] * beta_i[bits][:, None, :]).reshape(m, -1)
        gram *= (kept_i.conj() @ kept_i.T)[bits[:, None], bits[None, :]]

    # The B_c as columns in an orthonormal basis of their span, read off the
    # Gram matrix; directions below its rank tolerance are null in exact
    # arithmetic, and keeping their roundoff would split zero eigenvalues
    # by about sqrt(eps).  sum_c x_c |B_c><B_c| then has the spectrum of
    # coords diag(x) coords^dagger.
    lam, u = np.linalg.eigh(gram)
    keep = lam > m * np.finfo(float).eps * lam[-1]
    coords = np.sqrt(lam[keep])[:, None] * u[:, keep].conj().T

    def spectrum(x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh((coords * x) @ coords.conj().T)

    bit0 = np.arange(m) < m0
    weight = np.sum(np.abs(beta) ** 2, axis=1) / np.where(bit0, m0, m - m0)
    cross = np.abs(gram[:m0, m0:]) ** 2 @ weight[m0:]
    base_overlap = float(weight[:m0] @ cross)

    max_dev = 0.0
    max_overlap_dev = 0.0
    change = np.zeros(m)
    for _ in range(trials):
        v = haar_unitary(1 << n, rng)
        rotated = np.sum(np.abs(beta[:m0] @ v.T) ** 2, axis=1) / m0
        change[:m0] = rotated - weight[:m0]
        max_dev = max(max_dev, float(np.max(np.abs(spectrum(change)))))
        max_overlap_dev = max(max_overlap_dev, abs(float(rotated @ cross) - base_overlap))
    return {
        "n": n,
        "modes": list(modes),
        "trials": trials,
        "max_deviation": max_dev,
        "max_overlap_deviation": max_overlap_dev,
        "reduced_overlap": base_overlap,
        "reduced_trace_distance": 0.5 * float(
            np.sum(np.abs(spectrum(np.where(bit0, weight, -weight))))
        ),
    }
