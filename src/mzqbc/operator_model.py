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
returned qubits alone can change the receiver's reduced state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import kernels
from .codes import LinearCode


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


def intercept_mask(modes: list[str], n: int) -> np.ndarray:
    """The intercepted positions of a mode list, one "bypass" or
    "intercept" per photon."""
    if len(modes) != n:
        raise ValueError("one mode per photon required")
    for mode in modes:
        if mode not in ("bypass", "intercept"):
            raise ValueError(f"unknown mode {mode!r}")
    return np.array([mode == "intercept" for mode in modes], dtype=bool)


def reduced_states(
    code: LinearCode, r: np.ndarray, intercepted: np.ndarray
) -> tuple[float, float]:
    """The trace distance and the overlap of the receiver's reduced states
    for bit 0 and bit 1 when the positions `intercepted` were measured:
    (1.0, 0.0) when they fix the parity, else (0.0, 2^-rank(G[:, S]))."""
    if not codes_mod.message_mask(code, r).any():
        raise ValueError("r is orthogonal to every codeword: the parity commits no bit")
    if kernels.parity_determined(code.generator, r, intercepted[None])[0]:
        return 1.0, 0.0
    # an open parity puts 2^(k - rank - 1) words of each parity in every one
    # of the 2^rank patterns, so both states are the uniform pattern mixture
    return 0.0, 2.0 ** -codes_mod.gf2_rank(code.generator[:, intercepted])


def state_change(
    code: LinearCode, r: np.ndarray, intercepted: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """How much one matrix V on the sender's returned qubits, a unitary in
    the protocol, moves the receiver's bit-0 state: the largest per-pattern
    sum of the branch weight changes (the operator norm of the change, which
    bounds every matrix entry), and the change of its overlap with the bit-1
    state.

    Each codeword branch is reweighted by |V beta_c|^2, which is 1 for a
    unitary.  The fiducial is |0>; no returned field depends on it.
    """
    _, base_overlap = reduced_states(code, r, intercepted)
    words = _parity_half(code, r, 0)
    m0 = len(words)
    # with the fiducial |0>, branch c's returned qubits are the basis ket
    # |c_i on bypassed photons, 0 on intercepted ones>, so V reweights it by
    # the squared norm of that column of V
    columns = (words * ~intercepted) @ (1 << np.arange(code.n - 1, -1, -1))
    _, pattern = np.unique(kernels.pack_rows(words[:, intercepted]), return_inverse=True)
    change = np.sum(np.abs(v.T[columns]) ** 2, axis=1) / m0 - 1.0 / m0
    per_pattern = np.bincount(pattern, weights=change)
    return float(np.max(np.abs(per_pattern))), abs(float(change.sum())) * base_overlap
