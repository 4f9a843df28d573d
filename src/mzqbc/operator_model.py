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

Two structural facts carry the security argument.  The committed alpha
states for bit 0 and bit 1 are exactly orthogonal: with every photon
intercepted the records hold the whole codeword, so the receiver's reduced
state is the committed register's own mixture, and `reduced_states` on the
full mask gives its overlap, 0 because the whole word fixes the parity.
And nothing the sender applies to the returned qubits alone can change the
receiver's reduced state: a unitary V on beta reweights branch c by
|V beta_c|^2 = 1, so every pattern keeps its weight.  That second fact is
a theorem, so this module computes nothing for it; the operator oracles of
the tests check it on Haar draws.
"""

from __future__ import annotations

import numpy as np

from . import codes as codes_mod
from . import kernels
from .codes import LinearCode
from .protocol import BYPASS, INTERCEPT


def intercept_mask(modes: list[str], n: int) -> np.ndarray:
    """The intercepted positions of a mode list, one `protocol.BYPASS` or
    `protocol.INTERCEPT` per photon."""
    if len(modes) != n:
        raise ValueError("one mode per photon required")
    for mode in modes:
        if mode not in (BYPASS, INTERCEPT):
            raise ValueError(f"unknown mode {mode!r}")
    return np.array([mode == INTERCEPT for mode in modes], dtype=bool)


def reduced_states(
    code: LinearCode, r: np.ndarray, intercepted: np.ndarray
) -> tuple[float, float]:
    """The trace distance and the overlap of the receiver's reduced states
    for bit 0 and bit 1 when the positions `intercepted` were measured:
    (1.0, 0.0) when they fix the parity, else (0.0, 2^-rank(G[:, S]))."""
    t = codes_mod.message_mask(code, r)
    if kernels.parity_determined(code.generator, t, intercepted[None])[0]:
        return 1.0, 0.0
    # an open parity puts 2^(k - rank - 1) words of each parity in every one
    # of the 2^rank patterns, so both states are the uniform pattern mixture
    return 0.0, 2.0 ** -codes_mod.gf2_rank(code.generator[:, intercepted])
