"""Interaction-free probing of the receiver's mode, and its defense.

A dishonest sender can run, alongside each protocol photon, a probe photon
through an interferometer whose path b loops through the receiver's
channel.  With a beam splitter chained M times at rotation angle
pi/(2M) per pass, an unblocked path b accumulates the full transfer (the
probe ends in detector Dc with certainty) while a blocked path b keeps the
probe in path a with probability cos(pi/2M)^(2M) -> 1 (the Zeno limit), so
the probe reveals bypass vs intercept almost without touching the blocked
channel.  The receiver's defense is a fresh random phase applied equally
to both protocol rails per photon: it shifts the probe's per-pass phase,
wrecking the chained interference, while an honest sender sees only an
undetectable global factor.  The attack reports the undefended P(Dc |
bypass) as its one phase-0 chain computes it, and None with no bypass.

The chain is computed in closed form, the M-th power of one pass, so no
cost depends on M; `tests/protocol_oracles.fbs_run` steps the M passes
and is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, protocol


@dataclass(frozen=True)
class FbsConfig:
    """Chained-splitter approximation: M passes, each rotating the
    (a, b) amplitudes by pi/(2M), with the receiver's phase applied to
    path b per pass."""

    cycles: int

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")


def probe_chain(cycles: int, thetas) -> np.ndarray:
    """Exact probability that the open chain ends in Dc, as a float64 array
    with one entry per per-pass phase in `thetas`; Dd is 1 - Dc, and the
    blocked chain is `blocked_dd_probability`.

    The probe starts entirely in path a.  One pass is diag(1, e^{i theta})
    R(eta) with eta = pi/2M: up to a global phase, an SU(2) matrix of trace
    2 cos(phi) with cos(phi) = cos(eta) cos(theta/2).  Its M-th power sends
    path a to path b (detector Dc) with probability

        Dc = sin^2(eta) sin^2(M phi) / sin^2(phi),

    which is 1 at phase 0 (phi = eta).  The cost does not depend on M.

    sin^2(phi) is taken as sin^2(eta) + cos^2(eta) sin^2(theta/2), and phi
    from arctan2 on |cos(theta/2)|: theta enters only as e^{i theta}, and
    theta/2 -> theta/2 + pi maps phi to pi - phi, which leaves sin^2(M phi)
    alone.  So phi stays in [0, pi/2], where M phi keeps its relative
    precision near the resonances at theta = 0 and 2 pi.  The naive
    arccos(cos(eta) cos(theta/2)) loses 1.6e-7 at M = 1e5 and all of Dc at
    theta = 0, M = 1e9.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    thetas = np.asarray(thetas, dtype=float)
    eta = math.pi / (2 * cycles)
    c, s = math.cos(eta), math.sin(eta)
    half = thetas / 2
    sin2_phi = s * s + (c * np.sin(half)) ** 2
    phi = np.arctan2(np.sqrt(sin2_phi), c * np.abs(np.cos(half)))
    return s * s * np.sin(cycles * phi) ** 2 / sin2_phi


def blocked_dd_probability(cycles: int) -> float:
    """The blocked chain, whose path-b amplitude is absorbed after every
    pass, whatever the phase: it never reaches Dc, reaches Dd with
    probability cos(pi/2M)^(2M) and is absorbed otherwise.  Computed
    through log1p(-2 sin^2(pi/4M)): cos(pi/2M) itself rounds to 1.0 at
    M = 1e9, where the power would lose the whole loss 1 - Dd = 2.5e-9."""
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    half_eta = math.pi / (4 * cycles)
    return math.exp(2 * cycles * math.log1p(-2 * math.sin(half_eta) ** 2))


def attack_session(
    params: protocol.ProtocolParams,
    defense_on: bool,
    fbs: FbsConfig,
    rng: np.random.Generator,
    sessions: int = 100,
) -> dict:
    """The full probe attack over repeated commit sessions.

    Per photon the sender runs the honest protocol while one probe photon
    traverses the chained splitter with path b through the receiver's
    channel X; she labels the photon bypass iff Dc clicks.  At unveil she
    announces a codeword of the opposite parity that differs from the
    committed one only on positions she believes were bypassed.  With the
    defense on, the receiver draws a fresh uniform phase per photon (the
    probe then sees it per pass); honest statistics are unaffected.

    The attack reads three things per photon, drawn as (sessions, n)
    arrays in this order: the receiver's mode (intercepted iff a uniform
    falls below f, the honest receiver's law), the defense phase 2*pi*u
    (defense on only) and the probe's outcome uniform.  One chain call
    serves the bypassed photons of every session: without the defense they
    all see phase 0, so it evaluates that one phase, and `mean_Dc_bypass` is
    its Dc as computed; with it, one entry per bypassed photon.  With no
    photon bypassed `mean_Dc_bypass` is None.  A blocked probe never clicks
    Dc, whatever its phase, so it needs no chain.  For the
    same reason every intercepted position is among those she keeps, so
    the receiver accepts the flipped word whenever one exists: exactly
    when the kept positions leave the parity open, which one
    `kernels.parity_determined` call decides for every session.  The
    chain is a closed form, so the attack costs O(sessions * n) at any M.
    """
    if sessions < 1:
        raise ValueError("the attack needs at least one session")
    shape = (sessions, params.n)
    intercepted = rng.random(shape) < params.f
    bypass = ~intercepted
    thetas = rng.random(shape)[bypass] * (2 * math.pi) if defense_on else [0.0]
    dc_bypass = probe_chain(fbs.cycles, thetas)
    dc = np.zeros(shape)
    dc[bypass] = dc_bypass
    inferred_bypass = rng.random(shape) < dc
    flips = np.count_nonzero(
        ~kernels.parity_determined(params.code.generator, params.t, ~inferred_bypass)
    )
    return {
        "M": fbs.cycles,
        "defense_on": defense_on,
        "sessions": sessions,
        "n": params.n,
        "f": params.f,
        "mode_accuracy": np.count_nonzero(inferred_bypass != intercepted) / intercepted.size,
        "cheat_success_rate": flips / sessions,
        "mean_Dc_bypass": float(np.mean(dc_bypass)) if bypass.any() else None,
    }


def fbs_sweep_rows(cycle_grid, theta_grid) -> list[dict]:
    """Grid of exact probe outcome probabilities for the CSV export; the
    blocked chain ignores the phase and never reaches Dc, so its Dd is
    evaluated once per M."""
    rows = []
    for m in cycle_grid:
        dc = probe_chain(m, theta_grid)
        dd_blocked = blocked_dd_probability(m)
        for theta, dc_bypass, dd_bypass in zip(theta_grid, dc.tolist(), (1.0 - dc).tolist()):
            rows.append(
                {
                    "M": m,
                    "theta": theta,
                    "Dc_bypass": dc_bypass,
                    "Dd_bypass": dd_bypass,
                    "Dc_intercept": 0.0,
                    "Dd_intercept": dd_blocked,
                    "absorbed_intercept": 1.0 - dd_blocked,
                }
            )
    return rows
