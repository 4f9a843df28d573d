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
undetectable global factor on her encoded states.
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


def probe_chain(
    cycles: int, thetas, blocked: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact outcome probabilities (Dc, Dd, Absorbed) of the chain, as three
    float64 arrays with one entry per per-pass phase in `thetas`.

    The probe starts entirely in path a.  Unblocked, the M rotations
    compose to a pi/2 transfer into path b (detector Dc) at phase 0;
    blocked, the path-b amplitude is absorbed after every pass, leaving
    P(Dd) = cos(pi/2M)^(2M) whatever the phase.

    The amplitudes live in one stacked float64 array `amp` of shape
    (2, 2, L): `amp[0]` holds (re a, im a) and `amp[1]` holds (re b, im b).
    A pass is six in-place ufunc calls.  The rotation adds [-s, s] times the
    path-swapped stack to c times the stack; the phase adds [-sin, sin]
    times the component-swapped `amp[1]` to cos times it.  Every entry
    still equals the scalar complex recurrence bit for bit: each product is
    the same single rounding, negation is exact, x + (-y) == x - y, and
    addition and multiplication commute.  Complex dtypes, `matmul` and
    `einsum` are avoided because their SIMD or BLAS kernels may fuse
    multiply-adds, which moves the last bit on some CPUs.  For the same
    reason the phases use libm `cos` and `sin`, and `_abs_squared` uses
    Python's `** 2` (libm `pow`, not `x * x`) on each `hypot`.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    eta = math.pi / (2 * cycles)
    c, s = math.cos(eta), math.sin(eta)
    thetas = np.asarray(thetas, dtype=float).tolist()
    pc = np.array([math.cos(t) for t in thetas])
    ps = np.array([math.sin(t) for t in thetas])
    rot = np.array([-s, s]).reshape(2, 1, 1)
    phase = np.array([-ps, ps])
    amp = np.zeros((2, 2, len(thetas)))
    amp[0, 0] = 1.0
    b = amp[1]
    swapped, b_swapped = amp[::-1], b[::-1]  # views: they follow amp
    tmp = np.empty_like(amp)
    tmp_b = tmp[1]
    absorbed = np.zeros(len(thetas))
    for _ in range(cycles):
        np.multiply(rot, swapped, out=tmp)
        amp *= c
        amp += tmp
        if blocked:
            absorbed = absorbed + _abs_squared(*b)
            b[...] = 0.0
        else:
            np.multiply(phase, b_swapped, out=tmp_b)
            b *= pc
            b += tmp_b
    return _abs_squared(*b), _abs_squared(*amp[0]), absorbed


def _abs_squared(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """abs(complex(re, im)) ** 2, element by element, as Python rounds it."""
    return np.array([h ** 2 for h in np.hypot(re, im).tolist()])


def blocked_dd_probability(cycles: int) -> float:
    """Closed form for the blocked case: cos(pi/2M)^(2M)."""
    return math.cos(math.pi / (2 * cycles)) ** (2 * cycles)


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
    all see phase 0, so it steps that one phase and repeats its Dc; with it,
    it steps one entry per bypassed photon.  A blocked probe never clicks
    Dc, whatever its phase, so it needs no chain.  For the
    same reason every intercepted position is among those she keeps, so
    the receiver accepts the flipped word whenever one exists: exactly
    when the kept positions leave the parity open, which one
    `kernels.parity_determined` call decides for every session.
    """
    if sessions < 1:
        raise ValueError("the attack needs at least one session")
    shape = (sessions, params.n)
    intercepted = rng.random(shape) < params.f
    bypass = ~intercepted
    if defense_on:
        dc_bypass = probe_chain(fbs.cycles, rng.random(shape)[bypass] * (2 * math.pi))[0]
    else:
        dc_bypass = np.repeat(probe_chain(fbs.cycles, [0.0])[0], np.count_nonzero(bypass))
    dc = np.zeros(shape)
    dc[bypass] = dc_bypass
    inferred_bypass = rng.random(shape) < dc
    flips = np.count_nonzero(
        ~kernels.parity_determined(params.code.generator, params.r, ~inferred_bypass)
    )
    return {
        "M": fbs.cycles,
        "defense_on": defense_on,
        "sessions": sessions,
        "n": params.n,
        "f": params.f,
        "mode_accuracy": np.count_nonzero(inferred_bypass != intercepted) / intercepted.size,
        "cheat_success_rate": flips / sessions,
        "mean_Dc_bypass": float(np.mean(dc_bypass)) if dc_bypass.size else float("nan"),
    }


def fbs_sweep_rows(cycle_grid, theta_grid) -> list[dict]:
    """Grid of exact probe outcome probabilities for the CSV export; the
    blocked chain ignores the phase, so it runs once per M."""
    rows = []
    for m in cycle_grid:
        dc, dd, _ = probe_chain(m, theta_grid)
        dc_blocked, dd_blocked, absorbed = (
            float(p[0]) for p in probe_chain(m, [0.0], blocked=True)
        )
        for theta, dc_bypass, dd_bypass in zip(theta_grid, dc.tolist(), dd.tolist()):
            rows.append(
                {
                    "M": m,
                    "theta": theta,
                    "Dc_bypass": dc_bypass,
                    "Dd_bypass": dd_bypass,
                    "Dc_intercept": dc_blocked,
                    "Dd_intercept": dd_blocked,
                    "absorbed_intercept": absorbed,
                }
            )
    return rows
