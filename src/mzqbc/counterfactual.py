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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, optics, protocol
from .optics import RAIL_X, RAIL_Y, BeamSplitterParams


@dataclass(frozen=True)
class FbsConfig:
    """Chained-splitter approximation: M passes, each rotating the
    (a, b) amplitudes by pi/(2M), with the receiver's phase applied to
    path b per pass."""

    cycles: int
    theta_per_cycle: float = 0.0

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")


def fbs_run(config: FbsConfig, blocked: bool) -> dict[str, float]:
    """Exact outcome distribution over {Dc, Dd, Absorbed}.

    The probe starts entirely in path a.  Unblocked, the M rotations
    compose to a pi/2 transfer into path b (detector Dc); blocked, the
    path-b amplitude is absorbed after every pass, leaving
    P(Dd) = cos(pi/2M)^(2M).
    """
    eta = math.pi / (2 * config.cycles)
    c, s = math.cos(eta), math.sin(eta)
    phase = cmath.exp(1j * config.theta_per_cycle)
    amp_a, amp_b = 1.0 + 0j, 0j
    absorbed = 0.0
    for _ in range(config.cycles):
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


def blocked_dd_probability(cycles: int) -> float:
    """Closed form for the blocked case: cos(pi/2M)^(2M)."""
    return math.cos(math.pi / (2 * cycles)) ** (2 * cycles)


def mean_dc_bypass(cycles: int, thetas) -> float:
    """Average unblocked P(Dc) over a grid of per-pass defense phases."""
    vals = [
        fbs_run(FbsConfig(cycles=cycles, theta_per_cycle=t), blocked=False)["Dc"]
        for t in thetas
    ]
    return float(np.mean(vals))


def defense_honest_invariance(
    bit: int, theta: float, params: BeamSplitterParams
) -> dict:
    """The honest sender's detection distribution when the receiver phases
    both rails by theta: identical to the unphased one (global factor)."""
    state = optics.encode(bit, params)
    state = optics.phase_apply(state, RAIL_X, theta)
    state = optics.phase_apply(state, RAIL_Y, theta)
    return optics.detection_distribution(state, params)


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
    """
    n = params.n
    mode_hits = 0
    mode_total = 0
    dc_bypass_probs: list[float] = []
    flips = 0
    # without the defence theta = 0 for every photon: one run per blocked value
    undefended = {} if defense_on else {
        b: fbs_run(FbsConfig(cycles=fbs.cycles), b) for b in (False, True)
    }
    for _ in range(sessions):
        transcript = protocol.run_commit(
            protocol.FbsProbeAlice(), protocol.HonestBob(f=params.f), params, rng
        )
        inferred_bypass = []
        for i, mode in enumerate(transcript.modes):
            blocked = mode == protocol.INTERCEPT
            if defense_on:
                theta = rng.uniform(0.0, 2 * math.pi)
                dist = fbs_run(FbsConfig(cycles=fbs.cycles, theta_per_cycle=theta), blocked)
            else:
                dist = undefended[blocked]
            if not blocked:
                dc_bypass_probs.append(dist["Dc"])
            u = rng.random()
            outcome = "Dc" if u < dist["Dc"] else ("Dd" if u < dist["Dc"] + dist["Dd"] else "Absorbed")
            label_bypass = outcome == "Dc"
            inferred_bypass.append(label_bypass)
            mode_hits += int(label_bypass == (mode == protocol.BYPASS))
            mode_total += 1
        flips += int(_try_flip(transcript, inferred_bypass))
    return {
        "M": fbs.cycles,
        "defense_on": defense_on,
        "sessions": sessions,
        "n": n,
        "f": params.f,
        "mode_accuracy": mode_hits / mode_total,
        "cheat_success_rate": flips / sessions,
        "mean_Dc_bypass": float(np.mean(dc_bypass_probs)) if dc_bypass_probs else float("nan"),
    }


def _try_flip(transcript: protocol.SessionTranscript, inferred_bypass: list[bool]) -> bool:
    """Unveil a codeword of flipped parity touching only believed-bypass
    positions; succeeds iff the receiver's checks all pass.

    It announces c + w, w a codeword that is 0 on the fixed positions with
    w.r = 1: an echelon basis vector of the rows (G[:, fixed] << n) | G below
    2^n.  A blocked probe never clicks Dc, so every intercepted position is
    fixed and any such w gets the same verdict."""
    params = transcript.params
    code, n = params.code, params.code.n
    fixed = ~np.asarray(inferred_bypass, dtype=bool)
    high = kernels.pack_rows(code.generator[:, fixed])
    low = kernels.pack_rows(code.generator)
    r_mask = int(kernels.pack_rows(params.r[None, :])[0])
    for w in kernels.xor_basis([int(h) << n | int(lo) for h, lo in zip(high, low)]):
        if w >> n == 0 and (w & r_mask).bit_count() % 2:
            flip = np.array([w >> i & 1 for i in range(n)], dtype=np.uint8)
            announcement = protocol.Announcement(
                b=1 - transcript.committed_b, c=transcript.codeword ^ flip
            )
            return protocol.run_unveil(transcript, announcement) == protocol.ACCEPT
    return False


def fbs_sweep_rows(cycle_grid, theta_grid) -> list[dict]:
    """Grid of exact probe outcome probabilities for the CSV export."""
    rows = []
    for m in cycle_grid:
        for theta in theta_grid:
            cfg = FbsConfig(cycles=m, theta_per_cycle=theta)
            open_dist = fbs_run(cfg, blocked=False)
            blocked_dist = fbs_run(cfg, blocked=True)
            rows.append(
                {
                    "M": m,
                    "theta": theta,
                    "Dc_bypass": open_dist["Dc"],
                    "Dd_bypass": open_dist["Dd"],
                    "Dc_intercept": blocked_dist["Dc"],
                    "Dd_intercept": blocked_dist["Dd"],
                    "absorbed_intercept": blocked_dist["Absorbed"],
                }
            )
    return rows
