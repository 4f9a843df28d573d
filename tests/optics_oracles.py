"""Dict-backed optics, per-photon strategy ladders and the causal coupling
model, kept as oracles.

This is the single-photon optics as it was before states became fixed
arrays: a state is a dict keyed by (rail, bin) modes plus the absorbed mass
that a coupling keeping the photon leaves (a no-click outcome), re-validated
on every step, and every photon rebuilds its encoding and its measurement.  The two
`isinstance` ladders (`apply_strategy`, `detection_prob`) are the strategy
code that the outcome tables in `mzqbc.strategies` replace, and
`intercept_detection` mixes the dict distributions as those tables do.
Tests compare the library with these, float for float and draw for draw.

`GeneralCausal` is the ancilla coupling model behind the detection floor
that `mzqbc.strategies.floor_strategy` proves: the tests of that proof run
random couplings through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from mzqbc.optics import (
    EVENTS,
    EXPECTED_BIN,
    MAX_BIN,
    RAIL_X,
    RAIL_Y,
    BeamSplitterParams,
    DetectionEvent,
)
from mzqbc.strategies import BlindGuessOnTime, FullMeasureLate, SingleChannel

NORM_TOL = 1e-9
UNITARY_TOL = 1e-10
#: declared-decode certainty at/above which a strategy "knows" the bit
CERTAINTY_TOL = 1e-9

_POS_X, _POS_Y, _POS_KEPT = 0, 1, 2


class Mode(NamedTuple):
    rail: str
    bin: int


#: the outcome of the absorbed mass: the library's states are lossless and
#: its tables list clicks only, but a coupling here can keep the photon
NO_CLICK = DetectionEvent(None, None)


def expected_event(bit: int) -> DetectionEvent:
    return DetectionEvent(bit, EXPECTED_BIN)


@dataclass(frozen=True)
class PhotonState:
    amps: dict[Mode, complex] = field(default_factory=dict)
    absorbed: float = 0.0

    def __post_init__(self):
        for mode in self.amps:
            if mode.rail not in (RAIL_X, RAIL_Y):
                raise ValueError(f"unknown rail {mode.rail!r}")
            if not (0 <= mode.bin <= MAX_BIN):
                raise ValueError(f"time bin {mode.bin} outside 0..{MAX_BIN}")
        total = self.total_probability()
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |amps|^2 + absorbed = {total}")

    def total_probability(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values()) + self.absorbed

    def amp(self, rail: str, bin: int) -> complex:
        return self.amps.get(Mode(rail, bin), 0.0)


VACUUM = PhotonState(amps={}, absorbed=1.0)


def bs_apply(state: PhotonState, bin: int, params: BeamSplitterParams) -> PhotonState:
    t = math.sqrt(params.T)
    r = -1j * math.sqrt(params.R)
    in_x = state.amp(RAIL_X, bin)
    in_y = state.amp(RAIL_Y, bin)
    amps = dict(state.amps)
    amps.pop(Mode(RAIL_X, bin), None)
    amps.pop(Mode(RAIL_Y, bin), None)
    out_x = t * in_x + r * in_y
    out_y = t * in_y + r * in_x
    if out_x != 0:
        amps[Mode(RAIL_X, bin)] = out_x
    if out_y != 0:
        amps[Mode(RAIL_Y, bin)] = out_y
    return PhotonState(amps=amps, absorbed=state.absorbed)


def phase_apply(state: PhotonState, rail: str, theta: float) -> PhotonState:
    ph = -1.0 + 0j if theta in (math.pi, -math.pi) else cmath.exp(1j * theta)
    amps = {
        mode: (a * ph if mode.rail == rail else a) for mode, a in state.amps.items()
    }
    return PhotonState(amps=amps, absorbed=state.absorbed)


def delay_apply(state: PhotonState, rail: str, bins: int) -> PhotonState:
    if bins < 0:
        raise ValueError("delay must be non-negative")
    amps = {}
    for mode, a in state.amps.items():
        if mode.rail == rail:
            mode = Mode(mode.rail, mode.bin + bins)
        amps[mode] = a
    return PhotonState(amps=amps, absorbed=state.absorbed)


def encode(bit: int, params: BeamSplitterParams) -> PhotonState:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    rail_in = RAIL_Y if bit == 0 else RAIL_X
    state = PhotonState(amps={Mode(rail_in, 0): 1.0 + 0j})
    state = bs_apply(state, 0, params)
    return delay_apply(state, RAIL_Y, 1)


def _measurement_transform(state: PhotonState, params: BeamSplitterParams) -> PhotonState:
    state = delay_apply(state, RAIL_X, 1)
    state = phase_apply(state, RAIL_Y, math.pi)
    for bin in sorted({m.bin for m in state.amps}):
        state = bs_apply(state, bin, params)
    return state


def detection_distribution(
    state: PhotonState, params: BeamSplitterParams
) -> dict[DetectionEvent, float]:
    out = _measurement_transform(state, params)
    dist: dict[DetectionEvent, float] = {}
    for mode, a in out.amps.items():
        p = abs(a) ** 2
        if p == 0.0:
            continue
        detector = 0 if mode.rail == RAIL_Y else 1
        ev = DetectionEvent(detector, mode.bin)
        dist[ev] = dist.get(ev, 0.0) + p
    if out.absorbed > 0.0:
        dist[NO_CLICK] = dist.get(NO_CLICK, 0.0) + out.absorbed
    return dist


def sample_event(
    dist: dict[DetectionEvent, float], rng: np.random.Generator
) -> DetectionEvent:
    events = sorted(dist, key=lambda ev: (ev.detector is None, ev.detector, ev.bin))
    u = rng.random()
    acc = 0.0
    for ev in events:
        acc += dist[ev]
        if u < acc:
            return ev
    return events[-1]


def flag_probability(
    state: PhotonState, params: BeamSplitterParams, bit: int
) -> float:
    dist = detection_distribution(state, params)
    return 1.0 - dist.get(expected_event(bit), 0.0)


def table_distribution(table) -> dict[DetectionEvent, float]:
    """A library detection table as an event -> probability dict of its
    nonzero entries."""
    return {ev: p for ev, p in zip(EVENTS, table.tolist()) if p != 0.0}


# --- strategies -------------------------------------------------------------------


@dataclass(frozen=True)
class InterceptRecord:
    learned_bit: int | None
    resent: PhotonState


def rail_for(strategy: SingleChannel, bit: int, params: BeamSplitterParams) -> str:
    """`SingleChannel.rail_for` as it was: recomputed on every call."""
    flags = {
        rail: flag_probability(_single_packet(rail), params, bit)
        for rail in (RAIL_X, RAIL_Y)
    }
    return min(flags, key=lambda r: (flags[r], r))


def _single_packet(rail: str) -> PhotonState:
    bin = 0 if rail == RAIL_X else 1
    return PhotonState(amps={Mode(rail, bin): 1.0 + 0j})


@dataclass(frozen=True)
class GeneralCausal:
    """Passive causal processing with a private ancilla.

    The single photon occupies one of three positions: the X packet (index
    0, forwarded in bin 0), the Y packet (index 1, forwarded in bin 1), or
    kept in the receiver's lab (index 2).  u1 acts unitarily on the
    (X, kept) pair of positions tensored with the ancilla before the X
    content leaves; u2 acts on (Y, kept) x ancilla before the Y content
    leaves.  The bit is read from a declared measurement: the ancilla in
    its computational basis together with whether the photon was kept.
    """

    u1: np.ndarray
    u2: np.ndarray
    ancilla_dim: int

    def __post_init__(self):
        a = self.ancilla_dim
        for name, u in (("u1", self.u1), ("u2", self.u2)):
            u = np.asarray(u, dtype=complex)
            if u.shape != (2 * a, 2 * a):
                raise ValueError(f"{name} must be {2*a}x{2*a}")
            if np.max(np.abs(u.conj().T @ u - np.eye(2 * a))) > UNITARY_TOL:
                raise ValueError(f"{name} is not unitary")
            object.__setattr__(self, name, u)


def decode_incoming(incoming: PhotonState, params: BeamSplitterParams) -> int:
    for b in (0, 1):
        ref = encode(b, params)
        if set(ref.amps) == set(incoming.amps) and all(
            abs(incoming.amps[m] - ref.amps[m]) < 1e-9 for m in ref.amps
        ):
            return b
    raise ValueError("incoming state is not a valid encoded photon")


def _embed_block(u: np.ndarray, positions: tuple[int, int], a: int) -> np.ndarray:
    full = np.eye(3 * a, dtype=complex)
    idx = [p * a + j for p in positions for j in range(a)]
    full[np.ix_(idx, idx)] = u
    return full


def _general_causal_output(
    strategy: GeneralCausal, bit: int, params: BeamSplitterParams
) -> np.ndarray:
    a = strategy.ancilla_dim
    enc = encode(bit, params)
    psi = np.zeros(3 * a, dtype=complex)
    psi[_POS_X * a + 0] = enc.amp(RAIL_X, 0)
    psi[_POS_Y * a + 0] = enc.amp(RAIL_Y, 1)
    psi = _embed_block(strategy.u1, (_POS_X, _POS_KEPT), a) @ psi
    psi = _embed_block(strategy.u2, (_POS_Y, _POS_KEPT), a) @ psi
    return psi.reshape(3, a)


def outcome_distribution(
    strategy: GeneralCausal, bit: int, params: BeamSplitterParams
) -> dict[tuple[int, int], float]:
    """P(declared measurement outcome | encoded bit).

    Outcomes are (kept, ancilla): kept=1 when the photon stayed in the lab.
    """
    out = _general_causal_output(strategy, bit, params)
    dist: dict[tuple[int, int], float] = {}
    for j in range(strategy.ancilla_dim):
        p_sent = abs(out[_POS_X, j]) ** 2 + abs(out[_POS_Y, j]) ** 2
        for o, p in (((0, j), p_sent), ((1, j), abs(out[_POS_KEPT, j]) ** 2)):
            if p > 0:
                dist[o] = p
    return dist


def decode_map(
    strategy: GeneralCausal, params: BeamSplitterParams
) -> dict[tuple[int, int], int | None]:
    """Maximum-likelihood bit guess per declared outcome (None when the
    outcome carries no preference)."""
    d0 = outcome_distribution(strategy, 0, params)
    d1 = outcome_distribution(strategy, 1, params)
    mapping: dict[tuple[int, int], int | None] = {}
    for o in set(d0) | set(d1):
        p0, p1 = d0.get(o, 0.0), d1.get(o, 0.0)
        mapping[o] = None if abs(p0 - p1) <= 1e-12 else int(p1 > p0)
    return mapping


def decode_certainty(strategy, params: BeamSplitterParams) -> float:
    """Probability the declared decode returns the true bit, averaged over
    a uniform bit.  1.0 means the strategy always learns the bit."""
    if not isinstance(strategy, GeneralCausal):
        return 1.0  # the closed-form strategies measure the real photon
    d0 = outcome_distribution(strategy, 0, params)
    d1 = outcome_distribution(strategy, 1, params)
    overlap = sum(min(d0.get(o, 0.0), d1.get(o, 0.0)) for o in set(d0) | set(d1))
    return 1.0 - 0.5 * overlap


def _branch_state(amp_x: complex, amp_y: complex, kept2: float) -> PhotonState:
    w = abs(amp_x) ** 2 + abs(amp_y) ** 2 + kept2
    amps = {}
    if amp_x != 0:
        amps[Mode(RAIL_X, 0)] = amp_x / np.sqrt(w)
    if amp_y != 0:
        amps[Mode(RAIL_Y, 1)] = amp_y / np.sqrt(w)
    return PhotonState(amps=amps, absorbed=kept2 / w)


def apply_strategy(strategy, incoming, params, rng) -> InterceptRecord:
    b = decode_incoming(incoming, params)
    if isinstance(strategy, BlindGuessOnTime):
        g = int(rng.integers(2))
        return InterceptRecord(learned_bit=b, resent=encode(g, params))
    if isinstance(strategy, FullMeasureLate):
        resent = delay_apply(incoming, RAIL_X, 1)
        resent = delay_apply(resent, RAIL_Y, 1)
        return InterceptRecord(learned_bit=b, resent=resent)
    if isinstance(strategy, SingleChannel):
        rail = rail_for(strategy, b, params)
        return InterceptRecord(learned_bit=b, resent=_single_packet(rail))
    if isinstance(strategy, GeneralCausal):
        return _apply_general_causal(strategy, b, params, rng)
    raise TypeError(f"unknown strategy {strategy!r}")


def intercept_detection(strategy, bit: int, params: BeamSplitterParams) -> dict:
    """The sender's detection distribution for an intercepted `bit`: each
    resent state's distribution times its probability, summed per event in
    the order of the resent states (the blind guess's coin, then one state
    for the deterministic strategies)."""
    if isinstance(strategy, BlindGuessOnTime):
        weighted = [(0.5, encode(g, params)) for g in (0, 1)]
    else:
        weighted = [(1.0, apply_strategy(strategy, encode(bit, params), params, None).resent)]
    dist: dict[DetectionEvent, float] = {}
    for w, state in weighted:
        for ev, p in detection_distribution(state, params).items():
            dist[ev] = dist.get(ev, 0.0) + w * p
    return dist


def _apply_general_causal(strategy, bit, params, rng) -> InterceptRecord:
    out = _general_causal_output(strategy, bit, params)
    mapping = decode_map(strategy, params)
    kept_p = np.abs(out[_POS_KEPT]) ** 2
    sent_p = np.abs(out[_POS_X]) ** 2 + np.abs(out[_POS_Y]) ** 2
    probs = np.concatenate([sent_p, kept_p])
    probs = probs / probs.sum()
    o = int(rng.choice(len(probs), p=probs))
    kept, j = divmod(o, strategy.ancilla_dim)
    learned = mapping.get((kept, j))
    if kept:
        return InterceptRecord(learned_bit=learned, resent=VACUUM)
    branch = _branch_state(out[_POS_X, j], out[_POS_Y, j], 0.0)
    return InterceptRecord(learned_bit=learned, resent=branch)


def detection_prob(strategy, bit: int, params: BeamSplitterParams) -> float:
    if isinstance(strategy, BlindGuessOnTime):
        return 0.5 * sum(
            flag_probability(encode(g, params), params, bit) for g in (0, 1)
        )
    if isinstance(strategy, FullMeasureLate):
        resent = delay_apply(encode(bit, params), RAIL_X, 1)
        resent = delay_apply(resent, RAIL_Y, 1)
        return flag_probability(resent, params, bit)
    if isinstance(strategy, SingleChannel):
        rail = rail_for(strategy, bit, params)
        return flag_probability(_single_packet(rail), params, bit)
    if isinstance(strategy, GeneralCausal):
        out = _general_causal_output(strategy, bit, params)
        p_ok = 0.0
        for j in range(strategy.ancilla_dim):
            w = (
                abs(out[_POS_X, j]) ** 2
                + abs(out[_POS_Y, j]) ** 2
                + abs(out[_POS_KEPT, j]) ** 2
            )
            if w < 1e-300:
                continue
            branch = _branch_state(
                out[_POS_X, j], out[_POS_Y, j], abs(out[_POS_KEPT, j]) ** 2
            )
            p_ok += w * (1.0 - flag_probability(branch, params, bit))
        return 1.0 - p_ok
    raise TypeError(f"unknown strategy {strategy!r}")


def average_detection_prob(strategy, params: BeamSplitterParams) -> float:
    return 0.5 * (detection_prob(strategy, 0, params) + detection_prob(strategy, 1, params))
