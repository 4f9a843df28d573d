"""Exact single-photon optics for the dual-rail, time-binned interferometer.

A photon lives in a superposition over modes (rail, time bin), with rails X
and Y and time counted in integer units of the storage-ring delay.  States
are sub-normalized: any probability mass removed from the rails (a blocked
path, a photon kept by an intercepting party) is accounted in `absorbed`, so
that sum(|amp|^2) + absorbed == 1 always.

Conventions, fixed once and validated by the test suite:

* A beam splitter with reflectivity R transmits with amplitude sqrt(T) and
  reflects with amplitude -i*sqrt(R) (T = 1 - R).
* The sender's apparatus splits the photon on the first beam splitter and
  delays rail Y by one bin, so bit b = 0 leaves as
  -i*sqrt(R)|X,0> + sqrt(T)|Y,1> and b = 1 as sqrt(T)|X,0> - i*sqrt(R)|Y,1>.
* The measurement apparatus delays rail X by one bin, applies a pi phase to
  rail Y, and recombines per bin on an identical beam splitter.  Detector
  ports are assigned so that an honest bit-b photon always fires D_b: D0
  watches the Y output port, D1 the X output port.  The honest click arrives
  in bin 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

RAIL_X = "X"
RAIL_Y = "Y"

#: Honest photons click in this bin; anything else is "wrong time".
EXPECTED_BIN = 1

#: Largest tracked time bin.  Every in-scope strategy produces events in
#: bins 0..3; amplitudes pushed past this are a modeling error.
MAX_BIN = 4

NORM_TOL = 1e-9


class Mode(NamedTuple):
    rail: str
    bin: int


class DetectionEvent(NamedTuple):
    """A click of detector 0/1 in a given bin, or no click at all."""

    detector: int | None
    bin: int | None


NO_CLICK = DetectionEvent(None, None)


def click(detector: int, bin: int) -> DetectionEvent:
    return DetectionEvent(detector, bin)


def expected_event(bit: int) -> DetectionEvent:
    """The one event an honest bit-`bit` photon must produce."""
    return DetectionEvent(bit, EXPECTED_BIN)


@dataclass(frozen=True)
class BeamSplitterParams:
    """Reflectivity/transmissivity of the (identical) beam splitters.

    R + T = 1.  The protocol requires R != T; pass symmetric_ok=True for
    deliberately symmetric experiments.
    """

    R: float
    T: float = None  # type: ignore[assignment]
    symmetric_ok: bool = False

    def __post_init__(self):
        if self.T is None:
            object.__setattr__(self, "T", 1.0 - self.R)
        if not (0.0 < self.R < 1.0):
            raise ValueError(f"reflectivity must lie in (0,1), got {self.R}")
        if abs(self.R + self.T - 1.0) > 1e-12:
            raise ValueError(f"R + T must equal 1, got {self.R + self.T}")
        if not self.symmetric_ok and abs(self.R - self.T) < 1e-12:
            raise ValueError("R == T needs symmetric_ok=True")


@dataclass(frozen=True)
class PhotonState:
    """Sub-normalized amplitudes over (rail, bin) modes plus absorbed mass.

    Treated as an immutable value; operations return new states.
    """

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
    """Mix the (X, bin) and (Y, bin) amplitudes on one beam splitter.

    out_X = sqrt(T) in_X - i sqrt(R) in_Y
    out_Y = sqrt(T) in_Y - i sqrt(R) in_X

    Identity on every other mode.
    """
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
    """Multiply every amplitude on `rail` by exp(i*theta)."""
    # exact -1 for the half-wave shifter, so honest interference cancels to 0
    ph = -1.0 + 0j if theta in (math.pi, -math.pi) else cmath.exp(1j * theta)
    amps = {
        mode: (a * ph if mode.rail == rail else a) for mode, a in state.amps.items()
    }
    return PhotonState(amps=amps, absorbed=state.absorbed)


def delay_apply(state: PhotonState, rail: str, bins: int) -> PhotonState:
    """Shift every mode on `rail` by `bins` time bins (a storage ring)."""
    if bins < 0:
        raise ValueError("delay must be non-negative")
    amps = {}
    for mode, a in state.amps.items():
        if mode.rail == rail:
            mode = Mode(mode.rail, mode.bin + bins)
        amps[mode] = a
    return PhotonState(amps=amps, absorbed=state.absorbed)


def encode(bit: int, params: BeamSplitterParams) -> PhotonState:
    """The sender's output for one committed bit.

    The photon is split on the first beam splitter (bit 0 enters via the Y
    port, bit 1 via the X port) and the Y packet is delayed one bin by the
    sender's storage ring.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    rail_in = RAIL_Y if bit == 0 else RAIL_X
    state = PhotonState(amps={Mode(rail_in, 0): 1.0 + 0j})
    state = bs_apply(state, 0, params)
    return delay_apply(state, RAIL_Y, 1)


def _measurement_transform(state: PhotonState, params: BeamSplitterParams) -> PhotonState:
    """The receiver-side interferometer: delay X, pi shift on Y, recombine."""
    state = delay_apply(state, RAIL_X, 1)
    state = phase_apply(state, RAIL_Y, math.pi)
    for bin in sorted({m.bin for m in state.amps}):
        state = bs_apply(state, bin, params)
    return state


def detection_distribution(
    state: PhotonState, params: BeamSplitterParams
) -> dict[DetectionEvent, float]:
    """Exact outcome distribution of the time-resolved detectors.

    D0 sits on the Y output port and D1 on the X output port of the final
    beam splitter; this makes an honest bit-b photon fire D_b in bin 1 with
    certainty.  The no-click probability equals the absorbed mass.
    """
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


def sample_detection(
    state: PhotonState, params: BeamSplitterParams, rng: np.random.Generator
) -> DetectionEvent:
    """Draw one detection event; deterministic for a fixed generator state."""
    return sample_event(detection_distribution(state, params), rng)


def sample_event(
    dist: dict[DetectionEvent, float], rng: np.random.Generator
) -> DetectionEvent:
    """Draw one event of `dist` with a single `rng.random()`, the events
    taken in (detector, bin) order with no-click last."""
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
    """Probability this state fails the honest check for `bit`.

    Everything except a D_bit click in the expected bin counts: a click on
    the wrong detector, a click in the wrong bin, or no click at all (in the
    ideal lossless setting a missing photon is itself a mismatch).
    """
    dist = detection_distribution(state, params)
    return 1.0 - dist.get(expected_event(bit), 0.0)
