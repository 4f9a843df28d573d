"""Exact single-photon optics for the dual-rail, time-binned interferometer.

A photon lives in a superposition over modes (rail, time bin), with rails X
and Y and time counted in integer units of the storage-ring delay.  A state
is a fixed (2, MAX_BIN+1) complex array (row 0 rail X, row 1 rail Y) plus
the mass `absorbed` removed from the rails (a blocked path, a photon kept
by an intercepting party), so that sum(|amp|^2) + absorbed == 1 always;
`photon_state` checks that for states made from outside.

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

The encoded states are built once per `BeamSplitterParams`, and a state
keeps its `EventTable` per splitter, so sampling it is one uniform and a
bisection; `mix_tables` folds weighted tables into one, so a photon whose
resent state is itself random is still one uniform.  Probabilities are
abs(amp) ** 2 on Python complex numbers.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

RAIL_X = "X"
RAIL_Y = "Y"
#: rails in the row order of `PhotonState.amps`
RAILS = (RAIL_X, RAIL_Y)

#: Honest photons click in this bin; anything else is "wrong time".
EXPECTED_BIN = 1

#: Largest tracked time bin.  Every in-scope strategy produces events in
#: bins 0..3; amplitudes pushed past this are a modeling error.
MAX_BIN = 4
#: shape of `PhotonState.amps`: (rail, bin)
SHAPE = (2, MAX_BIN + 1)

NORM_TOL = 1e-9


class Mode(NamedTuple):
    rail: str
    bin: int


class DetectionEvent(NamedTuple):
    """A click of detector 0/1 in a given bin, or no click at all."""

    detector: int | None
    bin: int | None


NO_CLICK = DetectionEvent(None, None)
#: D0 (on the Y output port) then D1 (X port), by bin: the sampling order
_CLICKS = [DetectionEvent(d, b) for d in (0, 1) for b in range(MAX_BIN + 1)]
_ORDER = {ev: i for i, ev in enumerate(_CLICKS + [NO_CLICK])}


def expected_event(bit: int) -> DetectionEvent:
    """The one event an honest bit-`bit` photon must produce."""
    return DetectionEvent(bit, EXPECTED_BIN)


@dataclass(frozen=True)
class BeamSplitterParams:
    """Reflectivity R of the (identical) beam splitters; the
    transmissivity is T = 1 - R.  The protocol requires R != T; pass
    symmetric_ok=True for deliberately symmetric experiments.
    """

    R: float
    symmetric_ok: bool = False

    def __post_init__(self):
        if not (0.0 < self.R < 1.0):
            raise ValueError(f"reflectivity must lie in (0,1), got {self.R}")
        if not self.symmetric_ok and abs(self.R - self.T) < 1e-12:
            raise ValueError("R == T needs symmetric_ok=True")

    @property
    def T(self) -> float:
        return 1.0 - self.R


class EventTable(NamedTuple):
    """Events in sampling order (clicks by detector and bin, then no-click),
    their probabilities and the running sums, added left to right."""

    events: tuple[DetectionEvent, ...]
    probs: tuple[float, ...]
    cumulative: tuple[float, ...]


class PhotonState:
    """Read-only amplitudes `amps[rail, bin]` plus absorbed mass; operations
    return new states.  Not validated here: see `photon_state`."""

    __slots__ = ("amps", "absorbed", "_tables")

    def __init__(self, amps: np.ndarray, absorbed: float = 0.0):
        amps.setflags(write=False)
        self.amps = amps
        self.absorbed = absorbed
        self._tables: dict = {}  # BeamSplitterParams -> EventTable

    def total_probability(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.ravel().tolist()) + self.absorbed

    def amp(self, rail: str, bin: int) -> complex:
        return complex(self.amps[RAILS.index(rail), bin])

    def modes(self) -> set[Mode]:
        """The modes with a nonzero amplitude."""
        return {Mode(RAILS[i], int(b)) for i, b in zip(*np.nonzero(self.amps))}


def photon_state(amps: dict[Mode, complex], absorbed: float = 0.0) -> PhotonState:
    """A validated state from per-mode amplitudes: rails X and Y, bins
    0..MAX_BIN, and |amps|^2 + absorbed == 1."""
    arr = np.zeros(SHAPE, dtype=complex)
    for (rail, bin), a in amps.items():
        if rail not in RAILS or not 0 <= bin <= MAX_BIN:
            raise ValueError(f"no mode ({rail!r}, {bin}): rails X, Y and bins 0..{MAX_BIN}")
        arr[RAILS.index(rail), bin] = a
    state = PhotonState(arr, absorbed)
    if abs(state.total_probability() - 1.0) > NORM_TOL:
        raise ValueError(f"not normalized: |amps|^2 + absorbed = {state.total_probability()}")
    return state


VACUUM = PhotonState(np.zeros(SHAPE, dtype=complex), absorbed=1.0)


def bs_apply(state: PhotonState, bin, params: BeamSplitterParams) -> PhotonState:
    """Mix the (X, bin) and (Y, bin) amplitudes on one beam splitter, for
    one bin or a slice of bins; identity on every other mode.

    out_X = sqrt(T) in_X - i sqrt(R) in_Y,  out_Y = sqrt(T) in_Y - i sqrt(R) in_X
    """
    t = math.sqrt(params.T)
    r = -1j * math.sqrt(params.R)
    amps = state.amps.copy()
    x, y = amps[0, bin], amps[1, bin]
    amps[0, bin], amps[1, bin] = t * x + r * y, t * y + r * x
    return PhotonState(amps, state.absorbed)


def phase_apply(state: PhotonState, rail: str, theta: float) -> PhotonState:
    """Multiply every amplitude on `rail` by exp(i*theta)."""
    # exact -1 for the half-wave shifter, so honest interference cancels to 0
    ph = -1.0 + 0j if theta in (math.pi, -math.pi) else cmath.exp(1j * theta)
    amps = state.amps.copy()
    i = RAILS.index(rail)
    amps[i] = [a * ph for a in amps[i].tolist()]  # Python complex products
    return PhotonState(amps, state.absorbed)


def delay_apply(state: PhotonState, rail: str, bins: int) -> PhotonState:
    """Shift every mode on `rail` by `bins` time bins (a storage ring)."""
    if bins < 0:
        raise ValueError("delay must be non-negative")
    i = RAILS.index(rail)
    if state.amps[i, max(0, MAX_BIN + 1 - bins):].any():
        raise ValueError(f"delay pushes amplitude past time bin {MAX_BIN}")
    amps = state.amps.copy()
    amps[i] = np.roll(amps[i], bins)  # what wraps around is zero
    return PhotonState(amps, state.absorbed)


@lru_cache(maxsize=256)
def _encoded(params: BeamSplitterParams) -> tuple[PhotonState, PhotonState]:
    """The encoded states of bits 0 and 1, entering on Y and X in bin 0."""
    return tuple(
        delay_apply(bs_apply(photon_state({Mode(rail, 0): 1.0}), 0, params), RAIL_Y, 1)
        for rail in (RAIL_Y, RAIL_X)
    )


def encode(bit: int, params: BeamSplitterParams) -> PhotonState:
    """The sender's output for one committed bit, shared per splitter: the
    photon is split on the first beam splitter (bit 0 enters via the Y port,
    bit 1 via the X port) and the sender's ring delays the Y packet a bin."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return _encoded(params)[bit]


def _event_table(pairs) -> EventTable:
    """The table of nonzero (event, probability) pairs, in sampling order."""
    events, probs = zip(*sorted(pairs, key=lambda pair: _ORDER[pair[0]]))
    return EventTable(events, probs, tuple(itertools.accumulate(probs)))


def detection_table(state: PhotonState, params: BeamSplitterParams) -> EventTable:
    """Exact outcome distribution of the time-resolved detectors, built once
    per state and splitter.  The receiver's interferometer delays X, shifts
    Y by pi and recombines every bin; D0 watches the Y output port and D1
    the X port.  The no-click probability equals the absorbed mass."""
    table = state._tables.get(params)
    if table is not None:
        return table
    state_in = phase_apply(delay_apply(state, RAIL_X, 1), RAIL_Y, math.pi)
    out_x, out_y = bs_apply(state_in, slice(None), params).amps.tolist()
    probs = [abs(a) ** 2 for a in out_y + out_x]
    pairs = [(ev, p) for ev, p in zip(_CLICKS, probs) if p != 0.0]
    if state.absorbed > 0.0:
        pairs.append((NO_CLICK, state.absorbed))
    table = _event_table(pairs)
    state._tables[params] = table
    return table


def mix_tables(weighted) -> EventTable:
    """The mixture of (weight, `EventTable`) pairs: each event's probability
    is the sum of weight x probability over the tables, added in the given
    order."""
    mixed: dict[DetectionEvent, float] = {}
    for w, table in weighted:
        for ev, p in zip(table.events, table.probs):
            mixed[ev] = mixed.get(ev, 0.0) + w * p
    return _event_table(mixed.items())


def sample_event(table: EventTable, u: float) -> DetectionEvent:
    """The event a uniform `u` in [0, 1) picks: the first whose running sum
    exceeds u, else the last event."""
    i = bisect.bisect_right(table.cumulative, u)
    return table.events[min(i, len(table.events) - 1)]


def flag_probability(table: EventTable, bit: int) -> float:
    """Probability that an outcome of `table` fails the honest check for
    `bit`: anything but a D_bit click in the expected bin, so a click on the
    wrong detector or in the wrong bin, or no click at all (in the ideal
    lossless setting a missing photon is itself a mismatch)."""
    return 1.0 - dict(zip(table.events, table.probs)).get(expected_event(bit), 0.0)
