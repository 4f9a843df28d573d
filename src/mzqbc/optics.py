"""Exact single-photon optics for the dual-rail, time-binned interferometer.

A photon lives in a superposition over modes (rail, time bin), with rails X
and Y and time counted in integer units of the storage-ring delay.  A state
is a read-only (2, MAX_BIN+1) complex array, row 0 rail X and row 1 rail Y.
Every operation here is unitary and returns a new array, so a state built
from `packet` or `encode` stays normalized.

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

Every click has one place in `EVENTS`: D0 by bin, then D1 by bin.  A
detection table is the float64 array of their 10 probabilities,
abs(amp) ** 2 on Python complex numbers, so mixing tables is a weighted
sum; `pick_lookup` sorts the tables' `running_sums` into breakpoints, so a
session's events, one uniform per photon, take one search and one lookup.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

RAIL_X = "X"
RAIL_Y = "Y"
#: rails in the row order of a state
RAILS = (RAIL_X, RAIL_Y)

#: Honest photons click in this bin; anything else is "wrong time".
EXPECTED_BIN = 1

#: Largest tracked time bin.  Every in-scope strategy produces events in
#: bins 0..3; amplitudes pushed past this are a modeling error.
MAX_BIN = 4
#: shape of a state: (rail, bin)
SHAPE = (2, MAX_BIN + 1)


class DetectionEvent(NamedTuple):
    """A click of detector 0 or 1 in a time bin."""

    detector: int
    bin: int


#: the entries of a detection table: D0 (on the Y output port) by bin, then
#: D1 (X port) by bin
EVENTS = tuple(DetectionEvent(d, b) for d in (0, 1) for b in range(MAX_BIN + 1))


def expected_index(bit):
    """The position in `EVENTS` of the one event an honest photon must
    produce, D_bit in `EXPECTED_BIN`, for a bit or an array of bits."""
    return bit * (MAX_BIN + 1) + EXPECTED_BIN


@dataclass(frozen=True)
class BeamSplitterParams:
    """Reflectivity R of the (identical) beam splitters; the
    transmissivity is T = 1 - R.  The protocol binds only for R != T, but
    R = T = 1/2 is a valid splitter for symmetric experiments.
    """

    R: float

    def __post_init__(self):
        if not (0.0 < self.R < 1.0):
            raise ValueError(f"reflectivity must lie in (0,1), got {self.R}")

    @property
    def T(self) -> float:
        return 1.0 - self.R


def _frozen(amps: np.ndarray) -> np.ndarray:
    amps.setflags(write=False)
    return amps


def packet(rail: str, bin: int) -> np.ndarray:
    """A photon in the one mode (rail, bin), for a bin in 0..MAX_BIN."""
    amps = np.zeros(SHAPE, dtype=complex)
    amps[RAILS.index(rail), bin] = 1.0
    return _frozen(amps)


def bs_apply(state: np.ndarray, bin, params: BeamSplitterParams) -> np.ndarray:
    """Mix the (X, bin) and (Y, bin) amplitudes on one beam splitter, for
    one bin or a slice of bins; identity on every other mode.

    out_X = sqrt(T) in_X - i sqrt(R) in_Y,  out_Y = sqrt(T) in_Y - i sqrt(R) in_X
    """
    t = math.sqrt(params.T)
    r = -1j * math.sqrt(params.R)
    amps = state.copy()
    x, y = amps[0, bin], amps[1, bin]
    amps[0, bin], amps[1, bin] = t * x + r * y, t * y + r * x
    return _frozen(amps)


def phase_apply(state: np.ndarray, rail: str, theta: float) -> np.ndarray:
    """Multiply every amplitude on `rail` by exp(i*theta)."""
    # exact -1 for the half-wave shifter, so honest interference cancels to 0
    ph = -1.0 + 0j if theta in (math.pi, -math.pi) else cmath.exp(1j * theta)
    amps = state.copy()
    i = RAILS.index(rail)
    amps[i] = [a * ph for a in amps[i].tolist()]  # Python complex products
    return _frozen(amps)


def delay_apply(state: np.ndarray, rail: str, bins: int) -> np.ndarray:
    """Shift every mode on `rail` by `bins` time bins (a storage ring)."""
    if bins < 0:
        raise ValueError("delay must be non-negative")
    i = RAILS.index(rail)
    if state[i, max(0, MAX_BIN + 1 - bins):].any():
        raise ValueError(f"delay pushes amplitude past time bin {MAX_BIN}")
    amps = state.copy()
    amps[i] = np.roll(amps[i], bins)  # what wraps around is zero
    return _frozen(amps)


def encode(bit: int, params: BeamSplitterParams) -> np.ndarray:
    """The sender's output for one committed bit: the photon is split on
    the first beam splitter (bit 0 enters via the Y port, bit 1 via the X
    port) and the sender's ring delays the Y packet a bin."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    rail = RAIL_Y if bit == 0 else RAIL_X
    return delay_apply(bs_apply(packet(rail, 0), 0, params), RAIL_Y, 1)


def detection_table(state: np.ndarray, params: BeamSplitterParams) -> np.ndarray:
    """Exact click distribution of the time-resolved detectors, in
    `EVENTS` order.  The receiver's interferometer delays X, shifts Y by pi
    and recombines every bin; D0 watches the Y output port and D1 the X
    port.  The table of an all-zero state, a photon that never reaches the
    detectors, is all 0."""
    state_in = phase_apply(delay_apply(state, RAIL_X, 1), RAIL_Y, math.pi)
    out_x, out_y = bs_apply(state_in, slice(None), params).tolist()
    return np.array([abs(a) ** 2 for a in out_y + out_x])


def running_sums(tables: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, added left to right, and inf from
    each table's last nonzero entry on: a uniform at or past a total that
    rounding left below 1 still picks the last possible event."""
    sums = np.cumsum(tables, axis=-1)
    last = len(EVENTS) - 1 - np.argmax(tables[..., ::-1] != 0.0, axis=-1)
    sums[np.arange(len(EVENTS)) >= last[..., None]] = np.inf
    return sums


def pick_lookup(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`breaks`, the tables' `running_sums` sorted with duplicates kept, and
    `picks[k, j]`, how many sums of table k (C order) are <= `breaks[j-1]`,
    0 at j = 0.  Every sum is a breakpoint, so for j =
    `breaks.searchsorted(u, "right")`, `picks[k, j]` is the first entry of
    table k whose sum exceeds u.  A table with no click mass: ValueError."""
    rows = tables.reshape(-1, len(EVENTS))
    if not rows.any(axis=-1).all():
        raise ValueError("a detection table with no click mass has no event to pick")
    sums = running_sums(rows)
    # np.sort pages in about 0.2 MB of SIMD code; np.unique imports numpy.ma
    breaks = np.array(sorted(sums.ravel().tolist()))
    picks = np.count_nonzero(sums[:, None, :] <= np.append(-np.inf, breaks)[:, None], axis=-1)
    return breaks, picks


def flag_probability(table: np.ndarray, bit: int) -> float:
    """Probability that an outcome of `table` fails the honest check for
    `bit`: anything but a D_bit click in the expected bin, so a click on the
    wrong detector or in the wrong bin.  A photon that never reaches the
    detectors gives no expected click, so it is flagged: an all-zero table
    flags with probability 1."""
    return 1.0 - float(table[expected_index(bit)])
