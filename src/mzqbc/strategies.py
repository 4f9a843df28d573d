"""The receiver's intercept-mode resend strategies and their exact
detection probabilities.

An intercepting receiver must put something back on the channels at the
honest times (X content in bin 0, Y content in bin 1) although the photon
he is trying to read only finishes arriving in bin 1.  Each of the three
closed-form strategies here resolves that tension differently, and each
measures the real photon, so every strategy learns the sent bit: what the
receiver learns at an intercepted position is the committed codeword's bit
there.  `resent(strategy, bit, params)` lists the weighted states it sends
back (the blind guess's coin is a weight).  `outcome_tables`, the one
cache, builds per (strategy, splitter) the sender's detection tables by
(intercepted, bit), each an array in `optics.EVENTS` order, and their
running sums: `protocol.run_commit` picks a session's events from the sums,
and `detection_prob`, the exact chance that the sender's check flags the
resent photon, reads the tables.  The family minimum is the detection floor
used by the protocol's estimator; `floor_strategy` proves that no causal
coupling with certain decode goes below it, so that minimum is exact, not
a search's upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import optics
from .optics import RAIL_X, RAIL_Y, RAILS, BeamSplitterParams


@dataclass(frozen=True)
class BlindGuessOnTime:
    """Resend a fresh uniformly-guessed encoding on time, keep the real
    photon, and measure it at leisure (so the bit is always learned)."""

    label: ClassVar[str] = "blind_guess_on_time"


@dataclass(frozen=True)
class FullMeasureLate:
    """Wait for the whole photon, measure, resend a perfect copy one bin
    late on both rails."""

    label: ClassVar[str] = "full_measure_late"


@dataclass(frozen=True)
class SingleChannel:
    """Send the whole resent amplitude at the honest time down the rail
    with the smaller flag probability for the learned bit (the optimal
    play in this class)."""

    label: ClassVar[str] = "single_channel"


ResendStrategy = BlindGuessOnTime | FullMeasureLate | SingleChannel


def strategy_name(strategy: ResendStrategy) -> str:
    return strategy.label


def resent(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> tuple[tuple[float, np.ndarray], ...]:
    """The (weight, resent state) pairs of the strategy for an encoded `bit`."""
    if isinstance(strategy, BlindGuessOnTime):
        # one fair coin picks the resent encoding; the real photon is kept
        return tuple((0.5, optics.encode(g, params)) for g in (0, 1))
    if isinstance(strategy, FullMeasureLate):
        late = optics.delay_apply(optics.encode(bit, params), RAIL_X, 1)
        return ((1.0, optics.delay_apply(late, RAIL_Y, 1)),)
    if isinstance(strategy, SingleChannel):
        # on time: X content in bin 0, Y content in bin 1
        packets = {r: optics.packet(r, b) for b, r in enumerate(RAILS)}
        tables = {r: optics.detection_table(packets[r], params) for r in RAILS}
        rail = min(RAILS, key=lambda r: (optics.flag_probability(tables[r], bit), r))
        return ((1.0, packets[rail]),)
    raise TypeError(f"unknown strategy {strategy!r}")


@lru_cache(maxsize=1024)
def outcome_tables(
    strategy: ResendStrategy, params: BeamSplitterParams
) -> tuple[np.ndarray, np.ndarray]:
    """The sender's read-only detection tables by (intercepted, bit, event)
    and their `optics.running_sums`.  A bypassed photon is the sender's own
    encoding; an intercepted one is the resent states' tables summed by
    weight, in branch order."""
    bypassed = [optics.detection_table(optics.encode(b, params), params) for b in (0, 1)]
    intercepted = [
        sum(w * optics.detection_table(state, params) for w, state in resent(strategy, b, params))
        for b in (0, 1)
    ]
    tables = np.array([bypassed, intercepted])
    sums = optics.running_sums(tables)
    tables.setflags(write=False)
    sums.setflags(write=False)
    return tables, sums


def detection_prob(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> float:
    """Exact probability the sender's check flags this photon."""
    tables, _ = outcome_tables(strategy, params)
    return optics.flag_probability(tables[1, bit], bit)


def average_detection_prob(
    strategy: ResendStrategy, params: BeamSplitterParams
) -> float:
    return 0.5 * (detection_prob(strategy, 0, params) + detection_prob(strategy, 1, params))


def closed_form_strategies() -> list[ResendStrategy]:
    return [BlindGuessOnTime(), FullMeasureLate(), SingleChannel()]


def protocol_epsilon(params: BeamSplitterParams) -> float:
    """Default reference detection rate: the closed-form family minimum at
    this splitting ratio (= min(R, T), from the single-channel strategy)."""
    return average_detection_prob(floor_strategy(params), params)


def floor_strategy(params: BeamSplitterParams) -> ResendStrategy:
    """The lowest-detection strategy among those that learn the bit with
    certainty: the closed-form family minimum (first in list order on a
    tie), whose bit-averaged detection is min(R, T) <= 1/2.

    No passive causal coupling with a private ancilla that decodes the bit
    with certainty does better, at any ancilla dimension.  In that model
    (kept with its tests in `tests/optics_oracles.py`) the photon sits in
    the X packet, the Y packet or the receiver's lab; u1 acts on (X, kept)
    x ancilla before the X content leaves, u2 on (Y, kept) x ancilla before
    the Y content leaves, and the bit is read from the ancilla together
    with whether the photon was kept.

    Let x = <forwarded X, j| u1 |X, 0>.  Outcome (sent, j) has probability
    at least |a_b|^2 |x_j|^2 under bit b, and the X amplitude a_b is sqrt(R)
    or sqrt(T), never 0, so a certain decode (no outcome possible under both
    bits) forces x = 0.  Then only Y-rail content is forwarded, and a
    Y-only packet is flagged with flag_Y(0) + flag_Y(1) = 1; a kept photon
    leaves the rails empty, the table of an empty state is all 0, and so
    `optics.flag_probability` flags it with probability 1.
    With s_b the forwarded probability under bit b, the bit-averaged
    detection is 1 - (s_0 (1 - flag_Y(0)) + s_1 (1 - flag_Y(1))) / 2 >= 1/2.
    """
    return min(closed_form_strategies(), key=lambda s: average_detection_prob(s, params))


def strategy_table_rows(reflectivities) -> list[dict]:
    """Rows (strategy, R, bit, detection_prob) for the exported table."""
    rows = []
    for R in reflectivities:
        params = BeamSplitterParams(R=R)
        for s in closed_form_strategies():
            for bit in (0, 1):
                p = detection_prob(s, bit, params)
                rows.append({"strategy": strategy_name(s), "R": R, "bit": bit, "detection_prob": p})
    return rows
