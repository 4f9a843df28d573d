"""The receiver's intercept-mode resend strategies and their exact
detection probabilities.

An intercepting receiver must put something back on the channels at the
honest times (X content in bin 0, Y content in bin 1) although the photon
he is trying to read only finishes arriving in bin 1.  Each of the three
closed-form strategies here resolves that tension differently, and each
measures the real photon, so every strategy learns the sent bit: what the
receiver learns at an intercepted position is the committed codeword's bit
there.  `branches(strategy, bit, params)` lists its outcomes, built once:
`protocol.run_commit` samples them, and `detection_prob`, the exact chance
that the sender's check flags the resent photon, sums weight x flag over
them.  The family minimum is the detection floor used by the protocol's
estimator; `floor_strategy` proves that no causal coupling with certain
decode goes below it, so that minimum is exact, not a search's upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import optics
from .optics import RAIL_X, RAIL_Y, RAILS, BeamSplitterParams, Mode, PhotonState


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


class BranchTable(NamedTuple):
    """(weight, resent state, its detection table) per outcome for one
    encoded bit; `pick` draws an index with the strategy's own draws."""

    branches: tuple[tuple[float, PhotonState, optics.EventTable], ...]
    pick: Callable[[np.random.Generator], int]


def strategy_name(strategy: ResendStrategy) -> str:
    return strategy.label


def _single_packet(rail: str) -> PhotonState:
    return optics.photon_state({Mode(rail, 0 if rail == RAIL_X else 1): 1.0})


def _table(rows, pick, params: BeamSplitterParams) -> BranchTable:
    rows = tuple((w, s, optics.detection_table(s, params)) for w, s in rows)
    return BranchTable(rows, pick)


@lru_cache(maxsize=1024)
def branches(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> BranchTable:
    """The strategy's branch table for an encoded `bit`."""
    if isinstance(strategy, BlindGuessOnTime):
        # one fair coin picks the resent encoding; the real photon is kept
        rows = [(0.5, optics.encode(g, params)) for g in (0, 1)]
        return _table(rows, lambda rng: int(rng.integers(2)), params)
    if isinstance(strategy, FullMeasureLate):
        late = optics.delay_apply(optics.encode(bit, params), RAIL_X, 1)
        resent = optics.delay_apply(late, RAIL_Y, 1)
    elif isinstance(strategy, SingleChannel):
        rail = min(
            RAILS, key=lambda r: (optics.flag_probability(_single_packet(r), params, bit), r)
        )
        resent = _single_packet(rail)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return _table([(1.0, resent)], lambda rng: 0, params)


def detection_prob(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> float:
    """Exact probability the sender's check flags this photon: the
    weighted sum of the branches' flag probabilities."""
    return sum(
        w * optics.flag_probability(resent, params, bit)
        for w, resent, _ in branches(strategy, bit, params).branches
    )


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
    leaves vacuum, which `optics.flag_probability` flags with probability 1.
    With s_b the forwarded probability under bit b, the bit-averaged
    detection is 1 - (s_0 (1 - flag_Y(0)) + s_1 (1 - flag_Y(1))) / 2 >= 1/2.
    """
    return min(closed_form_strategies(), key=lambda s: average_detection_prob(s, params))


def strategy_table_rows(reflectivities) -> list[dict]:
    """Rows (strategy, R, bit, detection_prob) for the exported table."""
    rows = []
    for R in reflectivities:
        params = BeamSplitterParams(R=R, symmetric_ok=True)
        for s in closed_form_strategies():
            for bit in (0, 1):
                p = detection_prob(s, bit, params)
                rows.append({"strategy": strategy_name(s), "R": R, "bit": bit, "detection_prob": p})
    return rows
