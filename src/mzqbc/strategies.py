"""The receiver's intercept-mode resend strategies and their exact
detection probabilities.

An intercepting receiver must put something back on the channels at the
honest times (X content in bin 0, Y content in bin 1) although the photon
he is trying to read only finishes arriving in bin 1.  Each strategy here
resolves that tension differently.  `branches(strategy, bit, params)` lists
its outcomes, built once: `apply_strategy` samples one, and `detection_prob`,
the exact chance that the sender's check flags the resent photon, sums
weight x flag over them.  The minimum over a strategy family is the
detection floor used by the protocol's estimator; `floor_strategy` proves
that no causal coupling with certain decode goes below the closed-form
minimum, so that minimum is exact, not a search's upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import optics
from .optics import RAIL_X, RAIL_Y, RAILS, VACUUM, BeamSplitterParams, Mode, PhotonState

UNITARY_TOL = 1e-10
#: declared-decode certainty at/above which a strategy "knows" the bit
CERTAINTY_TOL = 1e-9


@dataclass(frozen=True)
class InterceptRecord:
    """What the receiver ends up with for one intercepted photon.

    learned_bit is the exact decode when the strategy completes a full
    measurement in the encoding basis; None means unknown.
    """

    learned_bit: int | None
    resent: PhotonState


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
    """Send the whole resent amplitude down one rail at the honest time.

    rails maps the learned bit to the rail used; None picks the rail with
    the smaller flag probability per bit (the optimal play in this class).
    """

    rails: tuple[str, str] | None = None
    label: ClassVar[str] = "single_channel"


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
    Its outputs and branch tables are cached on the instance, since
    ndarray fields cannot key a global cache.
    """

    u1: np.ndarray
    u2: np.ndarray
    ancilla_dim: int
    label: str = field(default="general_causal", compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.ancilla_dim
        for name, u in (("u1", self.u1), ("u2", self.u2)):
            u = np.asarray(u, dtype=complex)
            if u.shape != (2 * a, 2 * a):
                raise ValueError(f"{name} must be {2*a}x{2*a}")
            if np.max(np.abs(u.conj().T @ u - np.eye(2 * a))) > UNITARY_TOL:
                raise ValueError(f"{name} is not unitary")
            object.__setattr__(self, name, u)


ResendStrategy = BlindGuessOnTime | FullMeasureLate | SingleChannel | GeneralCausal

_POS_X, _POS_Y, _POS_KEPT = 0, 1, 2


class BranchTable(NamedTuple):
    """(weight, record, detection table of record.resent) per outcome for
    one encoded bit; `pick` draws an index with the strategy's own draws."""

    branches: tuple[tuple[float, InterceptRecord, optics.EventTable], ...]
    pick: Callable[[np.random.Generator], int]


def strategy_name(strategy: ResendStrategy) -> str:
    return strategy.label


def _single_packet(rail: str) -> PhotonState:
    return optics.photon_state({Mode(rail, 0 if rail == RAIL_X else 1): 1.0})


def decode_incoming(incoming: PhotonState, params: BeamSplitterParams) -> int:
    """Identify which encoded bit `incoming` is; error if it is neither."""
    refs = (optics.encode(0, params), optics.encode(1, params))
    if incoming in refs:  # one of the shared encoded states
        return refs.index(incoming)
    for b, ref in enumerate(refs):
        same_modes = np.array_equal(incoming.amps != 0, ref.amps != 0)
        if same_modes and np.abs(incoming.amps - ref.amps).max() < 1e-9:
            return b
    raise ValueError("incoming state is not a valid encoded photon")


def _embed_block(u: np.ndarray, positions: tuple[int, int], a: int) -> np.ndarray:
    """Embed a 2a x 2a unitary acting on two photon positions x ancilla
    into the full 3a-dimensional joint space (identity elsewhere)."""
    full = np.eye(3 * a, dtype=complex)
    idx = [p * a + j for p in positions for j in range(a)]
    full[np.ix_(idx, idx)] = u
    return full


def _general_causal_output(
    strategy: GeneralCausal, bit: int, params: BeamSplitterParams
) -> np.ndarray:
    """Joint (position x ancilla) amplitudes after both couplings, as a
    3 x a array indexed [position, ancilla]."""
    key = ("output", bit, params)
    if key not in strategy._cache:
        a = strategy.ancilla_dim
        enc = optics.encode(bit, params)
        psi = np.zeros(3 * a, dtype=complex)
        psi[_POS_X * a + 0] = enc.amp(RAIL_X, 0)
        psi[_POS_Y * a + 0] = enc.amp(RAIL_Y, 1)
        psi = _embed_block(strategy.u1, (_POS_X, _POS_KEPT), a) @ psi
        psi = _embed_block(strategy.u2, (_POS_Y, _POS_KEPT), a) @ psi
        strategy._cache[key] = psi.reshape(3, a)
    return strategy._cache[key]


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


def decode_certainty(strategy: ResendStrategy, params: BeamSplitterParams) -> float:
    """Probability the declared decode returns the true bit, averaged over
    a uniform bit.  1.0 means the strategy always learns the bit."""
    if not isinstance(strategy, GeneralCausal):
        return 1.0  # the closed-form strategies measure the real photon
    d0 = outcome_distribution(strategy, 0, params)
    d1 = outcome_distribution(strategy, 1, params)
    overlap = sum(min(d0.get(o, 0.0), d1.get(o, 0.0)) for o in set(d0) | set(d1))
    return 1.0 - 0.5 * overlap


def _table(rows, pick, params: BeamSplitterParams) -> BranchTable:
    rows = tuple((w, rec, optics.detection_table(rec.resent, params)) for w, rec in rows)
    return BranchTable(rows, pick)


@lru_cache(maxsize=1024)
def _closed_form_branches(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> BranchTable:
    if isinstance(strategy, BlindGuessOnTime):
        # one fair coin picks the resent encoding; the real photon is kept
        resent = [optics.encode(g, params) for g in (0, 1)]
        rows = [(0.5, InterceptRecord(bit, s)) for s in resent]
        return _table(rows, lambda rng: int(rng.integers(2)), params)
    if isinstance(strategy, FullMeasureLate):
        late = optics.delay_apply(optics.encode(bit, params), RAIL_X, 1)
        resent = optics.delay_apply(late, RAIL_Y, 1)
    elif isinstance(strategy, SingleChannel):
        rail = strategy.rails[bit] if strategy.rails is not None else min(
            RAILS, key=lambda r: (optics.flag_probability(_single_packet(r), params, bit), r)
        )
        resent = _single_packet(rail)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return _table([(1.0, InterceptRecord(bit, resent))], lambda rng: 0, params)


def _general_causal_branches(
    strategy: GeneralCausal, bit: int, params: BeamSplitterParams
) -> BranchTable:
    """One branch per declared outcome, (sent, j) then (kept, j), drawn by
    one `rng.choice`.  A forwarded photon is renormalized over its X and Y
    packets; a kept one leaves vacuum."""
    out = _general_causal_output(strategy, bit, params)
    mapping = decode_map(strategy, params)
    kept_p = np.abs(out[_POS_KEPT]) ** 2
    sent_p = np.abs(out[_POS_X]) ** 2 + np.abs(out[_POS_Y]) ** 2
    probs = np.concatenate([sent_p, kept_p])
    probs = probs / probs.sum()
    rows = []
    for o, w in enumerate(probs.tolist()):
        kept, j = divmod(o, strategy.ancilla_dim)
        resent = VACUUM  # also for a forwarded outcome that is never drawn
        if not kept and w:
            x, y = out[_POS_X, j], out[_POS_Y, j]
            norm = np.sqrt(abs(x) ** 2 + abs(y) ** 2)
            resent = optics.photon_state({Mode(RAIL_X, 0): x / norm, Mode(RAIL_Y, 1): y / norm})
        rows.append((w, InterceptRecord(mapping.get((kept, j)), resent)))
    return _table(rows, lambda rng: int(rng.choice(len(probs), p=probs)), params)


def branches(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> BranchTable:
    """The strategy's branch table for an encoded `bit`."""
    if not isinstance(strategy, GeneralCausal):
        return _closed_form_branches(strategy, bit, params)
    key = ("branches", bit, params)
    if key not in strategy._cache:
        strategy._cache[key] = _general_causal_branches(strategy, bit, params)
    return strategy._cache[key]


def apply_strategy(
    strategy: ResendStrategy,
    incoming: PhotonState,
    params: BeamSplitterParams,
    rng: np.random.Generator,
) -> InterceptRecord:
    """One intercepted photon: what goes back out and what was learned."""
    table = branches(strategy, decode_incoming(incoming, params), params)
    return table.branches[table.pick(rng)][1]


def detection_prob(
    strategy: ResendStrategy, bit: int, params: BeamSplitterParams
) -> float:
    """Exact probability the sender's check flags this photon: the
    weighted sum of the branches' flag probabilities."""
    return sum(
        w * optics.flag_probability(rec.resent, params, bit)
        for w, rec, _ in branches(strategy, bit, params).branches
    )


def average_detection_prob(
    strategy: ResendStrategy, params: BeamSplitterParams
) -> float:
    return 0.5 * (detection_prob(strategy, 0, params) + detection_prob(strategy, 1, params))


def closed_form_strategies() -> list[ResendStrategy]:
    return [BlindGuessOnTime(), FullMeasureLate(), SingleChannel()]


def epsilon_lower_bound(
    strategy_set: list[ResendStrategy], params: BeamSplitterParams
) -> float:
    """Family detection floor: min over the set of the bit-averaged exact
    detection probability."""
    if not strategy_set:
        raise ValueError("strategy set must be nonempty")
    return min(average_detection_prob(s, params) for s in strategy_set)


def protocol_epsilon(params: BeamSplitterParams) -> float:
    """Default reference detection rate: the closed-form family minimum at
    this splitting ratio (= min(R, T), from the single-channel strategy)."""
    return epsilon_lower_bound(closed_form_strategies(), params)


def floor_strategy(params: BeamSplitterParams) -> ResendStrategy:
    """The lowest-detection strategy among those that learn the bit with
    certainty: the closed-form family minimum (first in list order on a
    tie), whose bit-averaged detection is min(R, T) <= 1/2.

    No `GeneralCausal` with certain decode (`decode_certainty` >= 1 -
    CERTAINTY_TOL) does better, at any ancilla dimension.  Let x =
    <forwarded X, j| u1 |X, 0>.  Outcome (sent, j) has probability at least
    |a_b|^2 |x_j|^2 under bit b, and the X amplitude a_b is sqrt(R) or
    sqrt(T), never 0, so a certain decode (no outcome possible under both
    bits) forces x = 0.  Then only Y-rail content is forwarded, and a
    Y-only packet is flagged with flag_Y(0) + flag_Y(1) = 1; a kept photon
    leaves vacuum, which `optics.flag_probability` flags with probability 1.
    With s_b the forwarded probability under bit b, the bit-averaged
    detection is 1 - (s_0 (1 - flag_Y(0)) + s_1 (1 - flag_Y(1))) / 2 >= 1/2.
    """
    return min(closed_form_strategies(), key=lambda s: average_detection_prob(s, params))


def strategy_table_rows(
    reflectivities, strategies: list[ResendStrategy] | None = None
) -> list[dict]:
    """Rows (strategy, R, bit, detection_prob) for the exported table."""
    if strategies is None:
        strategies = closed_form_strategies()
    rows = []
    for R in reflectivities:
        params = BeamSplitterParams(R=R, symmetric_ok=True)
        for s in strategies:
            for bit in (0, 1):
                p = detection_prob(s, bit, params)
                rows.append({"strategy": strategy_name(s), "R": R, "bit": bit, "detection_prob": p})
    return rows
