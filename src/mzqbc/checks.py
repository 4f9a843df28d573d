"""Release checks, shared by `mzqbc verify` and the acceptance suite.

Each check measures one claim of the protocol exactly, or on a fixed grid,
and returns one `Result` per bound: a named measured value and the bound it
must stay under.  Codes, grids, trial counts and bounds are constants here,
so every caller runs the same check; the only input is a generator, for
the checks that draw masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import counterfactual, kernels, operator_model, optics, protocol

R_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
#: Masks drawn per builtin code for the orthogonality check.
MASKS_PER_CODE = 20
#: Probe-chain lengths M, in increasing order.
PROBE_CYCLES = (1, 2, 4, 5, 8, 16, 25, 32, 64, 100, 128)
DEFENDED_CYCLES = 100
DEFENSE_PHASES = 360
#: Slices of the uint32 range whose midpoints the posterior check draws; a
#: power of two puts exactly a quarter of them below t(1/4) and half below
#: t(1/2), so the grid hits 1/3 at f = epsilon = 1/2.
POSTERIOR_SLICES = 1 << 16

EXACT_BOUND = 1e-12
LOSS_AT_100_BOUND = 0.05
DEFENDED_MEAN_DC_BOUND = 0.9
#: The 3-sigma half-width of a 100 000-sample posterior draw at f = eps = 1/2.
POSTERIOR_BOUND = 0.0052


@dataclass(frozen=True)
class Result:
    """One measured value against its bound; it passes while the signed
    margin bound - value is positive."""

    name: str
    value: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def passed(self) -> bool:
        return self.margin > 0

    @property
    def summary(self) -> str:
        return (
            f"{self.name}: value {self.value:.3e}, bound {self.bound:g}, "
            f"margin {self.margin:+.3e}"
        )


def mz_determinism() -> list[Result]:
    """Honest photons reach their expected detector with certainty at every
    splitter ratio: the largest miss probability over R and the bit."""
    worst = 0.0
    for R in R_GRID:
        bs = optics.BeamSplitterParams(R=R)
        for bit in (0, 1):
            table = optics.detection_table(optics.encode(bit, bs), bs)
            worst = max(worst, abs(optics.flag_probability(table, bit)))
    return [Result("mz_determinism.max_miss_probability", worst, EXACT_BOUND)]


def committed_state_orthogonality(rng: np.random.Generator) -> list[Result]:
    """The committed states of bit 0 and bit 1 are exactly orthogonal: the
    largest overlap over random masks r on every builtin code.  With every
    photon intercepted the records hold the whole codeword, so the
    receiver's reduced states are the committed mixtures themselves."""
    worst = 0.0
    for name in codes_mod.BUILTIN_CODES:
        code = codes_mod.builtin_code(name)
        everything = np.ones(code.n, dtype=bool)
        for _ in range(MASKS_PER_CODE):
            r = codes_mod.random_mask(code, rng)
            worst = max(worst, abs(operator_model.reduced_states(code, r, everything)[1]))
    return [Result("committed_state_orthogonality.max_overlap", worst, EXACT_BOUND)]


def probe_chain_convergence() -> list[Result]:
    """The counterfactual probe chain: blocked runs lose less with every
    longer chain, an open chain ends in Dc, and the receiver's per-pass
    phases push the mean Dc below 0.9.  The chain is a closed form, so
    its agreement with the stepped passes is a test against the oracle,
    not a line here."""
    blocked = [counterfactual.blocked_dd_probability(m) for m in PROBE_CYCLES]
    # the loss 1 - Dd must not grow with M
    loss_increase = max(prev - dd for prev, dd in zip(blocked, blocked[1:]))
    loss_at_100 = 1.0 - blocked[PROBE_CYCLES.index(DEFENDED_CYCLES)]
    open_dc = float(counterfactual.probe_chain(DEFENDED_CYCLES, [0.0])[0])
    thetas = [2 * math.pi * i / DEFENSE_PHASES for i in range(DEFENSE_PHASES)]
    defended_dc = counterfactual.probe_chain(DEFENDED_CYCLES, thetas)
    return [
        Result("probe_chain_convergence.max_loss_increase", loss_increase, EXACT_BOUND),
        Result("probe_chain_convergence.loss_at_100", loss_at_100, LOSS_AT_100_BOUND),
        Result("probe_chain_convergence.open_dc_deviation", abs(open_dc - 1.0), EXACT_BOUND),
        Result(
            "probe_chain_convergence.defended_mean_dc",
            float(np.mean(defended_dc)),
            DEFENDED_MEAN_DC_BOUND,
        ),
    ]


def intercept_posterior_oracle() -> list[Result]:
    """The intercept posterior counted on a midpoint grid of one photon's
    uint32 draws, by the kernel that counts the binding game, against its
    closed form: among draws with no mismatch, the share intercepted."""
    f = eps = 0.5
    step = (1 << 32) // POSTERIOR_SLICES
    u = np.arange(step // 2, 1 << 32, step, dtype=np.uint32)[:, None]
    proceed, proceed_accept, _, _ = kernels.binding_counts(
        u, kernels.uint32_threshold(f), kernels.uint32_threshold(f * eps), np.array([0]), 1
    ).tolist()
    posterior = (proceed - proceed_accept) / proceed
    dev = abs(posterior - protocol.intercept_posterior(f, eps))
    return [Result("intercept_posterior_oracle.grid_deviation", dev, POSTERIOR_BOUND)]
