"""The array optics and the strategy outcome tables against the dict-backed
oracles in `optics_oracles`: the same floats and the same random draws."""

import numpy as np
import pytest

import optics_oracles as oracle
from mzqbc import optics, strategies
from mzqbc.optics import MAX_BIN, RAILS, SHAPE, BeamSplitterParams
from mzqbc.strategies import BlindGuessOnTime, FullMeasureLate, SingleChannel

R_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
CLOSED_FORMS = [
    BlindGuessOnTime(),
    FullMeasureLate(),
    SingleChannel(),
]


def as_dict(state):
    """An array state's nonzero amplitudes by oracle mode."""
    return {
        oracle.Mode(RAILS[i], int(b)): complex(state[i, b]) for i, b in zip(*np.nonzero(state))
    }


def random_state_pair(rng):
    """The same random normalized state as an array state and a dict one."""
    amps = rng.normal(size=SHAPE) + 1j * rng.normal(size=SHAPE)
    amps[rng.random(SHAPE) < 0.5] = 0
    amps[0, MAX_BIN] = 0  # the measurement delays rail X by one bin
    amps[1, 1] = 1.0
    amps /= np.linalg.norm(amps)
    return amps, oracle.PhotonState(as_dict(amps))


@pytest.mark.parametrize("seed", range(4))
def test_detection_distribution_matches_dict_optics(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        state, ref = random_state_pair(rng)
        bs = BeamSplitterParams(R=float(rng.uniform(0.05, 0.95)))
        theta = float(rng.uniform(0, 2 * np.pi))
        pairs = [
            (state, ref),
            (optics.phase_apply(state, "X", theta), oracle.phase_apply(ref, "X", theta)),
            (optics.bs_apply(state, 2, bs), oracle.bs_apply(ref, 2, bs)),
            (optics.delay_apply(state, "Y", 0), oracle.delay_apply(ref, "Y", 0)),
        ]
        for new, old in pairs:
            table = optics.detection_table(new, bs)
            dist = oracle.detection_distribution(old, bs)
            assert oracle.table_distribution(table) == dist
            # the same uniforms pick the same events
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            picks = optics.pick_events(optics.running_sums(table), rng_new.random(20))
            got = [optics.EVENTS[i] for i in picks.tolist()]
            assert got == [oracle.sample_event(dist, rng_old) for _ in range(20)]


@pytest.mark.parametrize("R", R_GRID)
def test_encode_matches_dict_optics(R):
    bs = BeamSplitterParams(R)
    for bit in (0, 1):
        assert as_dict(optics.encode(bit, bs)) == oracle.encode(bit, bs).amps


@pytest.mark.parametrize("R", R_GRID)
@pytest.mark.parametrize("bit", [0, 1])
def test_closed_form_detection_prob_equals_oracle_exactly(R, bit):
    bs = BeamSplitterParams(R)
    for strategy in CLOSED_FORMS:
        assert strategies.detection_prob(strategy, bit, bs) == oracle.detection_prob(
            strategy, bit, bs
        )


def assert_same_state(new, old):
    assert as_dict(new) == old.amps
    assert old.absorbed == 0.0


@pytest.mark.parametrize("R", R_GRID)
@pytest.mark.parametrize("bit", [0, 1])
def test_outcome_table_is_the_dict_mixture(R, bit):
    bs = BeamSplitterParams(R)
    honest = oracle.detection_distribution(oracle.encode(bit, bs), bs)
    for strategy in CLOSED_FORMS:
        tables, _ = strategies.outcome_tables(strategy, bs)
        assert oracle.table_distribution(tables[0, bit]) == honest
        mixed = oracle.intercept_detection(strategy, bit, bs)
        assert oracle.table_distribution(tables[1, bit]) == mixed
        assert np.cumsum(tables[1, bit])[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("strategy", CLOSED_FORMS, ids=strategies.strategy_name)
def test_draw_for_draw_equal_to_oracle(strategy):
    bs = BeamSplitterParams(R=0.3)
    bits = np.random.default_rng(99).integers(0, 2, size=2000)
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    for bit in bits.tolist():
        ref = oracle.apply_strategy(strategy, oracle.encode(bit, bs), bs, np.random.default_rng(0))
        assert ref.learned_bit == bit
        weighted = strategies.resent(strategy, bit, bs)
        if isinstance(strategy, BlindGuessOnTime):
            assert [w for w, _ in weighted] == [0.5, 0.5]
            for g, (_, state) in enumerate(weighted):
                assert_same_state(state, oracle.encode(g, bs))
        else:
            [(w, state)] = weighted
            assert w == 1.0
            assert_same_state(state, ref.resent)
        # one uniform per photon picks the event from the mixed table
        _, sums = strategies.outcome_tables(strategy, bs)
        ev = optics.EVENTS[int(optics.pick_events(sums[1, bit], np.array(rng_new.random())))]
        assert ev == oracle.sample_event(oracle.intercept_detection(strategy, bit, bs), rng_old)
    assert rng_new.random() == rng_old.random()


class _Uniforms:
    """Given uniforms, handed out one per `random()` call like a generator's."""

    def __init__(self, us):
        self._us = iter(us)

    def random(self):
        return next(self._us)


@pytest.mark.parametrize("strategy", CLOSED_FORMS, ids=strategies.strategy_name)
def test_pick_matches_oracle_at_edge_uniforms(strategy):
    # every table of the strategy on a fine R grid, bypassed and
    # intercepted, at the uniforms where a pick can go wrong: 0, each
    # running sum, the total (rounding can leave it below 1), both its
    # float neighbours, and 1
    for k in range(1, 200):
        bs = BeamSplitterParams(k / 200)
        tables, sums = strategies.outcome_tables(strategy, bs)
        for hit in (0, 1):
            for bit in (0, 1):
                run = np.cumsum(tables[hit, bit])
                total = run[-1]
                u = np.concatenate(
                    [[0.0], run, [np.nextafter(total, 0.0), np.nextafter(total, 2.0), 1.0]]
                )
                got = [optics.EVENTS[i] for i in optics.pick_events(sums[hit, bit], u).tolist()]
                dist = (
                    oracle.intercept_detection(strategy, bit, bs)
                    if hit
                    else oracle.detection_distribution(oracle.encode(bit, bs), bs)
                )
                feed = _Uniforms(u.tolist())
                assert got == [oracle.sample_event(dist, feed) for _ in u], (k, hit, bit)


def test_cached_states_are_read_only():
    state = optics.encode(0, BeamSplitterParams(R=0.3))
    with pytest.raises(ValueError):
        state[0, 0] = 1.0
