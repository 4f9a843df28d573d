"""The array optics and the strategy outcome tables against the dict-backed
oracles in `optics_oracles`: the same floats and the same random draws."""

import numpy as np
import pytest

import optics_oracles as oracle
from mzqbc import codes, optics, protocol, strategies
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
            breaks, table_picks = optics.pick_lookup(table)
            picks = table_picks[0, breaks.searchsorted(rng_new.random(20), "right")]
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
        tables = strategies.outcome_tables(strategy, bs)[0]
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
        _, breaks, picks = strategies.outcome_tables(strategy, bs)
        ev = optics.EVENTS[picks[2 + bit, breaks.searchsorted(rng_new.random(), "right")]]
        assert ev == oracle.sample_event(oracle.intercept_detection(strategy, bit, bs), rng_old)
    assert rng_new.random() == rng_old.random()


class _Uniforms:
    """Given uniforms, handed out one per `random()` call like a generator's
    (an array per call when given arrays); every other draw comes from
    `rng`."""

    def __init__(self, us, rng=None):
        self._us = iter(us)
        self._rng = rng

    def random(self, size=None):
        return next(self._us)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("strategy", CLOSED_FORMS, ids=strategies.strategy_name)
def test_pick_matches_oracle_at_edge_uniforms(strategy):
    # every table of the strategy on a fine R grid, bypassed and
    # intercepted, at the uniforms where a pick can go wrong: 0, each
    # running sum (the last is the total, which rounding can leave below
    # 1) and both its float neighbours, and 1
    for k in range(1, 200):
        bs = BeamSplitterParams(k / 200)
        tables, breaks, picks = strategies.outcome_tables(strategy, bs)
        for hit in (0, 1):
            for bit in (0, 1):
                run = np.cumsum(tables[hit, bit])
                u = np.concatenate(
                    [[0.0], run, np.nextafter(run, 0.0), np.nextafter(run, 2.0), [1.0]]
                )
                j = breaks.searchsorted(u, "right")
                got = [optics.EVENTS[i] for i in picks[2 * hit + bit, j].tolist()]
                dist = (
                    oracle.intercept_detection(strategy, bit, bs)
                    if hit
                    else oracle.detection_distribution(oracle.encode(bit, bs), bs)
                )
                feed = _Uniforms(u.tolist())
                assert got == [oracle.sample_event(dist, feed) for _ in u], (k, hit, bit)


@pytest.mark.parametrize("strategy", CLOSED_FORMS, ids=strategies.strategy_name)
def test_run_commit_picks_match_gather_oracle_at_edge_uniforms(strategy):
    # whole Golay sessions whose photons all draw one edge uniform: 0, each
    # running sum of the four tables and both its float neighbours, and the
    # last double below 1.  Half the photons are intercepted, and sessions
    # repeat until each uniform has met all four (intercepted, bit) rows.
    code = codes.golay_24_12()
    r = codes.random_mask(code, np.random.default_rng(0))
    half = np.resize([0.25, 0.75], code.n)  # intercepted iff below f
    rng = np.random.default_rng(17)
    for R in R_GRID:
        params = protocol.ProtocolParams(code=code, r=r, R=R, f=0.5, epsilon=0.5)
        tables = strategies.outcome_tables(strategy, params.bs)[0]
        sums = optics.running_sums(tables).reshape(4, -1)
        for u in oracle.edge_uniforms(tables).tolist():
            seen = set()
            for session in range(40):
                alice = protocol.HonestAlice(session % 2)
                feed = _Uniforms([np.roll(half, session), np.full(code.n, u)], rng)
                bob = protocol.HonestBob(f=0.5, strategy=strategy)
                t = protocol.run_commit(alice, bob, params, feed)
                rows = 2 * (np.array(t.modes) == protocol.INTERCEPT) + t.codeword
                want = oracle.pick_events(sums[rows], np.full(code.n, u))
                assert t.alice_events == [optics.EVENTS[i] for i in want.tolist()], (R, u)
                seen.update(rows.tolist())
                if len(seen) == 4:
                    break
            assert len(seen) == 4


def test_cached_states_are_read_only():
    state = optics.encode(0, BeamSplitterParams(R=0.3))
    with pytest.raises(ValueError):
        state[0, 0] = 1.0
