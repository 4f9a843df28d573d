"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints its PASS/FAIL lines (run with `pytest -s` to see them all
even on success).  Criteria 1, 6 and 8 run the release checks of
`mzqbc.checks`, which `mzqbc verify` runs too, and print each measured
value with its bound and margin.  Criterion 7, that nothing the sender
does to the returned qubits alone moves the receiver's state, is a
theorem the library does not compute: it is measured here on Haar
rotations in the Gram-matrix oracle of the operator model, as criteria 3
and 9 run oracles too.  Statistical criteria use 3-sigma binomial
tolerances around closed forms that are themselves verified against
independent oracles in the per-module tests.  Criterion 10, the
comparison with the predecessor scheme, is a definition in README, not a
check: the paper fixes no slot count for the predecessor.
"""

import math
import time

import numpy as np

import operator_oracles
import protocol_oracles
from mzqbc import checks, codes, optics, protocol, strategies

R_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
#: (generator, modes) of criterion 7; r is all ones.
INVARIANCE_CASES = (
    ([[1]], ["intercept"]),
    ([[1, 0], [0, 1]], ["intercept", "bypass"]),
    ([[1, 1, 1]], ["intercept", "bypass", "intercept"]),
    ([[1, 1, 1]], ["intercept", "bypass", "bypass"]),
)
INVARIANCE_TRIALS = 100


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def report_checks(num, results):
    for res in results:
        report(num, res.passed, res.summary)


def make_params(**kw):
    defaults = dict(
        code=codes.extended_hamming_8_4(),
        r=codes.bits_from_string("11100000"),
        R=0.3,
        f=0.5,
        epsilon=0.5,
        seed=20240,
    )
    defaults.update(kw)
    return protocol.ProtocolParams(**defaults)


def test_criterion_1_honest_determinism():
    t0 = time.perf_counter()
    report_checks(1, checks.mz_determinism())
    photons_per_R = 10_000
    clean = True
    for R in R_GRID:
        params = make_params(R=R, f=0.0)
        rng = np.random.default_rng(params.seed)
        sessions = photons_per_R // params.n
        for _ in range(sessions):
            t = protocol.run_commit(
                protocol.HonestAlice(0), protocol.HonestBob(f=0.0), params, rng
            )
            if (
                t.n_mismatch != 0
                or t.alice_verdict != protocol.CONTINUE
                or protocol.run_unveil(t, protocol.honest_announcement(t)) != protocol.ACCEPT
            ):
                clean = False
    elapsed = time.perf_counter() - t0
    report(
        1,
        clean and elapsed < 5.0,
        f"honest runs deterministic ({9 * photons_per_R} photons clean, "
        f"{elapsed:.2f}s < 5s)",
    )


def test_criterion_2_strategy_table():
    cases = [
        (strategies.BlindGuessOnTime(), lambda R: 0.5),
        (strategies.FullMeasureLate(), lambda R: 1.0),
        (strategies.SingleChannel(), lambda R: min(R, 1 - R)),
    ]
    worst_exact = 0.0
    for R in R_GRID:
        bs = optics.BeamSplitterParams(R=R)
        for strategy, closed in cases:
            for bit in (0, 1):
                worst_exact = max(
                    worst_exact,
                    abs(strategies.detection_prob(strategy, bit, bs) - closed(R)),
                )
    mc_ok = True
    details = []
    bs = optics.BeamSplitterParams(R=0.3)
    rng = np.random.default_rng(7)
    n = 100_000
    for strategy, closed in cases:
        p = closed(0.3)
        _, sums = strategies.outcome_tables(strategy, bs)
        for bit in (0, 1):
            # one uniform per photon, picked from the mixed outcome table's
            # running sums as `protocol.run_commit` picks them
            picked = optics.pick_events(sums[1, bit], rng.random(n))
            flags = int(np.count_nonzero(picked != optics.expected_index(bit)))
            tol = max(3 * math.sqrt(p * (1 - p) / n), 1e-9)
            if abs(flags / n - p) > tol:
                mc_ok = False
                details.append(f"{strategies.strategy_name(strategy)}/{bit}")
    ok = worst_exact <= 1e-12 and mc_ok
    report(
        2,
        ok,
        f"strategy detection probs: closed-form dev {worst_exact:.1e} <= 1e-12, "
        f"MC 1e5-sample oracle within 3 sigma{' except ' + ','.join(details) if details else ''}",
    )


def test_criterion_3_intercept_posterior_oracle():
    rng = np.random.default_rng(99)
    res = protocol_oracles.sample_intercept_posterior(0.5, 0.5, 100_000, rng)
    dev = abs(res["empirical_posterior"] - 1 / 3)
    ok = dev <= res["three_sigma"]
    report(
        3,
        ok,
        f"P(intercept | silent) = {res['empirical_posterior']:.5f} vs 1/3 "
        f"(dev {dev:.5f} <= 3 sigma {res['three_sigma']:.5f})",
    )


def test_criterion_4_binding_midpoint_cheat():
    t0 = time.perf_counter()
    rep = protocol.run_binding_experiment(make_params(), trials=100_000)
    elapsed = time.perf_counter() - t0
    dev = abs(rep["accept_rate_among_proceed"] - 4 / 9)
    ok = (
        rep["flips"] == 2
        and abs(rep["predicted_escape"] - 4 / 9) <= 1e-15
        and dev <= rep["three_sigma"]
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"midpoint cheat accept {rep['accept_rate_among_proceed']:.5f} vs 4/9 "
        f"(dev {dev:.5f} <= {rep['three_sigma']:.5f}, {elapsed:.2f}s < 60s)",
    )


def test_criterion_5_concealing_abort():
    rep = protocol.run_concealing_experiment(make_params(), m=8, trials=100_000)
    expected = 1 - 9 / 256
    sigma = math.sqrt(expected * (1 - expected) / 100_000)
    dev = abs(rep["abort_frequency"] - expected)
    ok = dev <= 3 * sigma
    report(
        5,
        ok,
        f"full-intercept abort {rep['abort_frequency']:.5f} vs {expected:.5f} "
        f"(dev {dev:.5f} <= {3 * sigma:.5f})",
    )


def test_criterion_6_committed_state_orthogonality():
    report_checks(6, checks.committed_state_orthogonality(np.random.default_rng(31)))


def test_criterion_7_sender_local_invariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for gen, modes in INVARIANCE_CASES:
        code = codes.code_from_generator(np.array(gen, dtype=np.uint8))
        rep = operator_oracles.gram_local_invariance(
            modes, code, np.ones(code.n, dtype=np.uint8), INVARIANCE_TRIALS, rng
        )
        worst = max(worst, rep["max_deviation"], rep["max_overlap_deviation"])
    res = checks.Result(
        "sender_local_invariance.max_deviation", worst, operator_oracles.INVARIANCE_BOUND
    )
    report_checks(7, [res])


def test_criterion_8_probe_chain():
    report_checks(8, checks.probe_chain_convergence())


def test_criterion_9_global_phase_defense():
    bs = optics.BeamSplitterParams(R=0.3)
    worst = 0.0
    for bit in (0, 1):
        honest = protocol_oracles.table_distribution(
            optics.detection_table(optics.encode(bit, bs), bs)
        )
        for k in range(100):
            theta = 2 * math.pi * k / 100
            dist = protocol_oracles.defense_honest_invariance(bit, theta, bs)
            for ev in set(honest) | set(dist):
                worst = max(worst, abs(dist.get(ev, 0.0) - honest.get(ev, 0.0)))
    ok = worst <= 1e-12
    report(9, ok, f"defense phases leave honest detection within {worst:.1e}")
