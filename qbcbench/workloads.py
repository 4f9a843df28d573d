"""The benchmark's three workloads.

Each workload builds its inputs from the seed, then runs rounds: a round
is a fixed list of steps, and the benchmark times every step.  Every
operation's output is checked against `oracles` or against a property the
method guarantees; checks accumulate over the rounds and are judged once
at the end, so statistical tolerances tighten as the run grows.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from functools import partial
from pathlib import Path

import numpy as np

import oracles
from mzqbc import cli, codes, counterfactual, protocol, strategies

CODE_NAMES = ("extended_hamming", "golay")
STRATEGIES = {
    "blind_guess_on_time": strategies.BlindGuessOnTime(),
    "single_channel": strategies.SingleChannel(),
    "full_measure_late": strategies.FullMeasureLate(),
}
R_CHOICES = (0.2, 0.3, 0.4, 0.6, 0.7, 0.8)
F_INTERCEPT = 0.25
PROBE_CYCLES = 100


def _commit_mask(code: codes.LinearCode, rng: np.random.Generator) -> np.ndarray:
    """A random parity mask r on which the code's parity is not constant."""
    while True:
        r = rng.integers(0, 2, size=code.n).astype(np.uint8)
        if ((code.generator @ r) % 2).any():
            return r


class Workload:
    """Inputs, the steps of one round, and the checks of one workload."""

    name = ""
    #: the parts of the reference load (see reference.py) that match this work
    REFERENCE: tuple[str, ...] = ("python",)

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.work: dict[str, float] = {}

    def steps(self) -> list[tuple[str, callable]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy caches with one small pass over every operation."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Failed checks, as readable lines; empty when all outputs hold."""
        raise NotImplementedError

    def _attempt(self, op, *args, **kwargs):
        """One operation: counted, and counted as failed if it raises."""
        self.attempted += 1
        try:
            return op(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(op, '__name__', op)}: {exc!r}")
            return None

    def _count(self, key: str, value: float) -> None:
        self.work[key] = self.work.get(key, 0) + value


# --- photon_sessions ------------------------------------------------------------

class PhotonSessions(Workload):
    """Commit and unveil sessions photon by photon through the exact optics.

    Per code, one round runs every case below `SESSIONS[code]` times:
    an honest receiver at f = 0 and at f = 0.25, partial intercept of n/4
    positions and full intercept, each intercepting receiver under all
    three resend strategies, and the midpoint cheat against a receiver at
    f = 0.25.  The probe attack runs with the defence off and on.
    """

    name = "photon_sessions"
    SESSIONS = {"extended_hamming": 6, "golay": 2}
    ATTACK_SESSIONS = 20

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.R = float(self.rng.choice(R_CHOICES))
        self.params = {}
        self.cases = {}
        for name in CODE_NAMES:
            code = codes.builtin_code(name)
            params = protocol.ProtocolParams(
                code=code, r=_commit_mask(code, self.rng), R=self.R, f=F_INTERCEPT
            )
            self.params[name] = params
            cases = [("honest_f0", protocol.HonestBob(f=0.0))]
            for strategy in STRATEGIES.values():
                cases += [
                    ("intercept", protocol.HonestBob(f=F_INTERCEPT, strategy=strategy)),
                    ("intercept", protocol.PartialInterceptBob(m=code.n // 4, strategy=strategy)),
                    ("intercept", protocol.FullInterceptBob(strategy=strategy)),
                ]
            cases.append(("cheat", protocol.HonestBob(f=F_INTERCEPT)))
            self.cases[name] = cases
        self.flags: dict[tuple[str, int], list[int]] = {}
        self.violations: dict[str, int] = {}
        self.attack: dict[bool, list[tuple[float, int]]] = {False: [], True: []}
        self.attack_modes = {False: [0, 0], True: [0, 0]}

    def steps(self):
        sessions = [(name, partial(self._sessions, name, self.SESSIONS[name])) for name in CODE_NAMES]
        return sessions + [("attack", partial(self._attacks, self.ATTACK_SESSIONS))]

    def warm_up(self):
        for name in CODE_NAMES:
            self._sessions(name, 1)
        self._attacks(1)

    def _violate(self, what: str) -> None:
        self.violations[what] = self.violations.get(what, 0) + 1

    def _sessions(self, name: str, repeats: int) -> None:
        params = self.params[name]
        for _ in range(repeats):
            for kind, bob in self.cases[name]:
                if kind == "cheat":
                    alice = protocol.MidpointCheatAlice()
                else:
                    alice = protocol.HonestAlice(int(self.rng.integers(2)))
                self._attempt(self._session, kind, alice, bob, params)
                self._count("photons", params.n)

    def _session(self, kind, alice, bob, params) -> None:
        t = protocol.run_commit(alice, bob, params, self.rng)
        if kind == "cheat":
            target = t.cheat_target
            b = int((target.astype(int) @ params.r.astype(int)) % 2)
            verdict = protocol.run_unveil(t, protocol.Announcement(b=b, c=target))
            flipped = np.flatnonzero(t.codeword != target)
            caught = any(t.modes[i] == protocol.INTERCEPT for i in flipped)
            if (verdict == protocol.ACCEPT) == caught:
                self._violate("cheat accepted iff no flipped position was intercepted")
            return
        verdict = protocol.run_unveil(t, protocol.honest_announcement(t))
        if verdict != protocol.ACCEPT:
            self._violate("honest unveil accepted")
        if kind == "honest_f0" and (t.n_mismatch != 0 or t.alice_verdict != protocol.CONTINUE):
            self._violate("honest f=0 session has no mismatch and continues")
        strategy = strategies.strategy_name(bob.strategy)
        for i, mode in enumerate(t.modes):
            if mode != protocol.INTERCEPT:
                continue
            bit = int(t.codeword[i])
            ev = t.alice_events[i]
            tally = self.flags.setdefault((strategy, bit), [0, 0])
            tally[0] += int(ev.detector != bit or ev.bin != 1)
            tally[1] += 1

    def _attacks(self, sessions: int) -> None:
        params = self.params["extended_hamming"]
        fbs = counterfactual.FbsConfig(cycles=PROBE_CYCLES)
        for defence in (False, True):
            res = self._attempt(
                counterfactual.attack_session, params, defence, fbs, self.rng, sessions=sessions
            )
            self._count("photons", sessions * params.n)
            if res is None:
                continue
            total = sessions * params.n
            self.attack[defence].append((res["mean_Dc_bypass"], total))
            self.attack_modes[defence][0] += round(res["mode_accuracy"] * total)
            self.attack_modes[defence][1] += total

    def check(self):
        bad = [f"{what}: {count} sessions violate it" for what, count in self.violations.items()]
        for name, params in self.params.items():
            if abs(params.epsilon - min(self.R, 1 - self.R)) > 1e-12:
                bad.append(f"{name}: epsilon {params.epsilon} != min(R, T)")
        exact = oracles.detection_probabilities(self.R)
        for (strategy, bit), (flagged, total) in sorted(self.flags.items()):
            p = exact[strategy][bit]
            if abs(flagged / total - p) > oracles.binomial_tolerance(p, total):
                bad.append(f"flagged fraction {strategy}/{bit}: {flagged}/{total} vs {p:.6f}")
        if len(self.flags) != 2 * len(STRATEGIES):
            bad.append(f"flag tallies cover {sorted(self.flags)} only")
        bad += check_attack(self.attack, self.attack_modes, F_INTERCEPT)
        return bad


def check_attack(calls, modes, f: float) -> list[str]:
    """Probe attack: without the defence the probe reads every mode; with
    it, P(Dc | bypass) and the mode accuracy match the phase-averaged oracle.

    `calls[defence]` holds (mean P(Dc | bypass), photons) per call and
    `modes[defence]` the pooled [correctly read modes, photons]."""
    bad = []
    undefended = [dc for dc, _ in calls[False]]
    if any(dc < 1.0 - 1e-9 for dc in undefended):
        bad.append(f"undefended P(Dc | bypass) below 1: {min(undefended)}")
    if modes[False][0] != modes[False][1]:
        bad.append(f"undefended probe misread {modes[False][1] - modes[False][0]} modes")
    mean, std = oracles.probe_dc_defended(PROBE_CYCLES)
    if calls[True]:
        # a call averages over at least half its expected bypass photons
        inverse = sum(1.0 / max(1.0, photons * (1 - f) / 2) for _, photons in calls[True])
        tol = 6 * std * math.sqrt(inverse) / len(calls[True]) + 1e-12
        got = float(np.mean([dc for dc, _ in calls[True]]))
        if abs(got - mean) > tol:
            bad.append(f"defended P(Dc | bypass) {got:.5f} vs oracle {mean:.5f} +- {tol:.5f}")
        p = f + (1 - f) * mean
        hits, total = modes[True]
        if abs(hits / total - p) > oracles.binomial_tolerance(p, total):
            bad.append(f"defended mode accuracy {hits}/{total} vs {p:.5f}")
    return bad


# --- mc_games ---------------------------------------------------------------------

class McGames(Workload):
    """Monte-Carlo binding and concealing games through the kernels.

    Per code a round runs the binding game at two intercept probabilities
    and the concealing game at two intercept counts.  The Golay concealing
    calls stay far below the 16384-trial block: the kernel broadcasts a
    (trials, 4096, 24) boolean tensor, about 190 MB per 1000 trials.
    """

    name = "mc_games"
    REFERENCE = ("python", "alloc")
    F_GRID = (0.1, 0.3)
    M_GRID = {"extended_hamming": (2, 4), "golay": (4, 6)}
    BINDING_TRIALS = {"extended_hamming": 500_000, "golay": 200_000}
    CONCEALING_TRIALS = {"extended_hamming": 15_000, "golay": 300}

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        R = float(self.rng.choice(R_CHOICES))
        self.params = {}
        for name in CODE_NAMES:
            code = codes.builtin_code(name)
            # epsilon is given, so building the params never runs the optics
            self.params[name] = protocol.ProtocolParams(
                code=code, r=_commit_mask(code, self.rng), R=R, f=self.F_GRID[0],
                epsilon=min(R, 1 - R),
            )
        self.binding: dict[tuple[str, float], list] = {}
        self.concealing: dict[tuple[str, int], list] = {}

    def _seeded(self, name: str, **changes) -> protocol.ProtocolParams:
        seed = int(self.rng.integers(2**63))
        return dataclasses.replace(self.params[name], seed=seed, **changes)

    def steps(self):
        out = []
        for name in CODE_NAMES:
            for f in self.F_GRID:
                out.append((f"binding/{name}/f={f}", partial(self._binding, name, f, self.BINDING_TRIALS[name])))
            for m in self.M_GRID[name]:
                trials = self.CONCEALING_TRIALS[name]
                out.append((f"concealing/{name}/m={m}", partial(self._concealing, name, m, trials)))
        return out

    def warm_up(self):
        for name in CODE_NAMES:
            self._binding(name, self.F_GRID[0], 64)
            self._concealing(name, self.M_GRID[name][0], 16)

    def _binding(self, name: str, f: float, trials: int) -> None:
        res = self._attempt(
            protocol.run_binding_experiment, self._seeded(name, f=f), trials, threads=1
        )
        self._count("binding_trials", trials)
        if res is not None:
            self.binding.setdefault((name, f), []).append(res)

    def _concealing(self, name: str, m: int, trials: int) -> None:
        res = self._attempt(
            protocol.run_concealing_experiment, self._seeded(name), m, trials, threads=1
        )
        self._count("concealing_trials", trials)
        if res is not None:
            self.concealing.setdefault((name, m), []).append(res)

    def check(self):
        bad = []
        for (name, f), results in sorted(self.binding.items()):
            params = self.params[name]
            eps, n = params.epsilon, params.n
            d = oracles.min_distance(params.code.generator)
            flips = math.ceil(d / 2)
            p = oracles.intercept_posterior(f, eps)
            trials = sum(r["trials"] for r in results)
            proceed = sum(r["proceed_trials"] for r in results)
            escaped = sum(round(r["accept_rate_among_proceed"] * r["proceed_trials"]) for r in results)
            accepted = sum(round(r["accept_rate_unconditioned"] * r["trials"]) for r in results)
            aborted = sum(round(r["abort_frequency"] * r["trials"]) for r in results)
            if any(r["flips"] != flips for r in results):
                bad.append(f"binding {name}: cheat flips {results[0]['flips']} != ceil(d/2) = {flips}")
            expect = [
                ("escape among proceeding", escaped, proceed, oracles.escape_probability(p, flips)),
                ("unconditioned accept", accepted, trials, (1 - f) ** flips),
                ("abort", aborted, trials, oracles.abort_probability(n, f * eps, eps, n, d)),
            ]
            for what, hits, total, q in expect:
                if abs(hits / total - q) > oracles.binomial_tolerance(q, total):
                    bad.append(f"binding {name} f={f} {what}: {hits}/{total} vs {q:.6f}")
        for (name, m), results in sorted(self.concealing.items()):
            params = self.params[name]
            eps, n = params.epsilon, params.n
            d = oracles.min_distance(params.code.generator)
            trials = sum(r["trials"] for r in results)
            aborted = sum(round(r["abort_frequency"] * r["trials"]) for r in results)
            q = oracles.abort_probability(m, eps, eps, n, d)
            if abs(aborted / trials - q) > oracles.binomial_tolerance(q, trials):
                bad.append(f"concealing {name} m={m} abort: {aborted}/{trials} vs {q:.6f}")
            post = oracles.concealing_posterior(params.code.generator, params.r, m)
            # per trial the posterior is 1/2 + X/2 with X ~ Bernoulli(2 post - 1)
            tol = 0.5 * oracles.binomial_tolerance(2 * post - 1, trials)
            for key in ("mean_posterior_true_bit", "mean_max_posterior"):
                got = sum(r[key] * r["trials"] for r in results) / trials
                if abs(got - post) > tol:
                    bad.append(f"concealing {name} m={m} {key}: {got:.6f} vs {post:.6f}")
        return bad


# --- reports ----------------------------------------------------------------------

class Reports(Workload):
    """The `nogo`, `strategies` (with a causal search) and `counterfactual`
    subcommands, in process through `mzqbc.cli.main`.

    `verify` is left out: its intercept-posterior check is a 3-sigma test
    on a fresh draw, so it exits 1 on about 0.3 % of seeds
    (`mzqbc verify --seed 1758924355` is one), and a benchmark operation
    must not fail on some seeds only.
    """

    name = "reports"
    REFERENCE = ("alloc",)
    COUNTERFACTUAL_SESSIONS = 100
    CONFIGS = {
        "nogo": "builtin_code = repetition\ntrials = 20\n",
        "strategies": "search_trials = 20\nancilla_dim = 2\n",
        "counterfactual": f"builtin_code = extended_hamming\nf = {F_INTERCEPT}\n"
        f"sessions = {COUNTERFACTUAL_SESSIONS}\nM = {PROBE_CYCLES}\n",
    }

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.paths = {}
        for name, text in self.CONFIGS.items():
            path = out_dir / f"{name}.cfg"
            path.write_text(text)
            self.paths[name] = path
        self.violations: list[str] = []
        self.attack: dict[bool, list[tuple[float, int]]] = {False: [], True: []}
        self.attack_modes = {False: [0, 0], True: [0, 0]}

    def steps(self):
        return [
            ("nogo", self._nogo),
            ("strategies", self._strategies),
            ("counterfactual", self._counterfactual),
        ]

    def warm_up(self):
        self._cli(["strategies", "--out", str(self.out_dir / "warm.csv")])

    def _cli(self, argv: list[str]) -> str | None:
        """Run one subcommand; its stdout, or None when it failed."""
        argv = argv + ["--seed", str(int(self.rng.integers(2**31))), "--threads", "1"]

        def subcommand():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"mzqbc {argv[0]} exited {rc}: {buf.getvalue()[-300:]}")
            return buf.getvalue()

        return self._attempt(subcommand)

    def _run_with_config(self, name: str, suffix: str) -> Path | None:
        out = self.out_dir / f"{name}.{suffix}"
        text = self._cli([name, "--config", str(self.paths[name]), "--out", str(out)])
        return None if text is None else out

    def _nogo(self):
        out = self._run_with_config("nogo", "json")
        if out is None:
            return
        doc = json.loads(out.read_text())
        for key in ("max_deviation", "max_overlap_deviation"):
            if not doc[key] <= 1e-9:
                self.violations.append(f"nogo {key} {doc[key]:.3e} > 1e-9")

    def _strategies(self):
        out = self._run_with_config("strategies", "csv")
        if out is None:
            return
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        search: dict[float, list[float]] = {}
        for row in rows:
            R, p = float(row["R"]), float(row["detection_prob"])
            if row["strategy"] == "search_best":
                search.setdefault(R, []).append(p)
            elif abs(p - oracles.closed_form_detection(R)[row["strategy"]]) > 1e-12:
                self.violations.append(f"strategies row {row} is not the closed form")
        for R, probs in search.items():
            if sum(probs) / len(probs) > min(R, 1 - R) + 1e-12:
                self.violations.append(f"search at R={R} found {probs}, worse than min(R, T)")
        if len(search) != 9:
            self.violations.append(f"search covered R = {sorted(search)}")

    def _counterfactual(self):
        out = self._run_with_config("counterfactual", "json")
        if out is None:
            return
        doc = json.loads(out.read_text())
        for key, defence in (("defense_off", False), ("defense_on", True)):
            rep = doc["reports"][key]
            total = rep["sessions"] * rep["n"]
            self.attack[defence].append((rep["mean_Dc_bypass"], total))
            self._count("photons", total)
            self.attack_modes[defence][0] += round(rep["mode_accuracy"] * total)
            self.attack_modes[defence][1] += total

    def check(self):
        return self.violations + check_attack(self.attack, self.attack_modes, F_INTERCEPT)


WORKLOADS = {w.name: w for w in (PhotonSessions, McGames, Reports)}
