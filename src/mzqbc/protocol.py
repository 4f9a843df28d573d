"""The commit/unveil protocol: session state machine, the sender's
mismatch counting and intercept-frequency estimate, and the closed-form
security quantities with their Monte-Carlo experiments.

Commit: the sender draws a codeword c from the parity-b half of an agreed
(n,k,d) code, encodes each bit as a dual-rail photon and measures what
comes back; the receiver, per photon, either bypasses (`BYPASS`) or
intercepts (`INTERCEPT`, with probability f) and resends.  Each
intercepted photon is flagged in the sender's check with probability
epsilon, so she estimates the intercept frequency as n'/(epsilon*n) and
aborts when it reaches 1 - d/n.  Unveil: she announces (b, c); the
receiver checks codeword membership, the parity, and agreement with every
bit he learned while intercepting.  Every resend strategy measures the
real photon, so every strategy learns the sent bit: what he learned is the
sent word at the intercepted positions.

The high-trial experiments draw their randomness with numpy generators,
seed-split into fixed blocks by `util.blocks` so that results do not
depend on the thread count, and feed it to the counting kernels in
`kernels`.  Their per-photon uniforms are 32 bits, two per raw PCG64
output, drawn once per block and compared with the integer thresholds of
`kernels.uint32_threshold`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import codes as codes_mod
from . import kernels, optics, strategies
from .codes import LinearCode, parity, string_from_bits
from .optics import BeamSplitterParams, DetectionEvent
from .strategies import BlindGuessOnTime, ResendStrategy
from .util import blocks

BYPASS = "bypass"
INTERCEPT = "intercept"

CONTINUE = "continue"
ABORT_CHEATING_BOB = "abort_cheating_bob"

ACCEPT = "accept"
REJECT_NOT_CODEWORD = "reject_not_codeword"
REJECT_PARITY = "reject_parity"
REJECT_INTERCEPT_MISMATCH = "reject_intercept_mismatch"

@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters agreed before the commit phase.

    epsilon defaults to the closed-form strategy-family minimum at this R
    (the estimator must be computable by both parties up front).  The
    splitter `bs` is built, and so R checked, whether or not epsilon is
    given.  The values that (code, r, epsilon) fix are derived here once,
    for every session to read:

    - `t`, r's read-only message mask G r^T (`codes.message_mask`), which
      the codeword draw and every span test read;
    - `abort_at`, the fewest mismatches n' whose estimate n'/(epsilon*n)
      reaches `threshold`, in exact arithmetic on the float epsilon: the
      sender aborts iff n' >= epsilon*(n - d).  As 0 < epsilon <= 1 and
      d < n, it lies in 1..n - d;
    - `cheat_pair`, the midpoint cheat's `binding_pair(code, r)` as two
      read-only arrays, or None when d < 2 leaves no midpoint.
    """

    code: LinearCode
    r: np.ndarray
    R: float
    f: float
    epsilon: float = None  # type: ignore[assignment]
    seed: int = 0
    bs: BeamSplitterParams = field(init=False)
    t: np.ndarray = field(init=False, repr=False)
    abort_at: int = field(init=False, repr=False)
    cheat_pair: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.uint8)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", codes_mod.message_mask(self.code, r))
        if not self.code.k < self.code.n:
            raise ValueError("protocol requires k < n")
        if not self.code.d < self.code.n:
            raise ValueError("protocol requires d < n")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError("f must lie in [0,1]")
        object.__setattr__(self, "bs", BeamSplitterParams(R=self.R))
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", strategies.protocol_epsilon(self.bs))
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0,1]")
        num, den = self.epsilon.as_integer_ratio()  # the float's exact value
        object.__setattr__(self, "abort_at", -(-num * (self.code.n - self.code.d) // den))
        pair = None
        if self.code.d >= 2:
            pair = binding_pair(self.code, r)
            for word in pair:
                word.flags.writeable = False
        object.__setattr__(self, "cheat_pair", pair)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def threshold(self) -> float:
        """Abort bound on the estimated intercept frequency: 1 - d/n.
        Estimates at or above it count as cheating (the check is strict)."""
        return 1.0 - self.code.d / self.code.n


# --- policies ---------------------------------------------------------------

@dataclass(frozen=True)
class HonestAlice:
    """Commits `bit`."""

    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"commit_bit must be 0 or 1, got {self.bit}")


@dataclass(frozen=True)
class MidpointCheatAlice:
    """Commits a non-codeword halfway between a minimum-distance codeword
    pair, deferring the real choice to the unveil phase."""


AlicePolicy = HonestAlice | MidpointCheatAlice


@dataclass(frozen=True)
class HonestBob:
    """Intercepts each photon independently with probability `f`."""

    f: float
    strategy: ResendStrategy = field(default_factory=BlindGuessOnTime)

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"intercept probability f must lie in [0,1], got {self.f}")


@dataclass(frozen=True)
class FullInterceptBob:
    strategy: ResendStrategy = field(default_factory=BlindGuessOnTime)


@dataclass(frozen=True)
class PartialInterceptBob:
    """Intercepts `m` positions drawn uniformly; `run_commit` checks m <= n
    before any draw."""

    m: int
    strategy: ResendStrategy = field(default_factory=BlindGuessOnTime)

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"intercept count m must be >= 0, got {self.m}")


BobPolicy = HonestBob | FullInterceptBob | PartialInterceptBob


@dataclass(frozen=True)
class Announcement:
    """The unveil message: claimed bit and codeword (possibly dishonest)."""

    b: int
    c: np.ndarray


@dataclass
class SessionTranscript:
    params: ProtocolParams
    committed_b: int | None
    codeword: np.ndarray           # the word actually encoded and sent
    modes: list[str]
    alice_events: list[DetectionEvent]
    n_mismatch: int
    f_estimate: float
    alice_verdict: str
    cheat_target: np.ndarray | None = None


def binding_pair(code: LinearCode, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(committed midpoint word, unveil target codeword) for the cheat.

    The target is the zero codeword, and the picked word the first weight-d
    codeword in message order whose parity against r is 1, so the two ends
    commit opposite bits, or the first weight-d codeword if none is.  The
    midpoint is the picked word with every set position after its first
    ceil(d/2) cleared: ceil(d/2) from the target, floor(d/2) from the pick.
    """
    if code.d < 2:
        raise ValueError("the midpoint cheat needs d >= 2")
    words = code.min_words
    r_packed = kernels.pack_rows(np.asarray(r, dtype=np.uint8)[None, :])
    odd = np.flatnonzero(np.bitwise_count(words & r_packed) & 1)
    pick = odd[0] if odd.size else 0
    mid = kernels.unpack_rows(words[pick : pick + 1], code.n)[0]
    mid[np.flatnonzero(mid)[(code.d + 1) // 2 :]] = 0
    return mid, np.zeros(code.n, dtype=np.uint8)


def _cheat_pair(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """The params' `cheat_pair`, which only a code with d >= 2 has."""
    if params.cheat_pair is None:
        raise ValueError("the midpoint cheat needs d >= 2")
    return params.cheat_pair


def run_commit(
    alice: AlicePolicy,
    bob: BobPolicy,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> SessionTranscript:
    """Execute the commit phase through the exact optics: the codeword
    draw, then the receiver's intercepts, then one uniform per photon,
    which picks its event from the running sums of its (intercepted, bit)
    detection table.  A cheating sender's word is the read-only midpoint
    of `params.cheat_pair`, so no session can change the next one's."""
    code, bs, n = params.code, params.bs, params.code.n
    if isinstance(bob, PartialInterceptBob) and bob.m > n:
        raise ValueError("intercept count m must lie in 0..n")
    cheat_target = None
    if isinstance(alice, HonestAlice):
        word = codes_mod.sample_codeword(code, params.t, alice.bit, rng)
        committed_b: int | None = alice.bit
    elif isinstance(alice, MidpointCheatAlice):
        word, cheat_target = _cheat_pair(params)
        committed_b = None
    else:
        raise TypeError(f"unknown sender policy {alice!r}")

    if isinstance(bob, HonestBob):
        intercepted = rng.random(n) < bob.f
    elif isinstance(bob, FullInterceptBob):
        intercepted = np.ones(n, dtype=bool)
    elif isinstance(bob, PartialInterceptBob):
        intercepted = np.zeros(n, dtype=bool)
        intercepted[rng.permutation(n)[: bob.m]] = True
    else:
        raise TypeError(f"unknown receiver policy {bob!r}")
    _, sums = strategies.outcome_tables(bob.strategy, bs)
    picks = optics.pick_events(sums.reshape(4, -1)[2 * intercepted + word], rng.random(n))
    n_mismatch = int(np.count_nonzero(picks != optics.expected_index(word)))

    return SessionTranscript(
        params=params,
        committed_b=committed_b,
        codeword=word,
        modes=[INTERCEPT if i else BYPASS for i in intercepted.tolist()],
        alice_events=[optics.EVENTS[i] for i in picks.tolist()],
        n_mismatch=n_mismatch,
        f_estimate=n_mismatch / (params.epsilon * code.n),
        alice_verdict=ABORT_CHEATING_BOB if n_mismatch >= params.abort_at else CONTINUE,
        cheat_target=cheat_target,
    )


def honest_announcement(transcript: SessionTranscript) -> Announcement:
    if transcript.committed_b is None:
        raise ValueError("cheating sender has no honest announcement")
    return Announcement(b=transcript.committed_b, c=transcript.codeword)


def run_unveil(transcript: SessionTranscript, announcement: Announcement) -> str:
    """The receiver's acceptance checks, in order: codeword membership,
    parity against r, agreement with the sent word at every intercepted
    position (the bits he learned).  Only the positions where the
    announcement differs from the sent word can disagree, so only their
    modes are read."""
    code, r = transcript.params.code, transcript.params.r
    c = np.asarray(announcement.c, dtype=np.uint8)
    if c.shape != (code.n,):
        raise ValueError(f"announced codeword must have length {code.n}")
    if not code.contains(c):
        return REJECT_NOT_CODEWORD
    if parity(c, r) != announcement.b:
        return REJECT_PARITY
    modes = transcript.modes
    if any(modes[i] == INTERCEPT for i in np.flatnonzero(c != transcript.codeword).tolist()):
        return REJECT_INTERCEPT_MISMATCH
    return ACCEPT


# --- closed forms ------------------------------------------------------------

def intercept_posterior(f: float, epsilon: float) -> float:
    """Probability that a silently-passed position was in fact intercepted:
    (f - eps*f) / (1 - eps*f)."""
    if not 0.0 <= f <= 1.0 or not 0.0 <= epsilon <= 1.0:
        raise ValueError("f and epsilon must lie in [0,1]")
    if epsilon * f >= 1.0:
        raise ValueError("epsilon*f must be < 1")
    return (f - epsilon * f) / (1.0 - epsilon * f)


def escape_probability(p: float, flips: int) -> float:
    """(1-p)^flips: chance of altering `flips` silent positions unnoticed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    if flips < 0:
        raise ValueError("flips must be >= 0")
    return (1.0 - p) ** flips


# --- Monte-Carlo experiments --------------------------------------------------

def _run_blocks(worker, trials: int, seed: int, threads: int):
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    jobs = [(np.random.default_rng(seq), count) for seq, count in blocks(seed, trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda j: worker(*j), jobs))
    else:
        results = [worker(*j) for j in jobs]
    return results


def _uniforms32(g: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """A (rows, n) array of uniform uint32 draws, two per raw PCG64 output,
    low half first on every platform; when rows * n is odd the last
    output's high half is dropped."""
    size = rows * n
    raw = g.bit_generator.random_raw(-(-size // 2))
    return raw.astype("<u8", copy=False).view("<u4")[:size].reshape(rows, n)


def run_binding_experiment(
    params: ProtocolParams,
    trials: int,
    threads: int = 1,
) -> dict:
    """The midpoint cheat, Monte Carlo.

    The cheater commits the midpoint of a minimum-distance codeword pair
    and unveils the endpoint ceil(d/2) flips away.  The receiver, playing
    honestly with intercept probability f, learns every intercepted bit
    exactly.  The game flags each intercepted photon with probability
    epsilon, by default the floor strategy's rate min(R, T); `run`'s
    blind-guess resend flags at that rate only at R = 0.5 (ROADMAP item 2).
    The cheat is accepted iff no flipped position was intercepted; the
    closed-form prediction for the accept rate among trials where the
    cheater saw no mismatch on the flipped positions is (1-p)^flips with p
    the intercept posterior.
    """
    if trials < 1:
        raise ValueError("the binding experiment needs at least one trial")
    mid, target = _cheat_pair(params)
    flip_idx = np.flatnonzero(mid != target).astype(np.int64)
    f, eps, n, abort_at = params.f, params.epsilon, params.n, params.abort_at
    p = intercept_posterior(f, eps)  # before any draw: it rejects eps*f = 1
    predicted = escape_probability(p, len(flip_idx))
    t_f, t_fe = kernels.uint32_threshold(f), kernels.uint32_threshold(f * eps)

    def worker(g: np.random.Generator, m: int):
        return kernels.binding_counts(_uniforms32(g, m, n), t_f, t_fe, flip_idx, abort_at)

    counts = sum(_run_blocks(worker, trials, params.seed, threads))
    proceed, proceed_accept, accept, abort = (int(x) for x in counts)
    rate = proceed_accept / proceed if proceed else float("nan")
    # 3-sigma binomial half-width around the prediction, for reporting only
    sigma = math.sqrt(predicted * (1 - predicted) / proceed) if proceed else float("nan")
    return {
        "trials": trials,
        "flips": int(len(flip_idx)),
        "f": f,
        "epsilon": eps,
        "intercept_posterior": p,
        "predicted_escape": predicted,
        "proceed_trials": proceed,
        "accept_rate_among_proceed": rate,
        "accept_rate_unconditioned": accept / trials,
        "abort_frequency": abort / trials,
        "three_sigma": 3 * sigma,
    }


def run_concealing_experiment(
    params: ProtocolParams,
    m: int,
    trials: int,
    threads: int = 1,
) -> dict:
    """Receiver intercepting exactly m random positions per session.

    Reports the sender's abort frequency and the receiver's exact parity
    posterior, averaged over sessions with a uniformly random committed bit
    and codeword.  The posterior is 1 when his m learned bits fix the parity
    and 1/2 otherwise (`kernels.parity_determined`), so no codeword is
    enumerated.
    """
    code = params.code
    if not 0 <= m <= code.n:
        raise ValueError("m must lie in 0..n")
    if trials < 1:
        raise ValueError("the concealing experiment needs at least one trial")
    eps, n, abort_at = params.epsilon, code.n, params.abort_at
    t_eps = kernels.uint32_threshold(eps)

    def worker(g: np.random.Generator, count: int):
        # the m positions with the smallest keys (kth = -1 when m = 0 picks
        # none); keys and indices stay temporaries, freed before the span test.
        # The keys stay doubles: a tie is broken by index, which biases the
        # pick, and 32-bit keys would tie 2^21 times as often
        intercept = np.zeros((count, n), dtype=bool)
        np.put_along_axis(
            intercept, np.argpartition(g.random((count, n)), m - 1, axis=1)[:, :m], True, axis=1
        )
        u_mis = _uniforms32(g, count, n)
        return kernels.concealing_stats(code.generator, params.t, intercept, u_mis, t_eps, abort_at)

    aborts, posterior = sum(_run_blocks(worker, trials, params.seed, threads)) / trials
    return {
        "trials": trials,
        "m": m,
        "epsilon": eps,
        "abort_frequency": float(aborts),
        "mean_posterior_true_bit": float(posterior),
        "mean_max_posterior": float(posterior),  # a copy, kept while qbcbench/ reads it
    }


# --- serialization ------------------------------------------------------------

def event_to_dict(ev: DetectionEvent) -> dict:
    return {"detector": ev.detector, "bin": ev.bin}


def transcript_to_dict(transcript: SessionTranscript) -> dict:
    p = transcript.params
    return {
        "params": {
            "n": p.code.n,
            "k": p.code.k,
            "d": p.code.d,
            "r": string_from_bits(p.r),
            "R": p.R,
            "f": p.f,
            "epsilon": p.epsilon,
            "seed": p.seed,
        },
        "committed_b": transcript.committed_b,
        "codeword": string_from_bits(transcript.codeword),
        "modes": transcript.modes,
        "learned_bits": [
            bit if mode == INTERCEPT else None
            for mode, bit in zip(transcript.modes, transcript.codeword.tolist())
        ],
        "events": [event_to_dict(ev) for ev in transcript.alice_events],
        "n_mismatch": transcript.n_mismatch,
        "f_estimate": transcript.f_estimate,
        "alice_verdict": transcript.alice_verdict,
        "cheat_target": None
        if transcript.cheat_target is None
        else string_from_bits(transcript.cheat_target),
    }
