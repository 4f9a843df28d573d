"""Binary linear (n,k,d) codes over GF(2).

Codewords are numpy uint8 vectors.  Ranks come from an XOR-basis
elimination on packed rows, and the parity halves {mG : m.t = b} are
handled as linear constraints on the message m, never listed; the message
mask t = G r^T is derived once per parameter set and kept read-only on
`protocol.ProtocolParams`.  Only the minimum distance is an exhaustive 2^k
enumeration, exact and desk scale, and it keeps its witnesses: every
weight-d codeword, from which the midpoint cheat picks its pair.  A hard
guard refuses it beyond k=24 rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .util import GuardError

#: 2^k enumeration bound for the minimum distance.
ENUM_GUARD_K = 24


def bits_from_string(s: str) -> np.ndarray:
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"bit string must be nonempty over 0/1, got {s!r}")
    return np.array([int(ch) for ch in s], dtype=np.uint8)


def string_from_bits(bits: np.ndarray) -> str:
    return "".join(str(int(b)) for b in bits)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix with at most 64 columns."""
    return len(kernels.xor_basis(kernels.pack_rows(np.asarray(matrix))))


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A binary linear code given by a full-rank k x n generator matrix.

    `d` is the exact minimum distance (= minimum nonzero codeword weight)
    and `min_words` every codeword of weight d, packed as
    `kernels.pack_rows` packs rows and in message order; both come from one
    walk of the span at construction.  `basis` is the echelon
    `kernels.xor_basis` of the rows that the rank check built.
    """

    generator: np.ndarray
    n: int
    k: int
    d: int
    min_words: np.ndarray = field(repr=False)
    basis: list[int] = field(repr=False)

    def contains(self, word: np.ndarray) -> bool:
        """Whether `word` reduces to zero against the echelon `basis`."""
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.n,):
            return False
        return kernels.in_span(int(kernels.pack_rows(word[None, :])[0]), self.basis)


def code_from_generator(matrix) -> LinearCode:
    gen = np.asarray(matrix, dtype=np.uint8)
    if gen.ndim != 2 or gen.size == 0:
        raise ValueError("generator must be a nonempty 2-D 0/1 matrix")
    if not np.isin(gen, (0, 1)).all():
        raise ValueError("generator entries must be 0 or 1")
    k, n = gen.shape
    rows = kernels.pack_rows(gen)
    basis = kernels.xor_basis(rows)
    if len(basis) != k:
        raise ValueError("generator not full rank")
    if k > ENUM_GUARD_K:
        raise GuardError("enumeration too large")
    d, words = kernels.min_weight(rows, n)
    return LinearCode(generator=gen, n=n, k=k, d=d, min_words=words, basis=basis)


def parity(c: np.ndarray, r: np.ndarray) -> int:
    """Inner product over GF(2): XOR of the AND-ed coordinates."""
    c = np.asarray(c, dtype=np.uint8)
    r = np.asarray(r, dtype=np.uint8)
    if c.shape != r.shape:
        raise ValueError("parity arguments must have equal length")
    return int(np.bitwise_xor.reduce(c & r))


def message_mask(code: LinearCode, r: np.ndarray) -> np.ndarray:
    """t = G r^T mod 2, so c = mG has parity c.r = m.t.  Both parity halves
    of the code are nonempty iff t != 0, and then hold 2^(k-1) words each.
    `protocol.ProtocolParams` keeps the t of its r."""
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (code.n,):
        raise ValueError(f"r must have length {code.n}")
    if not r.any():
        raise ValueError("r must be nonzero")
    return ((code.generator.astype(np.int64) @ r) % 2).astype(np.uint8)


def sample_codeword(
    code: LinearCode, t: np.ndarray, b: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw from the parity-b half of the code, for the message
    mask t = G r^T (`message_mask`).

    One `rng.integers(|C_b|)` draw j picks the j-th parity-b message in
    ascending order: j with the parity-fixing bit inserted at the lowest set
    bit p of t (bits below p leave the parity alone)."""
    bits = np.arange(code.k)
    if t.any():
        p = int(np.flatnonzero(t)[0])
        j = int(rng.integers(1 << (code.k - 1)))
        m = (j >> p << (p + 1)) | (j & ((1 << p) - 1))
        m |= (int(((m >> bits) & 1) @ t) + b) % 2 << p
    elif b:
        raise ValueError("committed subset empty; choose different r")
    else:
        m = int(rng.integers(1 << code.k))
    return (((m >> bits) & 1) @ code.generator % 2).astype(np.uint8)


def midpoint_word(c_a: np.ndarray, c_b: np.ndarray) -> np.ndarray:
    """A word halfway between two codewords.

    Of the h differing positions (in index order) the first ceil(h/2) take
    c_b's value and the rest keep c_a's, so the result sits at distance
    ceil(h/2) from c_a and floor(h/2) from c_b.
    """
    c_a = np.asarray(c_a, dtype=np.uint8)
    c_b = np.asarray(c_b, dtype=np.uint8)
    if c_a.shape != c_b.shape:
        raise ValueError("codewords must have equal length")
    diff = np.flatnonzero(c_a != c_b)
    h = len(diff)
    if h < 2:
        raise ValueError("codewords must differ in at least 2 positions")
    mid = c_a.copy()
    take = (h + 1) // 2
    mid[diff[:take]] = c_b[diff[:take]]
    return mid


# ---------------------------------------------------------------------------
# built-in catalog

def repetition_code(n: int = 3) -> LinearCode:
    return code_from_generator(np.ones((1, n), dtype=np.uint8))


def hamming_7_4() -> LinearCode:
    return code_from_generator(
        [
            [1, 0, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
    )


def extended_hamming_8_4() -> LinearCode:
    """Hamming (7,4) with an overall parity bit appended; d = 4."""
    gen = hamming_7_4().generator
    overall = gen.sum(axis=1) % 2
    return code_from_generator(np.hstack([gen, overall[:, None]]))


_GOLAY_B = [
    [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
    [1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1],
    [1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1],
    [1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0],
    [1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1],
    [1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
    [1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1],
    [1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0],
    [1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0],
    [1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0],
    [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1],
]


def golay_24_12() -> LinearCode:
    gen = np.hstack([np.eye(12, dtype=np.uint8), np.array(_GOLAY_B, dtype=np.uint8)])
    return code_from_generator(gen)


def random_code(n: int, k: int, rng: np.random.Generator) -> LinearCode:
    """A random full-rank (n,k) code with exact brute-force distance."""
    if k >= n:
        raise ValueError("random_code expects k < n")
    while True:
        gen = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2_rank(gen) == k:
            return code_from_generator(gen)


BUILTIN_CODES = {
    "repetition": repetition_code,
    "hamming": hamming_7_4,
    "extended_hamming": extended_hamming_8_4,
    "golay": golay_24_12,
}


def builtin_code(name: str) -> LinearCode:
    try:
        return BUILTIN_CODES[name]()
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; choose from {sorted(BUILTIN_CODES)}"
        ) from None


# ---------------------------------------------------------------------------
# file formats

def read_generator_file(path) -> LinearCode:
    """Generator matrix from plain text: one row per line, '0'/'1' chars."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append(bits_from_string(line))
    if not rows:
        raise ValueError(f"no generator rows in {path}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("generator rows must all have the same length")
    return code_from_generator(np.vstack(rows))
