"""Binary linear (n,k,d) codes over GF(2).

Codewords are numpy uint8 vectors.  Ranks come from an XOR-basis
elimination on packed rows, and the parity halves {mG : m.t = b} are
handled as linear constraints on the message m, never listed.  A session
works on one word packed into a Python int, bit i for position i: the
draw XORs the packed generator rows its message picks and unpacks once,
and membership packs with one dot.  The
message mask t = G r^T comes from `message_mask`, the one check that r
commits a bit, once per parameter set, and is kept read-only on
`protocol.ProtocolParams`.  Only the minimum distance is an exhaustive 2^k
enumeration, exact and desk scale, and it keeps its witnesses: every
weight-d codeword, from which the midpoint cheat picks its word.  A hard
guard refuses it beyond k=24 rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .util import GuardError

#: 2^k enumeration bound for the minimum distance.
ENUM_GUARD_K = 24

#: 2^i at index i: a dot with a 0/1 vector of n <= 64 bits packs it
_WEIGHTS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _pack(bits: np.ndarray) -> int:
    """A uint8 0/1 vector as an int, position i at bit i."""
    return int(bits @ _WEIGHTS[: bits.shape[0]])


def _unpack(word: int, n: int) -> np.ndarray:
    """The n low bits of an int as a new uint8 0/1 vector, bit i at position i."""
    octets = np.frombuffer(word.to_bytes(8, "little"), dtype=np.uint8)
    return np.unpackbits(octets, count=n, bitorder="little")


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
    walk of the span at construction.  `rows` are the generator rows packed
    the same way, as ints, and `basis` is their echelon `kernels.xor_basis`,
    which the rank check built.
    """

    generator: np.ndarray
    n: int
    k: int
    d: int
    min_words: np.ndarray = field(repr=False)
    rows: tuple[int, ...] = field(repr=False)
    basis: list[int] = field(repr=False)

    def contains(self, word: np.ndarray) -> bool:
        """Whether `word` is a codeword: a vector of n bits, each 0 or 1,
        that reduces to zero against the echelon `basis`."""
        word = np.asarray(word, dtype=np.uint8)
        # deleting the 0 and 1 bytes leaves any other entry
        if word.shape != (self.n,) or word.tobytes().translate(None, b"\0\1"):
            return False
        return kernels.in_span(_pack(word), self.basis)


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
    return LinearCode(
        generator=gen, n=n, k=k, d=d, min_words=words,
        rows=tuple(int(row) for row in rows), basis=basis,
    )


def parity(c: np.ndarray, r: np.ndarray) -> int:
    """Inner product over GF(2): XOR of the AND-ed coordinates."""
    c = np.asarray(c, dtype=np.uint8)
    r = np.asarray(r, dtype=np.uint8)
    if c.shape != r.shape:
        raise ValueError("parity arguments must have equal length")
    return int(np.bitwise_xor.reduce(c & r))


def message_mask(code: LinearCode, r: np.ndarray) -> np.ndarray:
    """t = G r^T mod 2, so c = mG has parity c.r = m.t: the one check that r
    commits a bit.  Both parity halves, 2^(k-1) words each, are nonempty
    iff t != 0, so every r with t = 0 (r = 0 too) is rejected; t is read-only."""
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (code.n,):
        raise ValueError(f"r must have length {code.n}")
    t = ((code.generator.astype(np.int64) @ r) % 2).astype(np.uint8)
    if not t.any():
        raise ValueError("r is orthogonal to every codeword: the parity commits no bit")
    t.flags.writeable = False
    return t


def random_mask(code: LinearCode, rng: np.random.Generator) -> np.ndarray:
    """A uniform r that commits a bit: n uniform bits, drawn again until
    `message_mask` accepts them.  A draw has t = 0 with probability
    2^-k <= 1/2, so the loop ends."""
    while True:
        r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
        try:
            message_mask(code, r)
        except ValueError:
            continue
        return r


def sample_codeword(
    code: LinearCode, t: np.ndarray, b: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw from the parity-b half of the code, for a message mask
    t = G r^T from `message_mask`, which is never 0.

    One `rng.integers(|C_b|)` draw j picks the j-th parity-b message in
    ascending order: j with the parity-fixing bit inserted at the lowest set
    bit p of t (bits below p leave the parity alone).  The word is the XOR
    of the packed generator rows at the message's set bits, unpacked once."""
    mask = _pack(t)
    p = (mask & -mask).bit_length() - 1
    j = int(rng.integers(1 << (code.k - 1)))
    m = (j >> p << (p + 1)) | (j & ((1 << p) - 1))
    m |= ((m & mask).bit_count() + b) % 2 << p
    word = 0
    while m:
        low = m & -m
        word ^= code.rows[low.bit_length() - 1]
        m ^= low
    return _unpack(word, code.n)


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
# generator files

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
