"""Codeword-enumeration oracles for the GF(2) paths in `mzqbc`.

Each helper lists all 2^k codewords and filters them, exactly as the
codeword list, the midpoint cheat, the commit and the probe flip once did.
The library now answers the same questions by linear algebra on the
message or from the minimum-weight words kept on the code; tests compare
the two.  `sample_codeword_from_mask` lists nothing: it is the message
draw built by one generator product, which the library now does on packed
rows, and it reaches codes too large to list.
"""

import numpy as np

from mzqbc import codes, protocol


def codewords(code):
    """All 2^k codewords by one generator product, row i the message whose
    little-endian bits are i."""
    msgs = np.arange(1 << code.k, dtype=np.uint32)
    bits = (msgs[:, None] >> np.arange(code.k)[None, :]) & 1
    return ((bits.astype(np.uint8) @ code.generator) % 2).astype(np.uint8)


def min_weight_words(code):
    """Every nonzero codeword of least weight, in message order."""
    words = codewords(code)[1:]
    weights = words.sum(axis=1)
    return words[weights == weights.min()]


def binding_pair(code, r):
    """The midpoint cheat's (midpoint, target) from the listed codewords:
    the first weight-d word of parity 1, else the first weight-d word, cut
    to its first ceil(d/2) ones, and the zero word."""
    words = codewords(code)
    weights = words.sum(axis=1)
    min_idx = np.flatnonzero(weights == code.d)
    pick = min_idx[0]
    for i in min_idx:
        if codes.parity(words[i], r) == 1:
            pick = i
            break
    mid = np.zeros(code.n, dtype=np.uint8)
    for i in range(code.n):
        if words[pick][i] and mid.sum() < (code.d + 1) // 2:
            mid[i] = 1
    return mid, np.zeros(code.n, dtype=np.uint8)


def coset_parities(code, r):
    """parity(c, r) for every codeword, in codeword-matrix order."""
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (code.n,):
        raise ValueError(f"r must have length {code.n}")
    return ((codewords(code) & r[None, :]).sum(axis=1) % 2).astype(np.uint8)


def coset_split(code, r):
    """Partition the codewords by their parity against the mask r."""
    r = np.asarray(r, dtype=np.uint8)
    if not r.any():
        raise ValueError("r must be nonzero")
    parities = coset_parities(code, r)
    words = codewords(code)
    return words[parities == 0], words[parities == 1]


def consistent_codewords(code, positions, values):
    """All codewords agreeing with `values` at `positions` (possibly none)."""
    positions = np.asarray(positions, dtype=np.intp)
    values = np.asarray(values, dtype=np.uint8)
    if positions.shape != values.shape:
        raise ValueError("positions and values must have equal length")
    if len(np.unique(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    words = codewords(code)
    if len(positions) == 0:
        return words
    mask = (words[:, positions] == values[None, :]).all(axis=1)
    return words[mask]


def sample_codeword(code, r, b, rng):
    """Uniform draw from the listed parity-b half, one `rng.integers` call."""
    subset = coset_split(code, r)[b]
    if len(subset) == 0:
        raise ValueError("committed subset empty; choose different r")
    return subset[rng.integers(len(subset))].copy()


def try_flip(transcript, inferred_bypass):
    """The probe cheat's unveil with the first consistent codeword of the
    flipped parity, in message order."""
    params = transcript.params
    c = transcript.codeword
    fixed = [i for i in range(params.n) if not inferred_bypass[i]]
    want = 1 - transcript.committed_b
    for cand in consistent_codewords(params.code, fixed, c[fixed]):
        if codes.parity(cand, params.r) == want and not np.array_equal(cand, c):
            announcement = protocol.Announcement(b=want, c=cand)
            return protocol.run_unveil(transcript, announcement) == protocol.ACCEPT
    return False


def sample_codeword_from_mask(code, t, b, rng):
    """The parity-b draw for the message mask t = G r^T: one
    `rng.integers` draw j, the parity-fixing bit inserted at the lowest set
    bit p of t, and the word built as the message's product with the
    generator."""
    bits = np.arange(code.k)
    p = int(np.flatnonzero(t)[0])
    j = int(rng.integers(1 << (code.k - 1)))
    m = (j >> p << (p + 1)) | (j & ((1 << p) - 1))
    m |= (int(((m >> bits) & 1) @ t) + b) % 2 << p
    return (((m >> bits) & 1) @ code.generator % 2).astype(np.uint8)


def length_64_code(rng):
    """A random (64, k <= 10) code, small enough to list, whose last
    position is used, so its packed words reach bit 63."""
    while True:
        code = codes.random_code(64, int(rng.integers(2, 11)), rng)
        if code.generator[:, 63].any():
            return code
