"""Numpy kernels for the hot loops, one implementation per job.

GF(2) rows are packed into uint64 bitmasks (n <= 64).  One XOR-basis
elimination serves the rank and codeword membership; one column
elimination, batched over masks, serves the span test `parity_determined`
of the message mask t = G r^T, which the concealing game, the probe attack
and the nogo report share;
and one chunked walk of the 2^k span serves the minimum distance (with
every minimum-weight word) and the operator model's branch list.
The Monte-Carlo kernels consume pre-drawn uint32 uniforms and are exact
integer/boolean counting: an event of probability p is u < t(p) with the
integer threshold t(p) = `uint32_threshold(p)`, and the sender's abort is
a mismatch count reaching `ProtocolParams.abort_at`.
"""

from __future__ import annotations

import math

import numpy as np


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a (k, n) 0/1 matrix into k uint64 bitmasks (n <= 64)."""
    k, n = rows.shape
    if n > 64:
        raise ValueError("packed enumeration supports n <= 64 only")
    packed = np.zeros((k, 8), dtype=np.uint8)
    packed[:, : (n + 7) // 8] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False).reshape(k)


# ---------------------------------------------------------------------------
# GF(2) elimination on packed rows

def _reduce(v: int, basis: list[int]) -> int:
    """v with the leading bit of every basis vector cleared; the basis is
    kept in descending order, so each XOR only touches lower bits."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def xor_basis(masks) -> list[int]:
    """An echelon basis of the GF(2) span of packed rows: nonzero vectors
    with distinct leading bits, in descending order.  Its length is the
    rank."""
    basis: list[int] = []
    for v in masks:
        v = _reduce(int(v), basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def in_span(v: int, basis: list[int]) -> bool:
    """Whether packed row v lies in the span of an echelon `xor_basis`."""
    return _reduce(v, basis) == 0


def parity_determined(
    generator: np.ndarray, t: np.ndarray, known: np.ndarray
) -> np.ndarray:
    """Whether the bits of a codeword c = mG at the positions of each row of
    the boolean (masks, n) array `known` fix its parity c.r, given the
    message mask t = G r^T (`codes.message_mask`).

    The parity is m.t, and the known bits are m G[:, S]; they fix it iff t
    lies in the column span of G[:, S].  Otherwise the two parity
    halves of the consistent codewords have equal size, so the receiver's
    posterior is exactly 1 or 1/2.

    One column elimination runs over all distinct rows at once.  Row i of
    `a` holds the known columns (0 where unknown) and then the target;
    for each bit b, a known column with bit b is XORed into every column
    with bit b, itself included, so it leaves the elimination and the
    rest lose bit b.  The target ends at 0 iff it was in their span.
    """
    generator = np.asarray(generator)
    k = generator.shape[0]
    cols = pack_rows(generator.T).astype(np.uint32 if k <= 32 else np.uint64)
    n = cols.shape[0]
    known = np.asarray(known, dtype=bool)
    _, first, inverse = np.unique(pack_rows(known), return_index=True, return_inverse=True)
    a = np.zeros((first.shape[0], n + 1), dtype=cols.dtype)
    np.copyto(a[:, :n], cols, where=known[first])
    a[:, n] = pack_rows(np.asarray(t, dtype=np.uint8)[None, :])[0]
    has = np.empty_like(a)
    for b in range(k):
        np.right_shift(a, b, out=has)
        has &= 1
        # where no known column has bit b, this "pivot" lacks it too: XORed
        # into the target it moves it within the span, and bit b stays set
        pivot = np.take_along_axis(a, has[:, :n].argmax(axis=1)[:, None], axis=1)
        has *= pivot
        a ^= has
    return (a[:, n] == 0)[inverse]


# ---------------------------------------------------------------------------
# the span of packed rows, all 2^k messages, 2^_CHUNK_BITS per chunk

_CHUNK_BITS = 18


def _span_chunks(masks: np.ndarray):
    """Every codeword of the span of packed rows in message order (word i
    XORs the rows at the set bits of i): the span of the low rows, built
    by doubling, XOR each combination of the high rows in turn."""
    low = min(masks.shape[0], _CHUNK_BITS)
    base = np.zeros(1, dtype=np.uint64)
    for row in masks[:low]:
        base = np.concatenate([base, base ^ row])
    high = masks[low:]
    for chunk in range(1 << len(high)):
        offset = np.uint64(0)
        for j, row in enumerate(high):
            if chunk >> j & 1:
                offset ^= row
        yield base ^ offset


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """The (len(packed), n) 0/1 uint8 matrix that `pack_rows` packed."""
    octets = np.asarray(packed, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def min_weight(masks: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """(d, words): the minimum Hamming weight over all nonzero codewords of
    the span, and every codeword of that weight, packed and in message
    order."""
    best, found = n + 1, []
    for chunk, acc in enumerate(_span_chunks(masks)):
        weights = np.bitwise_count(acc)
        if chunk == 0:
            weights[0] = n + 1  # skip the zero codeword
        lightest = int(weights.min())
        if lightest < best:
            best, found = lightest, []
        if lightest == best:
            found.append(acc[weights == best])
    return best, np.concatenate(found)


# ---------------------------------------------------------------------------
# binding-cheat trial counting
#
# One uniform 32-bit u per trial and photon: the sender is intercepted when
# u < t(f), and an intercepted photon shows up as a mismatch when
# u < t(f*eps), which for eps <= 1 implies u < t(f).  The cheat survives
# unveiling iff no flipped position was intercepted; the cheater "proceeds"
# when she saw no mismatch on the flipped positions, and the sender aborts
# when a trial's mismatch count reaches `abort_at`.  Returns int64 counts
# [proceed, proceed & accept, accept, abort].
#
# The caller passes a whole 16384-trial block at once.  Both games count a
# trial's mismatches with `_mismatch_counts`: the flags are bytes in rows
# zero-padded to whole uint64 words, so the popcount of a word is the
# number of its flagged photons and a count costs one add per word instead
# of a reduction along a short row.

def uint32_threshold(p: float) -> int:
    """The integer t with P(u < t) = t / 2^32 in [p, p + 2^-32) for a
    uniform uint32 u: ceil(p * 2^32), where the product is exact because
    the factor is a power of two.  At p = 1 it is 2^32, above every uint32."""
    return math.ceil(p * 2**32)


def _mismatch_counts(u, t, intercept=None):
    """Per row of the uint32 draws u, the number of entries with u < t (and
    `intercept`, when given), as uint8."""
    rows, n = u.shape
    if n > 64:
        raise ValueError("mismatch counts support n <= 64 only")
    padded = np.zeros((rows, 8 * -(-n // 8)), dtype=bool)
    flags = padded[:, :n]
    np.less(u, t, out=flags)
    if intercept is not None:
        flags &= intercept
    words = padded.view(np.uint64)
    count = np.bitwise_count(words[:, 0])  # uint8 holds up to 64
    for w in range(1, words.shape[1]):
        count += np.bitwise_count(words[:, w])
    return count


def binding_counts(u, t_f, t_fe, flip_idx, abort_at):
    count = _mismatch_counts(u, t_fe)
    flips = u[:, flip_idx]
    proceed = (flips >= t_fe).all(axis=1)
    accept = (flips >= t_f).all(axis=1)
    abort = count >= abort_at
    return np.array(
        [
            np.count_nonzero(proceed),
            np.count_nonzero(proceed & accept),
            np.count_nonzero(accept),
            np.count_nonzero(abort),
        ],
        dtype=np.int64,
    )


# ---------------------------------------------------------------------------
# concealing trial statistics
#
# Per trial the receiver learns the committed codeword exactly on his
# intercepted positions; his parity posterior is 1 when those positions fix
# the parity and 1/2 otherwise, whichever codeword was committed.  An
# intercepted photon shows up as a mismatch when its uint32 u_mis < t(eps),
# and the sender aborts when a trial's mismatch count reaches `abort_at`.
# Returns float64 [aborts, sum p(true parity)], also the max-posterior sum.

def concealing_stats(generator, t, intercept, u_mis, t_eps, abort_at):
    aborts = np.count_nonzero(_mismatch_counts(u_mis, t_eps, intercept) >= abort_at)
    determined = parity_determined(generator, t, intercept)
    posterior = float(determined.sum()) + 0.5 * float((~determined).sum())
    return np.array([float(aborts), posterior], dtype=np.float64)
