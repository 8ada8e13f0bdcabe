"""Dense GF(2) linear algebra on numpy uint8 arrays.

Vectors are 1-D uint8 arrays with entries in {0, 1}; matrices are 2-D.
Position 0 is the leftmost printed bit.  All public functions but fwht
leave their inputs untouched and return fresh arrays.  Cosets of a subspace are
handled by two primitives: reduce_rows (the canonical representative of
each row) and coset_rep_rows (rows independent modulo the subspace);
distinct_rows finds the distinct rows of a matrix, as canonical coset
representatives are deduplicated.
Rows can also be packed into uint64 words, one per block of 64 columns
(bit j of word b = position 64 b + j; pack_words, unpack_rows), and
spanned by XOR doubling in one kernel, xor_span (whole, or chunk by
chunk in xor_span_chunks), through which every GF(2) span goes.
fwht is the Walsh-Hadamard transform of a table over GF(2)^r, in place.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .errors import CapExceeded

DEFAULT_CAP = 1 << 26


def as_bits(data) -> np.ndarray:
    """Coerce a sequence (or '0101' string) to a uint8 bit vector."""
    if isinstance(data, str):
        data = [int(ch) for ch in data.strip()]
    arr = np.asarray(data, dtype=np.uint8) % 2
    return arr


def as_matrix(rows) -> np.ndarray:
    """Coerce a sequence of rows (or bit strings) to a 2-D uint8 matrix."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.astype(np.uint8) % 2
    return np.array([as_bits(r) for r in rows], dtype=np.uint8)


def to_string(v: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in v)


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form over GF(2).

    Returns (reduced, pivot_cols, rank).  Row space is preserved and
    pivot columns are strictly increasing; the rows past the rank are
    zero.  Each row is packed into one Python int, column 0 the most
    significant bit, and inserted into an XOR basis keyed by its leading
    bit; back-substitution in ascending leading bit then clears every
    pivot column, giving the unique RREF of the row space.
    """
    r = np.asarray(m, dtype=np.uint8) % 2
    if r.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    nrows, ncols = r.shape
    nbytes = -(-ncols // 8)
    basis: dict[int, int] = {}  # bit length of the leading bit -> row
    for x in _row_ints(r):
        while x:
            lead = x.bit_length()
            if lead not in basis:
                basis[lead] = x
                break
            x ^= basis[lead]
    leads = sorted(basis)
    for i, lead in enumerate(leads):
        x = basis[lead]
        for p in leads[:i]:
            if x >> (p - 1) & 1:
                x ^= basis[p]
        basis[lead] = x
    leads.reverse()
    reduced = np.zeros((nrows, ncols), dtype=np.uint8)
    reduced[:len(leads)] = _int_rows([basis[lead] for lead in leads], ncols)
    return reduced, [8 * nbytes - lead for lead in leads], len(leads)


def _row_ints(m: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as Python ints, column 0 the most significant
    bit: column c is bit 8 * ceil(cols / 8) - 1 - c, as np.packbits pads."""
    packed = np.packbits(np.asarray(m, dtype=np.uint8), axis=1)
    nbytes, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big")
            for i in range(len(packed))]


def _int_rows(xs: list[int], ncols: int) -> np.ndarray:
    """The 0/1 matrix of ncols columns whose rows _row_ints gives as xs."""
    nbytes = -(-ncols // 8)
    data = b"".join(x.to_bytes(nbytes, "big") for x in xs)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(
        len(xs), nbytes), axis=1, count=ncols)


def rank(m: np.ndarray) -> int:
    return rref(m)[2]


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {x : m @ x = 0}, one row per basis vector.

    Row count is always cols - rank(m); the result may have zero rows.
    Basis vector i sets free column i to 1 and each pivot column to that
    pivot row's entry in the free column.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    red, pivots, rk = rref(m)
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, m.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = red[:rk, free].T
    return basis


def solve(m: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """Solve m @ x = y over GF(2); None when inconsistent.

    Free variables are set to 0, so the solution is deterministic.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    y = as_bits(y)
    if y.shape[0] != m.shape[0]:
        raise ValueError("dimension mismatch in solve")
    aug = np.hstack([m, y.reshape(-1, 1)])
    red, pivots, _ = rref(aug)
    ncols = m.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for prow, pcol in enumerate(pivots):
        x[pcol] = red[prow, ncols]
    return x


def syndrome(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h @ v over GF(2) for one vector v, or for each row of a matrix v.

    One uint8 product v @ h.T; it wraps mod 256, which keeps its parity.
    """
    h = np.asarray(h, dtype=np.uint8)
    v = as_bits(v)
    if v.shape[-1] != h.shape[1]:
        raise ValueError("dimension mismatch in syndrome")
    return v @ h.T & 1


def reduce_rows(basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lexicographically least vector of v + span(basis), for each row v.

    rows is one vector or a matrix.  basis must be fully reduced without
    zero rows (rref up to its rank, in any row order), so column piv_i,
    the first 1 of row i, is 0 in every other row.  Clearing all pivots is
    then one product, v ^ v[piv] @ basis.  np.einsum takes it in uint8
    with vectorised sums, where uint8 matmul runs a plain loop, and sums
    that wrap mod 256 keep their parity.  It calls no BLAS, whose buffers
    a first float product would touch and keep resident.
    """
    basis = np.asarray(basis, dtype=np.uint8)
    rows = np.asarray(rows, dtype=np.uint8) % 2
    piv = basis.argmax(axis=1)
    return rows ^ (np.einsum("...i,ij->...j", rows[..., piv], basis,
                             dtype=np.uint8) & 1)


def row_space_contains(m: np.ndarray, v: np.ndarray) -> bool:
    """Whether v, a vector or every row of a matrix, lies in the row space
    of m: whether each reduces to zero modulo it.  An m fully reduced
    already, as a LinearCode generator is, is not run through rref."""
    m = np.asarray(m, dtype=np.uint8) % 2
    if not (m.size and np.array_equal(m[:, m.argmax(axis=1)], np.eye(len(m)))):
        m = _independent_rows(m)
    return not reduce_rows(m, np.atleast_2d(as_bits(v))).any()


def row_spaces_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return row_space_contains(a, b) and row_space_contains(b, a)


def _independent_rows(m: np.ndarray) -> np.ndarray:
    """Rows of rref(m) restricted to the nonzero ones (a basis)."""
    red, _, rk = rref(m)
    return red[:rk]


def coset_rep_rows(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Rows of ``big`` that are independent modulo the row space of ``small``.

    A row is kept when it is independent of ``small`` and the rows of
    ``big`` before it: exactly the pivot columns past ``small`` of the
    transposed stack, found by one rref.
    """
    _, pivots, _ = rref(np.vstack([small, big]).T)
    keep = [p - len(small) for p in pivots if p >= len(small)]
    return np.asarray(big, dtype=np.uint8)[keep]


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, counts) over the distinct rows of a 0/1 matrix.

    first[i] is the index of the first occurrence of the i-th distinct
    row, rows taken in lexicographic order, and counts[i] how often it
    occurs: the index and counts of np.unique(rows, axis=0) at any width.
    Each row is packed into bytes (column 0 the most significant bit of
    byte 0) and viewed as one void item, so a stable argsort of the items
    orders the rows and puts each row's first occurrence first in its run.
    """
    packed = np.packbits(np.asarray(rows, dtype=np.uint8), axis=1)
    if not packed.shape[1]:  # rows of width 0 are all equal
        packed = np.zeros((len(packed), 1), dtype=np.uint8)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    return order[starts], np.diff(starts, append=keys.size)


def word_matrix(g: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All codewords as a (2^rank x n) matrix, in Gray-code message order.

    Row i is the XOR of the rows j of the rref basis with bit j of
    i ^ (i >> 1) set: entry i ^ (i >> 1) of the span of the basis's
    packed words, unpacked.
    """
    g = np.asarray(g, dtype=np.uint8)
    words = xor_span(pack_words(_independent_rows(g)).T, cap)
    gray = np.arange(words.shape[1])
    gray ^= gray >> 1
    return unpack_rows(words.T[gray], g.shape[1])


def pack_words(m: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as uint64 words, one per block of 64 columns.

    Bit j of word b holds column 64 b + j; a row has at least one word.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    padded = np.zeros((m.shape[0], 64 * max(1, -(-m.shape[1] // 64))),
                      dtype=np.uint8)
    padded[:, :m.shape[1]] = m
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def pack_rows(m: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix with at most 64 columns as uint64 words: the
    one pack_words word of each row."""
    if np.ndim(m) != 2 or np.shape(m)[1] > 64:
        raise ValueError("pack_rows expects a 2-D matrix of at most 64 columns")
    return pack_words(m)[:, 0]


def unpack_rows(words: np.ndarray, ncols: int) -> np.ndarray:
    """The 0/1 uint8 rows of ncols columns that pack_words gives as
    words, (..., words per row) -> (..., ncols)."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=-1, count=ncols,
                         bitorder="little")


def _check_span(basis: np.ndarray, k: int, cap: int) -> None:
    """Raises CapExceeded when spans of k entries of basis's last axis,
    one per index of its leading axes, hold more than cap words."""
    lead = math.prod(basis.shape[:-1])
    if lead << k > cap:
        raise CapExceeded(f"{lead} x 2^{k} words exceed cap {cap}")


def xor_span(basis: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All XOR combinations of packed words along the last axis of basis,
    (..., k) -> (..., 2^k), in basis's unsigned dtype.

    Entry a is the XOR of the entries i with bit i of a set, built by
    doubling: out[..., 2^i : 2^(i+1)] = out[..., :2^i] ^ basis[..., i].
    Raises CapExceeded when the result, leading axes included, holds more
    than cap words, before allocating it.
    """
    basis = np.asarray(basis)
    k = basis.shape[-1]
    _check_span(basis, k, cap)
    out = np.empty(basis.shape[:-1] + (1 << k,), dtype=basis.dtype)
    out[..., 0] = 0
    for i in range(k):
        np.bitwise_xor(out[..., :1 << i], basis[..., i:i + 1],
                       out=out[..., 1 << i:2 << i])
    return out


def xor_span_chunks(basis: np.ndarray, bits: int, cap: int = DEFAULT_CAP):
    """xor_span(basis) in chunks of 2^bits entries along the last axis.

    Yields (h, chunk), chunk equal to xor_span(basis)[..., h << bits :
    (h + 1) << bits]: the span of basis's first bits entries XORed with
    entry h of the span of the rest.  bits is clipped to k.  Every chunk
    is written into one buffer, which the next chunk overwrites, so a
    caller may modify it in place.  Raises CapExceeded when either span
    holds more than cap words, before allocating anything.
    """
    basis = np.asarray(basis)
    k = basis.shape[-1]
    bits = min(bits, k)
    _check_span(basis, max(bits, k - bits), cap)
    low = xor_span(basis[..., :bits], cap)
    high = xor_span(basis[..., bits:], cap)
    chunk = np.empty_like(low)
    for h in range(high.shape[-1]):
        np.bitwise_xor(low, high[..., h:h + 1], out=chunk)
        yield h, chunk


def span_words(m: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All 2^k XOR combinations of the k rows of m, as packed uint64 words.

    Rows are packed by pack_rows and need not be independent; entry a of
    the result is the XOR of the rows i with bit i of a set (xor_span).
    """
    return xor_span(pack_rows(m), cap)


def span_weights(m: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Hamming weight of every XOR combination of the rows of m.

    Entry a is the weight of span_words entry a; any column count works,
    one block of 64 columns spanned at a time.
    """
    blocks = pack_words(m).T
    weights = np.bitwise_count(xor_span(blocks[0], cap)).astype(np.intp)
    for block in blocks[1:]:
        weights += np.bitwise_count(xor_span(block, cap))
    return weights


def fwht(a: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform of a length-2^r array, in place.

    Afterwards a[u] = sum_s a_old[s] (-1)^popcount(u & s); one vectorised
    butterfly pass per bit.
    """
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h <<= 1


# --- text format: first line "rows cols", then one 0/1 string per row ---

def format_matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=np.uint8)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend(to_string(row) for row in m)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str | Iterable[str]) -> np.ndarray:
    if isinstance(text, str):
        text = text.splitlines()
    lines = [ln.strip() for ln in text if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix text")
    nrows, ncols = (int(t) for t in lines[0].split())
    rows = lines[1 : 1 + nrows]
    if len(rows) != nrows:
        raise ValueError("matrix text is truncated")
    m = as_matrix(rows)
    if m.shape != (nrows, ncols):
        raise ValueError("matrix text dimensions do not match header")
    return m
