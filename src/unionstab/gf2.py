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
fwht transforms a table over GF(2)^r; character_weights sums chi^2 by weight.
charge is the package's one cap check: a cap counts 8-byte words of live
memory, charged before each allocation that grows with the input.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .errors import CapExceeded, StrategyInfeasible

DEFAULT_CAP = 1 << 26  # 8-byte words: 512 MiB


def charge(nbytes: int, what: str, cap: int) -> None:
    """Raises CapExceeded, naming what, when nbytes, the bytes a caller
    will hold at once (itemsize x count x the arrays alive together),
    exceed cap 8-byte words."""
    if nbytes > 8 * cap:
        raise CapExceeded(f"{what} exceeds cap {cap}")


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
    zero.  The rows of _xor_basis are reduced in ascending leading bit:
    each clears the pivot bits it holds, read off one mask, by the rows
    already reduced, giving the unique RREF of the row space.
    """
    r, basis = _xor_basis(m)
    mask = 0
    for lead in sorted(basis):
        x, hit = basis[lead], basis[lead] & mask
        while hit:  # a reduced row holds one pivot bit, its lead
            p = hit.bit_length()
            x ^= basis[p]
            hit ^= 1 << (p - 1)
        basis[lead] = x
        mask |= 1 << (lead - 1)
    leads, ncols = sorted(basis, reverse=True), r.shape[1]
    reduced = np.zeros(r.shape, dtype=np.uint8)
    reduced[:len(leads)] = _int_rows([basis[lead] for lead in leads], ncols)
    return reduced, [8 * -(-ncols // 8) - lead for lead in leads], len(leads)


def _xor_basis(m: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """(m mod 2, an XOR basis of its rows keyed by leading bit): each row,
    packed by _row_ints, is reduced by the basis row at its leading bit
    until that bit is new.  The leading bits are the row space's pivots,
    column 8 ceil(cols / 8) - lead for each lead."""
    r = np.asarray(m, dtype=np.uint8) % 2
    if r.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    basis: dict[int, int] = {}
    for x in _row_ints(r):
        while x:
            lead = x.bit_length()
            if lead not in basis:
                basis[lead] = x
                break
            x ^= basis[lead]
    return r, basis


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
    return len(_xor_basis(m)[1])


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {x : m @ x = 0}, one row per basis vector.

    Row count is always cols - rank(m); the result may have zero rows.
    Basis vector i sets free column i to 1 and each pivot column to that
    pivot row's entry in the free column.  An m fully reduced already is
    its own RREF, up to row order, and is not run through rref.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    if _is_reduced(m):
        red, pivots, rk = m, m.argmax(axis=1), len(m)
    else:
        red, pivots, rk = rref(m)
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, m.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = red[:rk, free].T
    return basis


def solve(m: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """Solve m @ x = y over GF(2); None when any column is inconsistent.

    y is one right-hand side, a vector, or a matrix whose columns are
    right-hand sides, all solved by one rref of m beside them; x has y's
    shape past its first axis.  Free variables are set to 0, so the
    solution is deterministic.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    y = as_bits(y)
    if y.shape[0] != m.shape[0]:
        raise ValueError("dimension mismatch in solve")
    ncols = m.shape[1]
    red, pivots, rk = rref(np.hstack(
        [m, y.reshape(len(y), math.prod(y.shape[1:]))]))
    if rk and pivots[-1] >= ncols:
        return None
    x = np.zeros((ncols,) + y.shape[1:], dtype=np.uint8)
    x[pivots] = red[:rk, ncols:].reshape((rk,) + y.shape[1:])
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
    if not _is_reduced(m):
        m = _independent_rows(m)
    return not reduce_rows(m, np.atleast_2d(as_bits(v))).any()


def _is_reduced(m: np.ndarray) -> bool:
    """Whether the 0/1 matrix m has rows, each row's first 1 being 0 in
    every other row: rref(m) up to its rank, in some row order."""
    return bool(m.size) and np.array_equal(m[:, m.argmax(axis=1)],
                                           np.eye(len(m)))


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
    transposed stack, read off one _xor_basis.
    """
    stack, basis = _xor_basis(np.vstack([small, big]).T)
    top = 8 * -(-stack.shape[1] // 8) - len(small)
    keep = sorted(top - lead for lead in basis if lead <= top)
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
    packed words, unpacked.  The cap counts the span, the Gray indices,
    the span gathered in their order and the unpacked rows.
    """
    g = np.asarray(g, dtype=np.uint8)
    basis = pack_words(_independent_rows(g)).T
    n, k = g.shape[1], basis.shape[1]
    charge((16 * len(basis) + 8 + n) << k, f"listing 2^{k} words", cap)
    words = xor_span(basis, cap)
    gray = np.arange(words.shape[1])
    gray ^= gray >> 1
    return unpack_rows(words.T[gray], n)


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


def xor_span(basis: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All XOR combinations of packed words along the last axis of basis,
    (..., k) -> (..., 2^k), in basis's unsigned dtype.

    Entry a is the XOR of the entries i with bit i of a set, built by
    doubling: out[..., 2^i : 2^(i+1)] = out[..., :2^i] ^ basis[..., i].
    The cap counts the result, leading axes included.
    """
    basis = np.asarray(basis)
    k, lead = basis.shape[-1], math.prod(basis.shape[:-1])
    charge(basis.itemsize * lead << k, f"a span of {lead} x 2^{k} entries", cap)
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
    caller may modify it in place.  The cap counts both spans and the
    buffer.
    """
    basis = np.asarray(basis)
    k, lead = basis.shape[-1], math.prod(basis.shape[:-1])
    bits = min(bits, k)
    charge(basis.itemsize * lead * ((2 << bits) + (1 << (k - bits))),
           f"spanning {lead} x 2^{k} entries by 2^{bits}", cap)
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

    Entry a is the weight of span_words entry a, in the narrowest dtype
    holding the column count; any count works, one block of 64 columns
    spanned at a time.  The cap counts a block, its popcounts, the weights.
    """
    blocks = pack_words(m).T
    dtype, k = np.min_scalar_type(np.shape(m)[1]), blocks.shape[1]
    charge((9 + dtype.itemsize) << k, f"weighing 2^{k} span words", cap)
    weights = np.zeros(1 << k, dtype)
    for block in blocks:
        weights += np.bitwise_count(xor_span(block, cap))
    return weights


def fwht(a: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform of a length-2^r array, in place.

    Afterwards a[u] = sum_s a_old[s] (-1)^popcount(u & s); one vectorised
    butterfly pass per bit.  From 2^12 entries on, the passes of the five
    low bits run on a transposed copy, where they pair contiguous rows in
    place: lo += hi; hi *= -2; hi += lo leaves lo - hi in hi, exact under
    wraparound.  The others pair runs of at least 32 entries, through
    temporaries half as large as the table.
    """
    h = 1
    if a.size >= 1 << 12:
        rows = a.reshape(-1, 32)
        t = rows.T.copy()
        for h in (1, 2, 4, 8, 16):
            for j in range(0, 32, 2 * h):
                lo, hi = t[j:j + h], t[j + h:j + 2 * h]
                lo += hi
                hi *= -2
                hi += lo
        rows[...] = t.T
        del t  # freed before the first temporary below
        h = 32
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h <<= 1


def character_squares(syndromes: np.ndarray, r: int) -> np.ndarray:
    """chi(p)^2 for p in GF(2)^c, chi(p) = sum_t (-1)^(p . t) over the K
    rows t of syndromes: their histogram, by fwht, squared, in int64.
    For K cosets' syndromes against r dual rows, by Parseval every sum of
    the squares over dual words is at most K 2^r, which must fit int64.
    """
    K, c = syndromes.shape
    if K << r >= 1 << 63:
        raise StrategyInfeasible(f"{K} * 2^{r} overflows int64 sums")
    index = np.zeros((K, 8), dtype=np.uint8)  # pack_rows' bit order
    index[:, :-(-c // 8)] = np.packbits(syndromes, axis=1, bitorder="little")
    chi = np.bincount(index.view("<i8")[:, 0], minlength=1 << c)
    fwht(chi)
    chi *= chi
    return chi


def character_weights(rows: np.ndarray, syndromes: np.ndarray, weigh,
                      cap: int = DEFAULT_CAP) -> np.ndarray:
    """acc[x] = sum of chi(u)^2 over the words u of the span of the r rows
    that weigh to x, x up to the column count, chi(u) = sum_t (-1)^<u, t>.

    syndromes holds <row j, t> for the first c rows, the others pairing
    to 0 with every t; weigh(rows, cap) weighs the span in span_weights'
    order, so column p of its 2^(r-c) x 2^c table has chi(p).  The cap
    counts weigh's span, then its weights and 16 bytes a chi entry.
    """
    r, c = len(rows), syndromes.shape[1]
    weights = weigh(rows, cap).reshape(-1, 1 << c)
    charge(weights.nbytes + (16 << c),
           f"summing characters over 2^{r} words", cap)
    chi2 = character_squares(syndromes, r)
    acc = np.zeros(np.shape(rows)[1] + 1, dtype=np.int64)
    # np.add.at misreads values it has to broadcast itself (numpy 2.4.6)
    np.add.at(acc, weights, np.broadcast_to(chi2, weights.shape))
    return acc


# --- text format: first line "rows cols", then one 0/1 string per row ---

def format_matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=np.uint8)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend(to_string(row) for row in m)
    return "\n".join(lines) + "\n"


def numbered_lines(text: str | Iterable[str]) -> list[tuple[int, str]]:
    """(line number from 1, stripped text) of each line that is neither
    blank nor a '#' comment."""
    if isinstance(text, str):
        text = text.splitlines()
    return [(i, ln.strip()) for i, ln in enumerate(text, 1)
            if ln.strip() and not ln.strip().startswith("#")]


def bit_rows(lines: list[tuple[int, str]], ncols: int,
             name: str) -> np.ndarray:
    """The numbered 0/1 lines as a (len(lines), ncols) matrix; a
    ValueError names the first other line as name i, its number and
    text."""
    for i, (at, ln) in enumerate(lines):
        if len(ln) != ncols or set(ln) - {"0", "1"}:
            raise ValueError(f"{name} {i} {ln!r} on line {at} is not a 0/1 "
                             f"string of length {ncols}")
    data = "".join(ln for _, ln in lines).encode()
    return (np.frombuffer(data, np.uint8) - 48).reshape(len(lines), ncols)


def read_matrix(lines: list[tuple[int, str]]):
    """(matrix, the lines after it) from numbered lines that open with
    a "rows cols" header; a ValueError names the failing line."""
    if not lines:
        raise ValueError("empty matrix text")
    at, head = lines[0]
    dims = head.split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise ValueError(f"line {at}: expected a 'rows cols' header, "
                         f"found {head!r}")
    nrows, ncols = int(dims[0]), int(dims[1])
    if len(lines) <= nrows:
        raise ValueError(f"matrix text is truncated: the header on line "
                         f"{at} says {nrows} rows, found {len(lines) - 1}")
    return bit_rows(lines[1:1 + nrows], ncols, "row"), lines[1 + nrows:]


def parse_matrix(text: str | Iterable[str]) -> np.ndarray:
    return read_matrix(numbered_lines(text))[0]
