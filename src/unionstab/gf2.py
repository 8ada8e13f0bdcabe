"""Dense GF(2) linear algebra on numpy uint8 arrays.

Vectors are 1-D uint8 arrays with entries in {0, 1}; matrices are 2-D.
Position 0 is the leftmost printed bit.  All public functions leave their
inputs untouched and return fresh arrays.  Vectors of length at most 64
can also be packed into uint64 words (bit j = position j) and a whole row
space spanned at once by span_words.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

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
    pivot columns are strictly increasing.
    """
    r = (np.asarray(m, dtype=np.uint8) % 2).copy()
    if r.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sub = np.nonzero(r[row:, col])[0]
        if sub.size == 0:
            continue
        pr = row + sub[0]
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        # Clear the column everywhere else (full reduction).
        hits = np.nonzero(r[:, col])[0]
        for h in hits:
            if h != row:
                r[h] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots, len(pivots)


def rank(m: np.ndarray) -> int:
    return rref(m)[2]


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {x : m @ x = 0}, one row per basis vector.

    Row count is always cols - rank(m); the result may have zero rows.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    nrows, ncols = m.shape
    red, pivots, rk = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for prow, pcol in enumerate(pivots):
            basis[i, pcol] = red[prow, fc]
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
    """h @ v over GF(2)."""
    h = np.asarray(h, dtype=np.uint8)
    v = as_bits(v)
    if v.shape[0] != h.shape[1]:
        raise ValueError("dimension mismatch in syndrome")
    return (h.astype(np.int64) @ v.astype(np.int64) % 2).astype(np.uint8)


def row_space_contains(m: np.ndarray, v: np.ndarray) -> bool:
    """Whether v lies in the row space of m."""
    m = np.asarray(m, dtype=np.uint8)
    v = as_bits(v)
    stacked = np.vstack([m, v.reshape(1, -1)])
    return rank(stacked) == rank(m)


def row_spaces_equal(a: np.ndarray, b: np.ndarray) -> bool:
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    return rank(np.vstack([a, b])) == ra


def _independent_rows(m: np.ndarray) -> np.ndarray:
    """Rows of rref(m) restricted to the nonzero ones (a basis)."""
    red, _, rk = rref(m)
    return red[:rk]


def enumerate_words(g: np.ndarray, cap: int = DEFAULT_CAP) -> Iterator[np.ndarray]:
    """Yield all 2^rank codewords of the row space of g exactly once.

    Messages run in reflected Gray-code order, so consecutive words differ
    by a single basis row.  Raises CapExceeded when 2^rank > cap.
    """
    basis = _independent_rows(np.asarray(g, dtype=np.uint8))
    k = basis.shape[0]
    if 2**k > cap:
        raise CapExceeded(f"2^{k} words exceed cap {cap}")
    word = np.zeros(g.shape[1], dtype=np.uint8)
    yield word.copy()
    for i in range(1, 2**k):
        bit = (i & -i).bit_length() - 1  # flipped Gray-code position
        word ^= basis[bit]
        yield word.copy()


def word_matrix(g: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All codewords as a (2^rank x n) matrix, in Gray-code message order."""
    basis = _independent_rows(np.asarray(g, dtype=np.uint8))
    k = basis.shape[0]
    if 2**k > cap:
        raise CapExceeded(f"2^{k} words exceed cap {cap}")
    if k == 0:
        return np.zeros((1, g.shape[1]), dtype=np.uint8)
    idx = np.arange(2**k, dtype=np.uint64)
    gray = idx ^ (idx >> np.uint64(1))
    msgs = ((gray[:, None] >> np.arange(k, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)
    return (msgs.astype(np.int64) @ basis.astype(np.int64) % 2).astype(np.uint8)


def pack_rows(m: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix with at most 64 columns as uint64 words.

    Bit j of each word holds column j.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    if m.ndim != 2 or m.shape[1] > 64:
        raise ValueError("pack_rows expects a 2-D matrix of at most 64 columns")
    padded = np.zeros((m.shape[0], 64), dtype=np.uint8)
    padded[:, :m.shape[1]] = m
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").ravel()


def span_words(m: np.ndarray, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All 2^k XOR combinations of the k rows of m, as packed uint64 words.

    Rows are packed by pack_rows and need not be independent.  Entry a of
    the result is the XOR of the rows i with bit i of a set, built by
    doubling: out[2^i : 2^(i+1)] = out[:2^i] ^ row_i.  Raises CapExceeded
    when 2^k > cap, before allocating anything of that size.
    """
    k = np.shape(m)[0]
    if (1 << k) > cap:
        raise CapExceeded(f"2^{k} words exceed cap {cap}")
    rows = pack_rows(m)
    out = np.empty(1 << k, dtype=np.uint64)
    out[0] = 0
    for i, row in enumerate(rows):
        np.bitwise_xor(out[:1 << i], row, out=out[1 << i:2 << i])
    return out


def min_weight_nonzero(g: np.ndarray, cap: int = DEFAULT_CAP) -> int:
    """Minimum Hamming weight over the nonzero codewords of the row space."""
    words = word_matrix(g, cap)
    w = words.sum(axis=1)
    nz = w[w > 0]
    if nz.size == 0:
        raise ValueError("code has no nonzero words")
    return int(nz.min())


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
