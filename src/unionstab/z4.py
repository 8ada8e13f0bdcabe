"""Z4-linear codes over Galois rings GR(4, m'), the Gray map, and
Lee-weight enumerators with MacWilliams duality.

Ring elements are represented as uint8 coefficient vectors of length m'
(coefficients of 1, xi, ..., xi^(m'-1), reduced mod 4).  The Hensel lift
of the base primitive polynomial is computed by the Graeffe square-root
method and verified by the xi-order check at construction time.
Codewords are enumerated as bit planes (lo, hi) with v = lo + 2 hi,
each packed by gf2.pack_words and read back by gf2.unpack_rows.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .errors import (
    BadDegree,
    ConstructionMismatch,
    NonIntegralTransform,
    NotASubcode,
)

# most words per block of _plane_chunks
WORD_CHUNK = 1 << 14

# Primitive binary polynomials, as bit lists (constant term first).
_BASE_POLYS = {
    3: [1, 1, 0, 1],                    # x^3 + x + 1
    5: [1, 0, 1, 0, 0, 1],              # x^5 + x^2 + 1
    7: [1, 1, 0, 0, 0, 0, 0, 1],        # x^7 + x + 1
    9: [1, 0, 0, 0, 1, 0, 0, 0, 0, 1],  # x^9 + x^4 + 1
}


def _hensel_lift(f: Sequence[int]) -> np.ndarray:
    """Graeffe lift of a binary polynomial to Z4.

    g(x^2) = (-1)^deg * f(x) * f(-x) mod 4; returns coefficients of g,
    constant term first, leading coefficient 1.
    """
    deg = len(f) - 1
    fm = [((-1) ** i * c) % 4 for i, c in enumerate(f)]  # f(-x)
    prod = np.zeros(2 * deg + 1, dtype=np.int64)
    for i, a in enumerate(f):
        for j, b in enumerate(fm):
            prod[i + j] += a * b
    prod %= 4
    g = prod[::2]  # coefficients of even powers
    if deg % 2 == 1:
        g = (-g) % 4
    if g[-1] != 1:
        raise ConstructionMismatch(
            f"Hensel lift of {list(f)} has leading coefficient {g[-1]}, not 1")
    return g.astype(np.uint8)


class GaloisRingContext:
    """GR(4, m') with a verified Teichmueller set: the powers of xi."""

    def __init__(self, m_prime: int):
        if m_prime % 2 == 0 or not (3 <= m_prime <= 9):
            raise BadDegree(f"extension degree must be odd and in [3, 9], got {m_prime}")
        self.m_prime = m_prime
        self.modulus = _hensel_lift(_BASE_POLYS[m_prime])
        n = 2**m_prime - 1
        # row i of step is xi^i * xi: the unit row i + 1, then xi^m'
        step = np.eye(m_prime, k=1, dtype=np.int64)
        step[-1] = -self.modulus[:m_prime].astype(np.int64) % 4
        # powers[k] = xi^k for k = 0 .. n, by doubling:
        # powers[h:2h] = powers[:h] step^h
        powers = np.zeros((n + 1, m_prime), dtype=np.int64)
        powers[0, 0] = 1
        h = 1
        while h <= n:
            k = min(h, n + 1 - h)
            powers[h:h + k] = powers[:k] @ step % 4
            step = step @ step % 4
            h <<= 1
        # Order check: xi^(2^m'-1) = 1 and all powers distinct.
        if not np.array_equal(powers[n], self.one()):
            raise BadDegree("Hensel lift failed the xi-order check")
        if len(set((powers[:n] @ 4 ** np.arange(m_prime)).tolist())) != n:
            raise BadDegree("Teichmueller powers are not distinct")
        powers = list(powers[:n].astype(np.uint8))
        self.xi = powers[1]
        self.teichmuller = [self.zero()] + powers

    # --- element helpers ---

    def zero(self) -> np.ndarray:
        return np.zeros(self.m_prime, dtype=np.uint8)

    def one(self) -> np.ndarray:
        e = np.zeros(self.m_prime, dtype=np.uint8)
        e[0] = 1
        return e


def gr4_build(m_prime: int) -> GaloisRingContext:
    return GaloisRingContext(m_prime)


# --------------------------------------------------------------------------
# Z4 codes
# --------------------------------------------------------------------------

@dataclass
class Z4Code:
    """Quaternary linear code given by a row-reduced generator matrix.

    Rows are ordered unit-pivot rows first (k1 of them, order 4), then
    order-2 rows (k2, all entries in {0, 2}); ``pivots`` lists the pivot
    column of each row in the same order.
    """

    n4: int
    generator: np.ndarray  # (k1+k2) x n4 uint8, entries mod 4
    k1: int
    k2: int
    pivots: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return 4**self.k1 * 2**self.k2

    def log2_size(self) -> int:
        return 2 * self.k1 + self.k2

    def contains(self, v: np.ndarray) -> bool:
        """Whether v is a codeword: whether its coset representative is 0.

        An odd entry at an order-2 pivot stays odd under every later row,
        all of whose entries are even, so such a v never reduces to 0.
        """
        return not self.coset_canon(v).any()

    def coset_canon(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v + code (deterministic).

        Generator rows are subtracted in order, triangular back-substitution:
        a unit-pivot row clears its pivot, an order-2 row takes its pivot
        entry down to 0 or 1.
        """
        v = np.asarray(v).astype(np.int64) % 4
        g = self.generator.astype(np.int64)
        for r in range(self.k1 + self.k2):
            p = self.pivots[r]
            c = v[p] if r < self.k1 else v[p] // 2
            if c:
                v = (v - c * g[r]) % 4
        return v.astype(np.uint8)

    def words(self, cap: int = gf2.DEFAULT_CAP) -> np.ndarray:
        """All codewords as a (size x n4) uint8 matrix, message order.

        The cap counts the matrix, its blocks and their planes.
        """
        gf2.charge(self.size * (4 * self.n4 + 16), f"listing {self.size} "
                   f"words of length {self.n4}", cap)
        return np.concatenate([gf2.unpack_rows(lo, self.n4)
                               | gf2.unpack_rows(hi, self.n4) << 1
                               for lo, hi in _plane_chunks(self, cap)])


def _plane_add(lo, hi, g_lo, g_hi):
    """(lo, hi) + (g_lo, g_hi) mod 4: the low bits carry into the high."""
    return lo ^ g_lo, hi ^ g_hi ^ (lo & g_lo)


def _span_planes(lo, hi, radices: list[int]):
    """Every combination of the rows, with row r taken 0 .. radices[r] - 1
    times, in mixed-radix message order (row 0 most significant).

    Built by doubling from the last row to the first: the span of rows
    r + 1 .. is shifted by each multiple of row r.
    """
    out_lo = np.zeros((math.prod(radices), lo.shape[1]), dtype=np.uint64)
    out_hi = np.zeros_like(out_lo)
    filled = 1
    for r in reversed(range(len(radices))):
        for c in range(1, radices[r]):
            src = slice((c - 1) * filled, c * filled)
            dst = slice(c * filled, (c + 1) * filled)
            out_lo[dst], out_hi[dst] = _plane_add(
                out_lo[src], out_hi[src], lo[r], hi[r])
        filled *= radices[r]
    return out_lo, out_hi


def _plane_chunks(c: Z4Code, cap: int):
    """The codewords of c in message order, as bit-plane blocks (lo, hi).

    The trailing rows are spanned once, up to WORD_CHUNK words; each block
    is that span shifted by one word of the leading rows' span.  The
    cap counts a word per codeword, more than is held: it bounds the time.
    """
    gf2.charge(8 * c.size, f"enumerating {c.size} Z4 words", cap)
    radices = [4] * c.k1 + [2] * c.k2
    split, tail = len(radices), 1
    while split and tail * radices[split - 1] <= WORD_CHUNK:
        split -= 1
        tail *= radices[split]
    lo, hi = gf2.pack_words(c.generator % 2), gf2.pack_words(c.generator // 2)
    t_lo, t_hi = _span_planes(lo[split:], hi[split:], radices[split:])
    l_lo, l_hi = _span_planes(lo[:split], hi[:split], radices[:split])
    return (_plane_add(t_lo, t_hi, w_lo, w_hi) for w_lo, w_hi in zip(l_lo, l_hi))


def _eliminate(active: list[tuple[int, int]], width: int, odd: bool):
    """Pivot rows of one kind taken from active, left to right.

    A row is a pair of bit planes (lo, hi), v = lo + 2 hi, each packed by
    gf2._row_ints (column c is bit width - 1 - c).  Each pivot sits in the
    leftmost column where an active row has an odd entry (odd=True; a
    pivot 3 is scaled to 1) or an entry 2, in the first such row, and
    entry // pivot times it is subtracted from the other active rows and
    the earlier pivot rows, which clears that column there.  Returns
    (pivot columns, pivot rows); active keeps the rows left over.
    """
    cols: list[int] = []
    pivots: list[tuple[int, int]] = []
    shift = 0 if odd else 1  # entry // pivot = entry >> shift
    while True:
        hits = [lo if odd else hi & ~lo for lo, hi in active]
        mask = functools.reduce(operator.or_, hits, 0)
        if not mask:
            return cols, pivots
        bit = mask.bit_length() - 1
        pick = next(i for i, h in enumerate(hits) if h >> bit & 1)
        lo, hi = active.pop(pick)
        if odd and hi >> bit & 1:
            hi ^= lo  # 3 * row
        minus = {1: (lo, hi ^ lo), 2: (0, lo), 3: (lo, hi)}  # -c * row
        for rows in (active, pivots):
            for i, (x_lo, x_hi) in enumerate(rows):
                c = (x_lo >> bit & 1 | (x_hi >> bit & 1) << 1) >> shift
                if c:
                    m_lo, m_hi = minus[c]
                    rows[i] = (x_lo ^ m_lo, x_hi ^ m_hi ^ (x_lo & m_lo))
        cols.append(width - 1 - bit)
        pivots.append((lo, hi))


def z4_standard_form(g: np.ndarray) -> Z4Code:
    """Row-reduce a Z4 matrix, identifying (k1, k2); row span preserved.

    One elimination takes the unit pivots and leaves even rows; the same
    elimination then takes their pivots 2, which leaves only zero rows.
    """
    g = np.asarray(g, dtype=np.int64) % 4
    n4 = g.shape[1]
    width = 8 * -(-n4 // 8)
    active = list(zip(gf2._row_ints(g & 1), gf2._row_ints(g >> 1)))
    unit_cols, unit_rows = _eliminate(active, width, odd=True)
    two_cols, two_rows = _eliminate(active, width, odd=False)
    if any(lo | hi for lo, hi in active):
        raise ConstructionMismatch("a row is left nonzero after Z4 reduction")
    rows = unit_rows + two_rows
    gen = (gf2._int_rows([lo for lo, _ in rows], n4)
           | gf2._int_rows([hi for _, hi in rows], n4) << 1)
    return Z4Code(n4=n4, generator=gen,
                  k1=len(unit_cols), k2=len(two_cols),
                  pivots=unit_cols + two_cols)


def z4_dual(c: Z4Code) -> Z4Code:
    """Dual under the standard inner product sum(x_i y_i) mod 4."""
    n4, k1, k2 = c.n4, c.k1, c.k2
    unit_cols = c.pivots[:k1]
    two_cols = c.pivots[k1:]
    rest = [j for j in range(n4) if j not in set(c.pivots)]
    perm = unit_cols + two_cols + rest
    gp = c.generator[:, perm].astype(np.int64)
    r = len(rest)
    a = gp[:k1, k1 : k1 + k2]                  # k1 x k2 over Z4
    b = gp[:k1, k1 + k2 :]                     # k1 x r over Z4
    cc = (gp[k1:, k1 + k2 :] // 2) % 2         # k2 x r binary
    h = np.zeros((r + k2, n4), dtype=np.int64)
    if r:
        h[:r, :k1] = (-(b.T) - cc.T @ a.T) % 4
        h[:r, k1 : k1 + k2] = cc.T
        h[:r, k1 + k2 :] = np.eye(r, dtype=np.int64)
    if k2:
        h[r:, :k1] = (2 * a.T) % 4
        h[r:, k1 : k1 + k2] = 2 * np.eye(k2, dtype=np.int64)
    # Undo the column permutation.
    out = np.zeros_like(h)
    out[:, perm] = h
    dual = z4_standard_form(out % 4)
    if dual.size * c.size != 4**n4:
        raise ConstructionMismatch(
            f"dual has {dual.size} words, expected 4^{n4} / {c.size}")
    return dual


# --------------------------------------------------------------------------
# Named constructions
# --------------------------------------------------------------------------

def _trace_table(ctx: GaloisRingContext) -> np.ndarray:
    """Tr(xi^k) in Z4 for k = 0 .. 2^m' - 2, as an int64 vector.

    Frobenius squares Teichmueller elements, so Tr(xi^k) is the sum of
    xi^(k 2^i mod (2^m' - 1)) over i < m'.  Raises ConstructionMismatch
    when a sum has a nonzero coefficient beyond the constant one.
    """
    m = ctx.m_prime
    n = 2**m - 1
    powers = np.array(ctx.teichmuller[1:], dtype=np.int64)  # xi^0 .. xi^(n-1)
    orbits = np.arange(n)[:, None] * (1 << np.arange(m)) % n
    sums = powers[orbits].sum(axis=1) % 4
    bad = np.flatnonzero(sums[:, 1:].any(axis=1))
    if bad.size:
        raise ConstructionMismatch(f"trace of xi^{bad[0]} does not land in Z4")
    return sums[:, 0]


def _trace_rows(tr: np.ndarray, m: int, step: int) -> np.ndarray:
    """Rows Tr(xi^i x^step), i < m', over the coordinates 0, xi^0, ...

    The Teichmueller set is closed under products, so entry j + 1 of row
    i is tr[(i + step j) mod n]; the parity coordinate is Tr(0) = 0.
    """
    n = tr.size
    rows = np.zeros((m, n + 1), dtype=np.int64)
    rows[:, 1:] = tr[(np.arange(m)[:, None] + step * np.arange(n)) % n]
    return rows


def _require_type(code: Z4Code, name: str, k1: int, k2: int) -> Z4Code:
    if (code.k1, code.k2) != (k1, k2):
        raise ConstructionMismatch(
            f"{name} code has type 4^{code.k1} 2^{code.k2}, "
            f"expected 4^{k1} 2^{k2}")
    return code


def kerdock_z4(ctx: GaloisRingContext) -> Z4Code:
    """Free quaternary Kerdock code of type 4^(m'+1), length 2^m'.

    Coordinates: the parity position first, then the Teichmueller points
    xi^0, ..., xi^(n-1).  Rows: all-ones, then trace rows for the basis
    1, xi, ..., xi^(m'-1).
    """
    m = ctx.m_prime
    tr = _trace_table(ctx)
    rows = np.vstack([np.ones(tr.size + 1, dtype=np.int64), _trace_rows(tr, m, 1)])
    return _require_type(z4_standard_form(rows), "Kerdock", m + 1, 0)


def goethals_check_z4(ctx: GaloisRingContext) -> Z4Code:
    """Z4-dual of the Goethals code: rows all-ones, trace rows for x,
    and doubled trace rows for x^3.  Type 4^(m'+1) 2^m'."""
    m = ctx.m_prime
    if m < 5:
        raise BadDegree("Goethals construction degenerates below m' = 5")
    tr = _trace_table(ctx)
    rows = np.vstack([np.ones(tr.size + 1, dtype=np.int64),
                      _trace_rows(tr, m, 1), 2 * _trace_rows(tr, m, 3) % 4])
    return _require_type(z4_standard_form(rows), "Goethals check", m + 1, m)


def goethals_z4(ctx: GaloisRingContext) -> Z4Code:
    """Quaternary Goethals code (dual of the explicit check code)."""
    return z4_dual(goethals_check_z4(ctx))


# --------------------------------------------------------------------------
# Gray map and weight enumerators
# --------------------------------------------------------------------------

def gray_image(v: np.ndarray) -> np.ndarray:
    """Componentwise 0->00, 1->01, 2->11, 3->10; first bits then second bits.

    Output = (carry(v) | carry(v) + (v mod 2)), of one vector or of each
    row of a matrix; Hamming weight of the image equals the Lee weight
    of v.
    """
    v = np.asarray(v, dtype=np.uint8) % 4
    carry = v // 2
    return np.concatenate([carry, (carry + v) % 2], axis=-1)


def gray_preimage(w: np.ndarray) -> np.ndarray:
    """Inverse of gray_image (w must have even length)."""
    w = np.asarray(w, dtype=np.uint8) % 2
    n4 = w.shape[0] // 2
    carry = w[:n4]
    low = (w[n4:] ^ carry) % 2
    return (2 * carry + low).astype(np.uint8) % 4


def lee_weight(v: np.ndarray) -> int:
    v = np.asarray(v, dtype=np.uint8) % 4
    return int((v % 2 == 1).sum() + 2 * (v == 2).sum())


@dataclass
class SymmetrizedWeightEnumerator:
    """Coefficients keyed by (#{+-1 entries}, #{2 entries}); #0s implicit."""

    n4: int
    coeffs: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.coeffs.values())

    def min_nonzero_lee_weight(self) -> int:
        weights = [a + 2 * b for (a, b), c in self.coeffs.items() if c and (a or b)]
        if not weights:
            raise ValueError("enumerator has no nonzero-weight terms")
        return min(weights)


def lee_swe(c: Z4Code, cap: int = gf2.DEFAULT_CAP,
            ) -> SymmetrizedWeightEnumerator:
    """Exact symmetrized weight enumerator by full enumeration.

    Each word is keyed by ones * (n4 + 1) + twos, read off its bit planes
    as popcount(lo) and popcount(hi & ~lo), and the keys are counted block
    by block, so memory stays bounded by the block size.
    """
    side = c.n4 + 1
    counts = np.zeros(side * side, dtype=np.int64)
    for lo, hi in _plane_chunks(c, cap):
        ones = np.bitwise_count(lo).sum(axis=1, dtype=np.intp)
        twos = np.bitwise_count(hi & ~lo).sum(axis=1, dtype=np.intp)
        counts += np.bincount(ones * side + twos, minlength=counts.size)
    coeffs = {divmod(key, side): int(counts[key])
              for key in np.flatnonzero(counts).tolist()}
    return SymmetrizedWeightEnumerator(n4=c.n4, coeffs=coeffs)


def _krawtchouk_row(x: int, n: int, q: int = 2) -> list[int]:
    """K_k(x; n, q) for k = 0 .. n: the z^k coefficients of
    (1-z)^x (1+(q-1)z)^(n-x), from K_0 = 1 by the three-term recurrence
    (MacWilliams and Sloane, ch. 5) (k + 1) K_(k+1) = ((q-1)(n - k) + k
    - q x) K_k - (q-1)(n - k + 1) K_(k-1), whose division is exact.
    """
    row, prev = [1], 0
    for k in range(n):
        row.append((((q - 1) * (n - k) + k - q * x) * row[-1]
                    - (q - 1) * (n - k + 1) * prev) // (k + 1))
        prev = row[-2]
    return row


def _krawtchouk_expand(counts: list[int], n: int, r: int,
                       q: int = 2) -> list[int]:
    """2^-r sum_x counts[x] K_w(x; n, q) for w = 0 .. n in exact integers,
    the MacWilliams transform onto the dual of a code of 2^r words; a sum
    that 2^r does not divide raises ConstructionMismatch."""
    poly = [0] * (n + 1)
    for x, c in enumerate(counts):
        if c:
            for w, k in enumerate(_krawtchouk_row(x, n, q)):
                poly[w] += c * k
    if any(p % (1 << r) for p in poly):
        raise ConstructionMismatch("enumerator transform is not integral")
    return [p >> r for p in poly]


def swe_macwilliams(
    swe: SymmetrizedWeightEnumerator, code_size: int, n4: Optional[int] = None
) -> SymmetrizedWeightEnumerator:
    """Dual enumerator via (W0, W1, W2) -> (W0+2W1+W2, W0-W2, W0-2W1+W2)/|C|.

    At length n = n4, the coefficient of Y^a' Z^b' in
    (X+2Y+Z)^(n-a-b) (X-Z)^a (X-2Y+Z)^b
    is 2^a' K_a'(b; n-a) K_b'(a; n-a'), and 0 when a + a' > n, with K the
    binary Krawtchouk numbers; the sum over the input terms (a, b) is
    factored through S(a, a') = sum_b W(a, b) K_a'(b; n-a).  Exact
    integer arithmetic; the keys come by total degree, then descending
    ones.  Raises NonIntegralTransform if the result is not a non-negative
    integer enumerator (inconsistent input).
    """
    if n4 is None:
        n4 = swe.n4
    if swe.total != code_size:
        raise NonIntegralTransform(
            f"coefficients sum to {swe.total}, expected code size {code_size}"
        )
    for a, b in swe.coeffs:
        if min(a, b) < 0 or a + b > n4:
            raise NonIntegralTransform(f"term {(a, b)} does not fit length {n4}")
    kraw = functools.cache(_krawtchouk_row)  # the (x, N) rows read, once each
    partial: dict[int, list[int]] = {}  # a -> S(a, a') over a' = 0 .. n4 - a
    for (a, b), coeff in swe.coeffs.items():
        s = partial.get(a, [0] * (n4 - a + 1))
        partial[a] = [t + coeff * k for t, k in zip(s, kraw(b, n4 - a))]
    acc = []  # acc[a'][b'], before the factor 2^a'
    for ap in range(n4 + 1):
        col = [0] * (n4 - ap + 1)
        for a, s in partial.items():
            if a + ap <= n4 and s[ap]:
                col = [t + s[ap] * k for t, k in zip(col, kraw(a, n4 - ap))]
        acc.append(col)
    out: dict[tuple[int, int], int] = {}
    for deg in range(n4 + 1):
        for ap in range(deg, -1, -1):
            key = (ap, deg - ap)
            val = acc[ap][deg - ap] << ap
            if val % code_size != 0:
                raise NonIntegralTransform(f"coefficient at {key} is {val}/{code_size}")
            q = val // code_size
            if q < 0:
                raise NonIntegralTransform(f"negative coefficient at {key}")
            if q:
                out[key] = q
    return SymmetrizedWeightEnumerator(n4=n4, coeffs=out)


# --------------------------------------------------------------------------
# Gray-image kernel
# --------------------------------------------------------------------------

def _even_half_basis(c: Z4Code) -> np.ndarray:
    """Binary basis of B = {w : 2w in c} (halved even subcode)."""
    rows = [c.generator[i] % 2 for i in range(c.k1)]
    rows += [(c.generator[c.k1 + i] // 2) % 2 for i in range(c.k2)]
    if not rows:
        return np.zeros((0, c.n4), dtype=np.uint8)
    return gf2._independent_rows(np.array(rows, dtype=np.uint8))


def _mod2_kernel_condition(c: Z4Code, b: np.ndarray) -> np.ndarray:
    """Basis of the binary residues x_bar with (x_bar AND g_bar) in B,
    b a basis of B, for every generator g of c (order-2 generators
    impose nothing)."""
    h_b = gf2.kernel_basis(b)  # parity checks of B
    cbar = gf2._independent_rows(c.generator[: c.k1] % 2)
    kdim = cbar.shape[0]
    if kdim == 0:
        return np.zeros((0, c.n4), dtype=np.uint8)
    # Constraints act on the message u: x_bar = u @ cbar.
    constraints = []
    for i in range(c.k1):
        gbar = c.generator[i] % 2
        masked = (cbar * gbar[None, :]) % 2          # rows: basis AND g_bar
        if h_b.shape[0]:
            constraints.append((h_b.astype(np.int64) @ masked.T.astype(np.int64)) % 2)
    if not constraints:
        return cbar
    cmat = np.vstack(constraints).astype(np.uint8)
    null = gf2.kernel_basis(cmat)  # messages u satisfying all constraints
    if null.shape[0] == 0:
        return np.zeros((0, c.n4), dtype=np.uint8)
    return ((null.astype(np.int64) @ cbar.astype(np.int64)) % 2).astype(np.uint8)


def _lift_mod2(c: Z4Code, xbar: np.ndarray) -> np.ndarray:
    """Deterministic codeword of c whose mod-2 reduction is xbar."""
    msg = gf2.solve(c.generator[: c.k1].T % 2, xbar)
    if msg is None:
        raise NotASubcode("residue vector is not in the mod-2 reduction of the code")
    lift = (msg.astype(np.int64) @ c.generator[: c.k1].astype(np.int64)) % 4
    return lift.astype(np.uint8)


def phi_kernel(c: Z4Code) -> np.ndarray:
    """Generator basis of the kernel of the Gray image of c.

    The kernel is {gray(x) : x in c, 2(x*g) in c for every generator g};
    computed by pure linear algebra on residues mod 2.  Returned rows span
    a binary linear code of length 2*n4 in Gray coordinate order.
    """
    b = _even_half_basis(c)
    kbar = _mod2_kernel_condition(c, b)
    rows = []
    for w in b:
        rows.append(np.concatenate([w, w]))
    for xbar in kbar:
        rows.append(gray_image(_lift_mod2(c, xbar)))
    if not rows:
        return np.zeros((0, 2 * c.n4), dtype=np.uint8)
    return gf2._independent_rows(np.array(rows, dtype=np.uint8))
