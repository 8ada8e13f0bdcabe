"""Z4-linear codes over Galois rings GR(4, m'), the Gray map, and
Lee-weight enumerators with MacWilliams duality.

Ring elements are represented as uint8 coefficient vectors of length m'
(coefficients of 1, xi, ..., xi^(m'-1), reduced mod 4).  The Hensel lift
of the base primitive polynomial is computed by the Graeffe square-root
method and verified by the xi-order check at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .errors import (
    BadDegree,
    CapExceeded,
    NonIntegralTransform,
    NotASubcode,
    QuotientTooLarge,
)

DEFAULT_CAP = gf2.DEFAULT_CAP
# rows per block of Z4Code.word_chunks
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
    assert g[-1] == 1
    return g.astype(np.uint8)


class GaloisRingContext:
    """Arithmetic context for GR(4, m') with a verified Teichmueller set."""

    def __init__(self, m_prime: int):
        if m_prime % 2 == 0 or not (3 <= m_prime <= 9):
            raise BadDegree(f"extension degree must be odd and in [3, 9], got {m_prime}")
        self.m_prime = m_prime
        self.modulus = _hensel_lift(_BASE_POLYS[m_prime])
        self._xpow = self._reduction_table()
        n = 2**m_prime - 1
        xi = np.zeros(m_prime, dtype=np.uint8)
        xi[1 % m_prime] = 1
        if m_prime == 1:  # pragma: no cover - degree 1 excluded above
            xi[0] = 1
        powers = [self.one()]
        for _ in range(n - 1):
            powers.append(self.mul(powers[-1], xi))
        # Order check: xi^(2^m'-1) = 1 and all powers distinct.
        if not np.array_equal(self.mul(powers[-1], xi), self.one()):
            raise BadDegree("Hensel lift failed the xi-order check")
        keys = {p.tobytes() for p in powers}
        if len(keys) != n:
            raise BadDegree("Teichmueller powers are not distinct")
        self.xi = xi
        self.teichmuller = [self.zero()] + powers
        # mod-2 reduction -> Teichmueller element, for Frobenius decomposition
        self._teich_by_residue = {
            (t % 2).tobytes(): t for t in self.teichmuller
        }

    # --- element helpers ---

    def zero(self) -> np.ndarray:
        return np.zeros(self.m_prime, dtype=np.uint8)

    def one(self) -> np.ndarray:
        e = np.zeros(self.m_prime, dtype=np.uint8)
        e[0] = 1
        return e

    def _reduction_table(self) -> np.ndarray:
        """Coefficients of x^t mod modulus, for t in [0, 2m'-2]."""
        m = self.m_prime
        table = np.zeros((2 * m - 1, m), dtype=np.uint8)
        for t in range(m):
            table[t, t] = 1
        # x^m = -sum(modulus[i] x^i)
        top = (-self.modulus[:m].astype(np.int64)) % 4
        table[m - 1 + 1] = top if m >= 1 else top
        for t in range(m + 1, 2 * m - 1):
            prev = table[t - 1].astype(np.int64)
            shifted = np.zeros(m, dtype=np.int64)
            shifted[1:] = prev[:-1]
            shifted = (shifted + prev[m - 1] * top) % 4
            table[t] = shifted.astype(np.uint8)
        return table

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ((a.astype(np.int64) + b) % 4).astype(np.uint8)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        conv = np.convolve(a.astype(np.int64), b.astype(np.int64))
        out = np.zeros(self.m_prime, dtype=np.int64)
        for t, c in enumerate(conv):
            if c:
                out += c * self._xpow[t].astype(np.int64)
        return (out % 4).astype(np.uint8)

    def teich_decompose(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write e = a + 2b with a, b in the Teichmueller set."""
        a = self._teich_by_residue[(e % 2).tobytes()]
        half = ((e.astype(np.int64) - a) % 4) // 2
        b = self._teich_by_residue[(half % 2).astype(np.uint8).tobytes()]
        return a, b

    def frobenius(self, e: np.ndarray) -> np.ndarray:
        a, b = self.teich_decompose(e)
        a2 = self.mul(a, a)
        b2 = self.mul(b, b)
        return self.add(a2, (2 * b2.astype(np.int64) % 4).astype(np.uint8))

    def trace(self, e: np.ndarray) -> int:
        """Trace from GR(4, m') down to Z4."""
        acc = self.zero().astype(np.int64)
        cur = e
        for _ in range(self.m_prime):
            acc = (acc + cur) % 4
            cur = self.frobenius(cur)
        acc %= 4
        assert not acc[1:].any(), "trace did not land in Z4"
        return int(acc[0])


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

    def _reduce(self, v: np.ndarray, canonical: bool) -> tuple[np.ndarray, bool]:
        """Subtract generator rows to reduce v; triangular back-substitution.

        With canonical=False returns (residual, consistent): residual is zero
        exactly when v is a codeword.  With canonical=True returns the
        canonical coset representative (pivot residues minimized).
        """
        v = v.astype(np.int64) % 4
        g = self.generator.astype(np.int64)
        ok = True
        for r in range(self.k1 + self.k2):
            p = self.pivots[r]
            if r < self.k1:
                c = v[p] % 4
            else:
                if v[p] % 2 == 1:
                    ok = False
                    if not canonical:
                        break
                    c = (v[p] - 1) // 2
                else:
                    c = v[p] // 2
            if c:
                v = (v - c * g[r]) % 4
        return v.astype(np.uint8), ok

    def contains(self, v: np.ndarray) -> bool:
        res, ok = self._reduce(np.asarray(v) % 4, canonical=False)
        return ok and not res.any()

    def coset_canon(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v + code (deterministic)."""
        res, _ = self._reduce(np.asarray(v) % 4, canonical=True)
        return res

    def words(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        """All codewords as a (size x n4) uint8 matrix, message order."""
        return np.concatenate(list(self.word_chunks(cap)))

    def word_chunks(self, cap: int = DEFAULT_CAP):
        """The codewords in message order, in blocks of WORD_CHUNK rows.

        Returns an iterator of uint8 matrices.  Raises CapExceeded when
        size > cap, before anything is allocated.
        """
        if self.size > cap:
            raise CapExceeded(f"{self.size} words exceed cap {cap}")
        return (self._message_words(i, min(i + WORD_CHUNK, self.size))
                for i in range(0, self.size, WORD_CHUNK))

    def _message_words(self, start: int, stop: int) -> np.ndarray:
        """Codewords of the messages start .. stop - 1 (mixed radix 4, 2)."""
        k1, k2 = self.k1, self.k2
        rem = np.arange(start, stop, dtype=np.int64)
        msgs = np.empty((rem.size, k1 + k2), dtype=np.int64)
        for j in range(k1 + k2 - 1, -1, -1):
            radix = 4 if j < k1 else 2
            msgs[:, j] = rem % radix
            rem //= radix
        words = msgs @ self.generator.astype(np.int64)
        words &= 3
        return words.astype(np.uint8)


def z4_standard_form(g: np.ndarray) -> Z4Code:
    """Row-reduce a Z4 matrix, identifying (k1, k2); row span preserved."""
    g = np.asarray(g, dtype=np.int64) % 4
    nrows, n4 = g.shape
    active = [g[i].copy() for i in range(nrows)]
    unit_rows: list[tuple[int, np.ndarray]] = []
    # Pass 1: unit pivots, fully reduced among themselves.
    for col in range(n4):
        pick = None
        for i, row in enumerate(active):
            if row[col] % 2 == 1:
                pick = i
                break
        if pick is None:
            continue
        row = active.pop(pick)
        if row[col] == 3:
            row = (3 * row) % 4
        for j in range(len(active)):
            c = active[j][col] % 4
            if c:
                active[j] = (active[j] - c * row) % 4
        for idx in range(len(unit_rows)):
            pcol, urow = unit_rows[idx]
            c = urow[col] % 4
            if c:
                unit_rows[idx] = (pcol, (urow - c * row) % 4)
        unit_rows.append((col, row))
    # Remaining rows now have even entries only.
    two_rows: list[tuple[int, np.ndarray]] = []
    for col in range(n4):
        pick = None
        for i, row in enumerate(active):
            if row[col] % 4 == 2:
                pick = i
                break
        if pick is None:
            continue
        row = active.pop(pick)
        for j in range(len(active)):
            if active[j][col] % 4 == 2:
                active[j] = (active[j] - row) % 4
        for idx in range(len(two_rows)):
            pcol, trow = two_rows[idx]
            if trow[col] % 4 == 2:
                two_rows[idx] = (pcol, (trow - row) % 4)
        two_rows.append((col, row))
    for row in active:
        assert not (row % 4).any(), "leftover nonzero row after Z4 reduction"
    unit_rows.sort(key=lambda t: t[0])
    two_rows.sort(key=lambda t: t[0])
    pivots = [p for p, _ in unit_rows] + [p for p, _ in two_rows]
    rows = [r for _, r in unit_rows] + [r for _, r in two_rows]
    k1, k2 = len(unit_rows), len(two_rows)
    gen = (
        np.array(rows, dtype=np.uint8)
        if rows
        else np.zeros((0, n4), dtype=np.uint8)
    )
    return Z4Code(n4=n4, generator=gen, k1=k1, k2=k2, pivots=pivots)


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
    assert dual.size * c.size == 4**n4
    return dual


# --------------------------------------------------------------------------
# Named constructions
# --------------------------------------------------------------------------

def kerdock_z4(ctx: GaloisRingContext) -> Z4Code:
    """Free quaternary Kerdock code of type 4^(m'+1), length 2^m'.

    Coordinates: the parity position first, then the Teichmueller points
    xi^0, ..., xi^(n-1).  Rows: all-ones, then trace rows for the basis
    1, xi, ..., xi^(m'-1).
    """
    m = ctx.m_prime
    n = 2**m - 1
    rows = [np.ones(n + 1, dtype=np.uint8)]
    xi_pows = ctx.teichmuller[1:]  # xi^0 .. xi^(n-1)
    for i in range(m):
        beta = ctx.teichmuller[1 + i]  # xi^i
        row = np.zeros(n + 1, dtype=np.uint8)
        for j in range(n):
            row[1 + j] = ctx.trace(ctx.mul(beta, xi_pows[j]))
        rows.append(row)
    code = z4_standard_form(np.array(rows))
    assert code.k1 == m + 1 and code.k2 == 0
    return code


def goethals_check_z4(ctx: GaloisRingContext) -> Z4Code:
    """Z4-dual of the Goethals code: rows all-ones, trace rows for x,
    and doubled trace rows for x^3.  Type 4^(m'+1) 2^m'."""
    m = ctx.m_prime
    if m < 5:
        raise BadDegree("Goethals construction degenerates below m' = 5")
    n = 2**m - 1
    rows = [np.ones(n + 1, dtype=np.uint8)]
    xi_pows = ctx.teichmuller[1:]
    for i in range(m):
        beta = ctx.teichmuller[1 + i]
        row = np.zeros(n + 1, dtype=np.uint8)
        for j in range(n):
            row[1 + j] = ctx.trace(ctx.mul(beta, xi_pows[j]))
        rows.append(row)
    for i in range(m):
        beta = ctx.teichmuller[1 + i]
        row = np.zeros(n + 1, dtype=np.uint8)
        for j in range(n):
            cube = ctx.mul(xi_pows[j], ctx.mul(xi_pows[j], xi_pows[j]))
            row[1 + j] = (2 * ctx.trace(ctx.mul(beta, cube))) % 4
        rows.append(row)
    code = z4_standard_form(np.array(rows))
    assert code.k1 == m + 1 and code.k2 == m
    return code


def goethals_z4(ctx: GaloisRingContext) -> Z4Code:
    """Quaternary Goethals code (dual of the explicit check code)."""
    return z4_dual(goethals_check_z4(ctx))


# --------------------------------------------------------------------------
# Gray map and weight enumerators
# --------------------------------------------------------------------------

def gray_image(v: np.ndarray) -> np.ndarray:
    """Componentwise 0->00, 1->01, 2->11, 3->10; first bits then second bits.

    Output = (carry(v) | carry(v) + (v mod 2)); Hamming weight of the image
    equals the Lee weight of v.
    """
    v = np.asarray(v, dtype=np.uint8) % 4
    carry = v // 2
    return np.concatenate([carry, (carry + v) % 2]).astype(np.uint8)


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


def lee_swe(c: Z4Code, cap: int = DEFAULT_CAP) -> SymmetrizedWeightEnumerator:
    """Exact symmetrized weight enumerator by full enumeration.

    Each word is keyed by ones * (n4 + 1) + twos and the keys are counted
    chunk by chunk, so memory stays bounded by the chunk size.
    """
    side = c.n4 + 1
    counts = np.zeros(side * side, dtype=np.int64)
    for words in c.word_chunks(cap):
        ones = (words & 1).sum(axis=1, dtype=np.intp)
        twos = (words == 2).sum(axis=1, dtype=np.intp)
        counts += np.bincount(ones * side + twos, minlength=counts.size)
    coeffs = {divmod(key, side): int(counts[key])
              for key in np.flatnonzero(counts).tolist()}
    return SymmetrizedWeightEnumerator(n4=c.n4, coeffs=coeffs)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (y1, z1), c1 in p.items():
        for (y2, z2), c2 in q.items():
            key = (y1 + y2, z1 + z2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _poly_pow(base: dict, e: int, cache: dict) -> dict:
    if e in cache:
        return cache[e]
    if e == 0:
        res = {(0, 0): 1}
    else:
        res = _poly_mul(_poly_pow(base, e - 1, cache), base)
    cache[e] = res
    return res


def swe_macwilliams(
    swe: SymmetrizedWeightEnumerator, code_size: int, n4: Optional[int] = None
) -> SymmetrizedWeightEnumerator:
    """Dual enumerator via (W0, W1, W2) -> (W0+2W1+W2, W0-W2, W0-2W1+W2)/|C|.

    Exact integer arithmetic; raises NonIntegralTransform if the result is
    not a non-negative integer enumerator (inconsistent input).
    """
    if n4 is None:
        n4 = swe.n4
    if swe.total != code_size:
        raise NonIntegralTransform(
            f"coefficients sum to {swe.total}, expected code size {code_size}"
        )
    # Homogeneous polynomials in (Y, Z); the X exponent is implicit.
    p0 = {(0, 0): 1, (1, 0): 2, (0, 1): 1}   # X + 2Y + Z
    p1 = {(0, 0): 1, (0, 1): -1}             # X - Z
    p2 = {(0, 0): 1, (1, 0): -2, (0, 1): 1}  # X - 2Y + Z
    c0: dict = {}
    c1: dict = {}
    c2: dict = {}
    acc: dict[tuple[int, int], int] = {}
    for (a, b), coeff in swe.coeffs.items():
        term = _poly_mul(
            _poly_pow(p0, n4 - a - b, c0),
            _poly_mul(_poly_pow(p1, a, c1), _poly_pow(p2, b, c2)),
        )
        for key, val in term.items():
            acc[key] = acc.get(key, 0) + coeff * val
    out: dict[tuple[int, int], int] = {}
    for key, val in acc.items():
        if val % code_size != 0:
            raise NonIntegralTransform(f"coefficient at {key} is {val}/{code_size}")
        q = val // code_size
        if q < 0:
            raise NonIntegralTransform(f"negative coefficient at {key}")
        if q:
            out[key] = q
    return SymmetrizedWeightEnumerator(n4=n4, coeffs=out)


# --------------------------------------------------------------------------
# Gray-image kernel and coset quotients
# --------------------------------------------------------------------------

def _even_half_basis(c: Z4Code) -> np.ndarray:
    """Binary basis of B = {w : 2w in c} (halved even subcode)."""
    rows = [c.generator[i] % 2 for i in range(c.k1)]
    rows += [(c.generator[c.k1 + i] // 2) % 2 for i in range(c.k2)]
    if not rows:
        return np.zeros((0, c.n4), dtype=np.uint8)
    return gf2._independent_rows(np.array(rows, dtype=np.uint8))


def _mod2_kernel_condition(c: Z4Code) -> np.ndarray:
    """Basis of the binary residues x_bar with (x_bar AND g_bar) in B
    for every generator g of c (order-2 generators impose nothing)."""
    b = _even_half_basis(c)
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
    kbar = _mod2_kernel_condition(c)
    rows = []
    for w in b:
        rows.append(np.concatenate([w, w]))
    for xbar in kbar:
        rows.append(gray_image(_lift_mod2(c, xbar)))
    if not rows:
        return np.zeros((0, 2 * c.n4), dtype=np.uint8)
    return gf2._independent_rows(np.array(rows, dtype=np.uint8))


def kernel_preimage(c: Z4Code) -> Z4Code:
    """Subcode {x in c : x mod 2 in the kernel residue space}."""
    b = _even_half_basis(c)
    kbar = _mod2_kernel_condition(c)
    rows = [(2 * w.astype(np.int64) % 4).astype(np.uint8) for w in b]
    rows += [_lift_mod2(c, xbar) for xbar in kbar]
    if not rows:
        return z4_standard_form(np.zeros((0, c.n4), dtype=np.uint8))
    return z4_standard_form(np.array(rows))


def z4_quotient_reps(
    c: Z4Code, sub: Z4Code, cap: int = 1 << 20
) -> list[np.ndarray]:
    """One canonical representative per coset of sub inside c, zero first.

    Raises NotASubcode when sub is not contained in c and QuotientTooLarge
    when the index exceeds the cap.
    """
    for row in sub.generator:
        if not c.contains(row):
            raise NotASubcode("sub generator is not a codeword of c")
    index = c.size // sub.size
    if c.size % sub.size != 0 or index > cap:
        raise QuotientTooLarge(f"quotient of size {c.size // sub.size} exceeds cap {cap}")
    zero = sub.coset_canon(np.zeros(c.n4, dtype=np.uint8))
    seen = {zero.tobytes(): zero}
    frontier = [zero]
    gens = [c.generator[i] for i in range(c.k1 + c.k2)]
    while frontier:
        nxt = []
        for rep in frontier:
            for g in gens:
                cand = sub.coset_canon((rep.astype(np.int64) + g) % 4)
                key = cand.tobytes()
                if key not in seen:
                    if len(seen) >= index:
                        raise NotASubcode("closure exceeded expected quotient size")
                    seen[key] = cand
                    nxt.append(cand)
        frontier = nxt
    if len(seen) != index:
        raise NotASubcode(f"closure found {len(seen)} cosets, expected {index}")
    reps = sorted(seen.values(), key=lambda v: tuple(v))
    assert not reps[0].any()
    return reps


# --------------------------------------------------------------------------
# file format: "n4 k1 k2" header, generator rows as digit strings
# --------------------------------------------------------------------------

def format_z4_code(c: Z4Code) -> str:
    lines = [f"{c.n4} {c.k1} {c.k2}"]
    lines.extend("".join(str(int(x)) for x in row) for row in c.generator)
    return "\n".join(lines) + "\n"


def parse_z4_code(text: str) -> Z4Code:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n4, k1, k2 = (int(t) for t in lines[0].split())
    rows = [[int(ch) for ch in ln] for ln in lines[1 : 1 + k1 + k2]]
    code = z4_standard_form(np.array(rows, dtype=np.uint8))
    if code.n4 != n4 or code.k1 != k1 or code.k2 != k2:
        raise ValueError("Z4 code file header does not match rows")
    return code
