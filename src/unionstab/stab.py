"""Stabilizer codes as symplectic self-orthogonal binary codes.

Provides generator completion (logical operators via symplectic
Gram-Schmidt), the CSS construction from a pair of classical codes, the
enlargement construction that grows a CSS code through a larger
classical code and a fixed-point-free linear map, and brute-force purity
and distance for small codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .classical import LinearCode
from .errors import (
    BadChain,
    BadMap,
    BadParams,
    ConstructionMismatch,
    DependentGenerators,
    LengthMismatch,
    NotCommuting,
    NotDualContaining,
)
from .pauli import PauliVector, pauli_parse, pauli_str

__all__ = [
    "StabilizerCode",
    "CodeParams",
    "stabilizer_from_generators",
    "css",
    "enlarge_css",
    "default_fixed_point_free",
    "purity_and_distance",
    "format_stabilizer",
    "parse_stabilizer",
]


@dataclass(frozen=True)
class CodeParams:
    """Reported parameters with per-field verification provenance.

    ``log2_dim`` is log2 of the code dimension (k for stabilizer codes,
    log2(K) + k for union codes); ``provenance`` maps field names to the
    strategy that certified them (never a bare claim).
    """

    n: int
    log2_dim: float
    d: int | None
    purity: int | None
    provenance: dict


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k]] stabilizer code with completed logical operators."""

    n: int
    k: int
    stab: tuple[PauliVector, ...]
    logical_z: tuple[PauliVector, ...]
    logical_x: tuple[PauliVector, ...]

    def stab_binary(self) -> np.ndarray:
        """(n-k) x 2n binary matrix of stabilizer rows as (x|z)."""
        return _xz_rows(self.n, self.stab)

    def normalizer_binary(self) -> np.ndarray:
        """(n+k) x 2n binary matrix spanning the normalizer code."""
        return _xz_rows(
            self.n, (*self.stab, *self.logical_x, *self.logical_z))


def _xz_rows(n: int, ps) -> np.ndarray:
    """Pauli vectors as the rows (x|z) of a 0/1 matrix."""
    rows = [np.concatenate([p.x, p.z]) for p in ps]
    return np.array(rows, dtype=np.uint8).reshape(-1, 2 * n)


def _swap(a: np.ndarray, n: int) -> np.ndarray:
    """(x|z) rows, or one row, as (z|x)."""
    return np.concatenate([a[..., n:], a[..., :n]], axis=-1)


def _ip_rows(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Symplectic products between rows of two (x|z) matrices."""
    return (a @ _swap(b, n).T) % 2


def _vec(row: np.ndarray, n: int) -> PauliVector:
    return PauliVector(x=row[:n], z=row[n:])


def _least_reps(span: list[int], rows: list[int]) -> list[int]:
    """Each row, as a Python int, reduced modulo span and the nonzero
    representatives kept before it to the least vector of its coset; the
    nonzero ones, in order.

    span's rows must have distinct leading bits.  The basis stays in
    echelon form, keyed by leading bit, and a row's pivot bits are
    cleared from the highest down: a basis row's highest bit is its
    lead, so that reaches the coset's unique vector with no pivot bit
    set, and any other vector of the coset is larger.
    """
    pivots = {x.bit_length(): x for x in span}
    mask = sum(1 << (lead - 1) for lead in pivots)
    reps = []
    for v in rows:
        hit = v & mask
        while hit:
            v ^= pivots[hit.bit_length()]
            hit = v & mask
        if v:
            pivots[v.bit_length()] = v
            mask |= 1 << (v.bit_length() - 1)
            reps.append(v)
    return reps


def stabilizer_from_generators(gens: list[PauliVector]) -> StabilizerCode:
    """Completes commuting, independent generators to a full code.

    Logical operators are chosen deterministically: each normalizer basis
    row is reduced modulo the stabilizer and the representatives kept so
    far, to the least vector of its coset (_least_reps), and the nonzero
    ones are paired up by symplectic Gram-Schmidt in that order
    (Gottesman's completion).
    """
    if not gens:
        raise BadParams("a stabilizer code needs at least one generator")
    n = gens[0].n
    rows = _xz_rows(n, gens)
    span = gf2._independent_rows(rows)
    if len(span) != len(gens):
        raise DependentGenerators("stabilizer generators are dependent")
    ips = _ip_rows(rows, rows, n)
    if ips.any():
        bad = np.argwhere(ips)[0]
        raise NotCommuting(f"generators {bad[0]} and {bad[1]} anticommute")
    k = n - len(gens)
    # normalizer = kernel of the swapped stabilizer matrix
    norm = gf2.kernel_basis(_swap(rows, n))
    reps = _least_reps(gf2._row_ints(span), gf2._row_ints(norm))
    if len(reps) != 2 * k:
        raise ConstructionMismatch(
            f"{len(reps)} logical representatives, expected {2 * k}")
    # symplectic Gram-Schmidt into hyperbolic pairs, on the int rows: the
    # x half lies n bits above the z half
    def ip(a, b):
        return ((a >> n & b) ^ (a & b >> n)).bit_count() & 1

    pool, xs, zs = reps, [], []
    while pool:
        v, *pool = pool
        j = next((j for j, u in enumerate(pool) if ip(u, v)), None)
        if j is None:
            raise ConstructionMismatch(
                "degenerate symplectic form on the normalizer quotient")
        w = pool.pop(j)
        pool = [u ^ (v if ip(u, w) else 0) ^ (w if ip(u, v) else 0)
                for u in pool]
        xs.append(v)
        zs.append(w)
    xs, zs = gf2._int_rows(xs, 2 * n), gf2._int_rows(zs, 2 * n)
    return StabilizerCode(
        n=n, k=k, stab=tuple(gens),
        logical_x=tuple(_vec(v, n) for v in xs),
        logical_z=tuple(_vec(w, n) for w in zs),
    )


def _gf2_inverse(m: np.ndarray) -> np.ndarray:
    k = m.shape[0]
    aug = np.concatenate([m, np.eye(k, dtype=np.uint8)], axis=1)
    red, pivots, rank = gf2.rref(aug)
    if rank < k or any(p >= k for p in pivots[:k]):
        raise BadMap("matrix is singular over GF(2)")
    return red[:k, k:]


def css(c1: LinearCode, c2: LinearCode) -> StabilizerCode:
    """CSS code [[n, k1 + k2 - n]] from classical codes with dual(c2) in c1.

    X-type stabilizers come from the parity check of c2, Z-type from the
    parity check of c1; logical X/Z pairs are coset representatives of
    c1/dual(c2) and c2/dual(c1), normalized to unit pairing.
    """
    n = c1.n
    if c2.n != n:
        raise BadParams("classical codes differ in length")
    h2 = c2.parity_check
    h1 = c1.parity_check
    if not gf2.row_space_contains(c1.generator, h2):
        outside = gf2.reduce_rows(gf2._independent_rows(c1.generator), h2)
        raise NotDualContaining(
            "dual(c2) is not contained in c1: parity-check row "
            f"{int(outside.any(axis=1).argmax())} of c2 lies outside c1")
    k = c1.k + c2.k - n
    if k < 0:
        raise NotDualContaining("negative quantum dimension")
    zeros = np.zeros(n, np.uint8)
    gens = [PauliVector(x=row, z=zeros) for row in h2]
    gens += [PauliVector(x=zeros, z=row) for row in h1]
    g12 = gf2.coset_rep_rows(c1.generator, h2)      # logical X side
    g21 = gf2.coset_rep_rows(c2.generator, h1)      # logical Z side
    if g12.shape[0] != k or g21.shape[0] != k:
        raise ConstructionMismatch(
            f"{len(g12)} and {len(g21)} logical pairs, expected {k}")
    if k:
        m = (g12 @ g21.T) % 2
        g21 = (_gf2_inverse(m).T @ g21) % 2
    code = StabilizerCode(
        n=n, k=k, stab=tuple(gens),
        logical_x=tuple(PauliVector(x=row, z=zeros) for row in g12),
        logical_z=tuple(PauliVector(x=zeros, z=row) for row in g21),
    )
    _check_code(code)
    return code


def _check_code(code: StabilizerCode) -> None:
    n = code.n
    sb = code.stab_binary()
    if _ip_rows(sb, sb, n).any():
        raise NotCommuting("stabilizer rows do not commute")
    full = code.normalizer_binary()
    if gf2.rank(full) != n + code.k:
        raise DependentGenerators("stabilizer + logicals not full rank")
    lx, lz = full[n - code.k:n], full[n:]
    for fault, prods, want in (
            ("logical X{} and Z{} do not pair", _ip_rows(lx, lz, n),
             np.eye(code.k)),
            ("logical X{} anticommutes with stabilizer {}",
             _ip_rows(lx, sb, n), 0),
            ("logical Z{} anticommutes with stabilizer {}",
             _ip_rows(lz, sb, n), 0)):
        bad = np.argwhere(prods != want)
        if bad.size:
            raise ConstructionMismatch(fault.format(*bad[0]))


def default_fixed_point_free(dim: int) -> np.ndarray:
    """Block-diagonal companion matrices with no eigenvalue 0 or 1.

    Uses 2x2 companions of x^2 + x + 1, plus one 3x3 companion of
    x^3 + x + 1 when ``dim`` is odd.
    """
    if dim < 2:
        raise BadMap("fixed-point-free map needs dimension >= 2")
    c2 = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    c3 = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    blocks = []
    rem = dim
    if rem % 2:
        blocks.append(c3)
        rem -= 3
    blocks.extend([c2] * (rem // 2))
    out = np.zeros((dim, dim), dtype=np.uint8)
    pos = 0
    for b in blocks:
        s = b.shape[0]
        out[pos:pos + s, pos:pos + s] = b
        pos += s
    return out


def enlarge_css(c: LinearCode, c_prime: LinearCode,
                a: np.ndarray | None = None) -> StabilizerCode:
    """Steane enlargement: [[n, k + k' - n]] from dual(c) in c in c'.

    The translations (vD | vAD), v over GF(2)^(k'-k), D a transversal of
    c'/c, extend the CSS code css(c, c); since they close under addition
    the result is again a stabilizer code, realized here as the joint +1
    eigenspace of the CSS stabilizers commuting with every translation.
    """
    n = c.n
    if c_prime.n != n:
        raise BadChain("codes differ in length")
    if not gf2.row_space_contains(c_prime.generator, c.generator):
        raise BadChain("c is not contained in c_prime")
    if not gf2.row_space_contains(c.generator, c.parity_check):
        raise BadChain("c does not contain its dual")
    kk = c_prime.k - c.k
    if kk < 2:
        raise BadChain("enlargement needs k' > k + 1")
    a = _fixed_point_free(a, kk)
    d_rows = gf2.coset_rep_rows(c_prime.generator, c.generator)
    if d_rows.shape[0] != kk:
        raise ConstructionMismatch(
            f"{d_rows.shape[0]} coset representatives of c'/c, expected {kk}")
    ad = (a @ d_rows) % 2
    trans = np.concatenate([d_rows, ad], axis=1)   # rows (vD | vAD) basis
    h = c.parity_check
    zero = np.zeros_like(h)
    sb = np.block([[h, zero], [zero, h]])  # css(c, c).stab_binary()
    # keep the stabilizer subgroup commuting with every translation
    prods = _ip_rows(sb, trans, n)
    keep = gf2.kernel_basis(prods.T)
    new_rows = (keep @ sb) % 2
    gens = [_vec(row, n) for row in new_rows]
    code = stabilizer_from_generators(gens)
    if code.k != c.k + c_prime.k - n:
        raise ConstructionMismatch(
            f"enlarged code has k = {code.k}, expected {c.k + c_prime.k - n}")
    return code


def _fixed_point_free(a: np.ndarray | None, kk: int) -> np.ndarray:
    """a as a kk x kk 0/1 matrix, default_fixed_point_free(kk) when None;
    BadMap unless a and a + I are both invertible."""
    a = default_fixed_point_free(kk) if a is None else \
        np.asarray(a, dtype=np.uint8) % 2
    if a.shape != (kk, kk):
        raise BadMap(f"map must be {kk} x {kk}")
    _gf2_inverse(a)                      # singular -> BadMap
    _gf2_inverse((a ^ np.eye(kk, dtype=np.uint8)))  # eigenvalue-1 check
    return a


def enlargement_weight_check(c: LinearCode, c_prime: LinearCode,
                             a: np.ndarray | None = None,
                             cap: int = gf2.DEFAULT_CAP) -> int:
    """Min over nonzero v of min(wgt(vD), wgt(vAD), wgt(vD + vAD)).

    This is the quantity that drives the enlargement distance bound, D a
    transversal of c'/c.  A and A + I must be invertible (BadMap
    otherwise, as in enlarge_css), so v -> vA and v -> v(I + A) permute
    the nonzero messages: the three spans hold the same nonzero weights,
    and the value is the least weight of a nonzero v D, read off that one
    span's gf2.span_weights, which the cap counts.
    """
    _fixed_point_free(a, c_prime.k - c.k)
    d_rows = gf2.coset_rep_rows(c_prime.generator, c.generator)
    return int(gf2.span_weights(d_rows, cap)[1:].min())


def _span_pauli_weights(m: np.ndarray, n: int, cap: int) -> np.ndarray:
    """The Pauli weight of every product of the (x|z) rows of m (entry a
    those picked by its bits): half gf2.span_weights of (x|z|x^z)."""
    return gf2.span_weights(np.concatenate([m, m[:, :n] ^ m[:, n:]], 1),
                            cap) >> 1


def purity_and_distance(code: StabilizerCode,
                        cap: int = gf2.DEFAULT_CAP) -> CodeParams:
    """Brute-force purity d* and distance d over the normalizer code.

    d* is the minimum nonzero weight of the normalizer code; d is the
    minimum weight outside the stabilizer.  Span entry a combines the
    stabilizer rows, then the logicals, picked by its bits, so the
    entries from 2^(n-k) on are the normalizer words outside it.
    """
    weights = _span_pauli_weights(code.normalizer_binary(), code.n, cap)
    d_star = int(weights[1:].min())
    d = int(weights[1 << (code.n - code.k):].min()) if code.k else d_star
    return CodeParams(n=code.n, log2_dim=code.k, d=d, purity=d_star,
                      provenance={"d": "brute-normalizer",
                                  "purity": "brute-normalizer"})


# ---------------------------------------------------------------------------
# File format

def format_stabilizer(code: StabilizerCode) -> str:
    lines = [f"{code.n} {code.k}", "S"]
    lines += [pauli_str(p) for p in code.stab]
    if code.k:
        lines.append("Z")
        lines += [pauli_str(p) for p in code.logical_z]
        lines.append("X")
        lines += [pauli_str(p) for p in code.logical_x]
    return "\n".join(lines) + "\n"


def parse_stabilizer(text: str) -> StabilizerCode:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise BadParams("stabilizer text is empty")
    n, k = (int(x) for x in lines[0].split())
    if not 0 <= k < n:
        raise BadParams(f"header '{lines[0]}' needs 0 <= k < n")
    blocks: dict[str, list[PauliVector]] = {"S": [], "Z": [], "X": []}
    cur = None
    for ln in lines[1:]:
        if ln in blocks:
            cur = ln
            continue
        if cur is None:
            raise BadParams("operator line before any block header")
        p = pauli_parse(ln)
        if p.n != n:
            raise LengthMismatch(f"operator {ln!r} in block {cur} acts on "
                                 f"{p.n} qubits, header says n = {n}")
        blocks[cur].append(p)
    if len(blocks["S"]) != n - k:
        raise BadParams(f"stabilizer block has {len(blocks['S'])} rows, "
                        f"header needs n - k = {n - k}")
    if blocks["Z"] or blocks["X"]:
        if len(blocks["Z"]) != k or len(blocks["X"]) != k:
            raise BadParams("logical blocks have wrong row counts")
        code = StabilizerCode(n=n, k=k, stab=tuple(blocks["S"]),
                              logical_z=tuple(blocks["Z"]),
                              logical_x=tuple(blocks["X"]))
        _check_code(code)
        return code
    return stabilizer_from_generators(blocks["S"])
