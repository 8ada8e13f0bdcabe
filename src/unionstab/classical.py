"""Classical binary codes: Reed-Muller, Nordstrom-Robinson, Preparata, Goethals.

Linear codes are stored as full-rank generator matrices in reduced row
echelon form.  Non-linear codes are represented as a ``CosetCode``: a
linear base code together with explicit translation vectors, one per
coset.  The Preparata and Goethals codes of length 2^m are built as
unions of cosets of RM(m-3, m) inside RM(m-2, m), selected by power-sum
conditions over GF(2^(m-1)), read off the Teichmueller set of
GR(4, m-1) mod 2; the Nordstrom-Robinson code is additionally
available through the quaternary (Gray-map) route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2, z4
from .errors import (
    BadParams,
    ConstructionMismatch,
    DuplicateCoset,
    NotAUnionOfCosets,
    NotNested,
    StrategyInfeasible,
)

__all__ = [
    "LinearCode",
    "CosetCode",
    "reed_muller",
    "nordstrom_robinson",
    "preparata_like",
    "goethals_binary",
    "rebase",
    "min_distance",
    "distance_enumerator",
    "nesting_check",
    "gray_to_rm_permutation",
    "format_coset_code",
    "parse_coset_code",
]


# ---------------------------------------------------------------------------
# Linear codes

@dataclass(frozen=True)
class LinearCode:
    """A binary [n, k] linear code given by a full-rank RREF generator.

    Attributes:
        n: Block length.
        generator: k x n uint8 matrix, reduced row echelon form.
        known_distance: Minimum distance if certified, else None.
        distance_provenance: One of {"proved-analytic", "brute-forced",
            "enumerator"} when known_distance is set.
        name: Optional human-readable label for reports.
    """

    n: int
    generator: np.ndarray
    known_distance: int | None = None
    distance_provenance: str | None = None
    name: str = ""

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @functools.cached_property
    def parity_check(self) -> np.ndarray:
        """Parity check matrix (a kernel basis of the generator)."""
        return gf2.kernel_basis(self.generator)

    def syndrome(self, v: np.ndarray) -> np.ndarray:
        """Syndrome of one vector, or one row of syndromes per row of v."""
        return gf2.syndrome(self.parity_check, v)

    def contains(self, v: np.ndarray) -> bool:
        return not self.syndrome(v).any()

    def words(self, cap: int = gf2.DEFAULT_CAP) -> np.ndarray:
        return gf2.word_matrix(self.generator, cap)


def linear_code(generator: np.ndarray, **kw) -> LinearCode:
    """Builds a LinearCode from (possibly dependent) generator rows."""
    g = np.asarray(generator, dtype=np.uint8) % 2
    return LinearCode(n=g.shape[1], generator=gf2._independent_rows(g), **kw)


def _monomials(m: int, deg: int) -> np.ndarray:
    """Evaluation vectors of the degree-deg monomials in x_1 .. x_m, one
    uint8 row each, in the lexicographic order of their variables.

    Points run in binary counting order, x_1 the most significant bit, so
    point p lies on the monomial whose variables set mask exactly when
    p & mask == mask: one comparison for all C(m, deg) rows.
    """
    masks = np.array([sum(1 << (m - 1 - i) for i in comb) for comb in
                      itertools.combinations(range(m), deg)], dtype=np.uint16)
    pts = np.arange(1 << m, dtype=np.uint16)
    return ((pts & masks[:, None]) == masks[:, None]).view(np.uint8)


def reed_muller(r: int, m: int) -> LinearCode:
    """Reed-Muller code RM(r, m) = [2^m, sum_{i<=r} C(m,i), 2^(m-r)].

    Rows are evaluation vectors of monomials of degree <= r, ordered by
    degree then lexicographically; points run in binary counting order
    with x_1 as the most significant bit.
    """
    if not (0 <= r <= m) or m < 1 or m > 12:
        raise BadParams(f"reed_muller needs 0 <= r <= m <= 12, got r={r}, m={m}")
    return linear_code(
        np.vstack([_monomials(m, deg) for deg in range(r + 1)]),
        known_distance=1 << (m - r),
        distance_provenance="proved-analytic",
        name=f"RM({r},{m})",
    )


# ---------------------------------------------------------------------------
# Coset codes

@dataclass(frozen=True)
class CosetCode:
    """A (generally non-linear) code as a union of cosets of a linear base.

    Attributes:
        base: The linear base code.
        translations: K x n uint8 matrix of coset representatives; each is
            the lexicographically least vector of its coset, the zero
            vector comes first, the rest are sorted.
        claimed_distance: Certified minimum distance if available.
        distance_provenance: Strategy that certified claimed_distance.
    """

    base: LinearCode
    translations: np.ndarray
    claimed_distance: int | None = None
    distance_provenance: str | None = None
    name: str = ""

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def num_cosets(self) -> int:
        return self.translations.shape[0]

    def log2_size(self) -> int:
        return self.base.k + int(math.log2(self.num_cosets))

    @property
    def size(self) -> int:
        return self.num_cosets * (1 << self.base.k)

    def contains(self, v: np.ndarray) -> bool:
        return self.base.syndrome(v).tobytes() in self._syndromes

    @functools.cached_property
    def _syndromes(self) -> set[bytes]:
        """Base syndrome of each translation, as bytes."""
        return {s.tobytes() for s in self.base.syndrome(self.translations)}

    def words(self, cap: int = gf2.DEFAULT_CAP):
        """Yields every codeword, coset by coset; the cap counts each twice."""
        gf2.charge(2 * self.size * self.n, f"listing {self.size} words", cap)
        base_words = self.base.words(cap)
        for t in self.translations:
            yield from (t ^ base_words)


def _make_coset_code(base: LinearCode, ts: np.ndarray, **kw) -> CosetCode:
    """Coset code on the rows of ts, each replaced by the lexicographically
    least vector of its coset; the zero coset first, the rest sorted."""
    canon = gf2.reduce_rows(base.generator, ts)
    first, counts = gf2.distinct_rows(canon)
    if (counts > 1).any():
        raise DuplicateCoset("two translations share a coset of the base")
    canon = canon[first]
    if not len(canon) or canon[0].any():
        raise ConstructionMismatch("coset code must contain the zero coset")
    return CosetCode(base=base, translations=canon, **kw)


# ---------------------------------------------------------------------------
# Power-sum constructions (Preparata / Goethals, length 2^m, m even)

def _residues(ctx: z4.GaloisRingContext) -> np.ndarray:
    """The Teichmueller points 0, xi^0, ..., xi^(q-2) reduced mod 2.

    Each is read as an int, bit i the coefficient of xi^i.  The Hensel
    lift reduces to the base primitive polynomial, so these are 0,
    alpha^0, ..., alpha^(q-2) in GF(2^m') for a root alpha of it.
    """
    t = np.array(ctx.teichmuller, dtype=np.int64) & 1
    return t @ (1 << np.arange(ctx.m_prime))


def _power_table(res: np.ndarray, e: int) -> np.ndarray:
    """Entry a is a^e in the field whose elements res lists as
    0, alpha^0, ...: alpha^j goes to alpha^(e j mod (q - 1))."""
    q = res.size
    out = np.zeros(q, dtype=np.int64)
    out[res[1:]] = res[1 + e * np.arange(q - 1) % (q - 1)]
    return out


def _power_sum_translations(m: int, kind: str) -> tuple[LinearCode, np.ndarray]:
    """Translations of the power-sum code over RM(m-3, m), by class spans.

    The code lies in RM(m-2, m) and is closed under adding RM(m-3, m), so
    it is a union of classes of RM(m-2, m)/RM(m-3, m), each named by its
    bits c over the C(m, 2) degree-(m-2) monomials.  A word splits into
    halves X, Y, subsets of GF(2^(m-1)), the Teichmueller set of
    GR(4, m-1) mod 2 (coordinate z sits at index int(z) within its half).
    Membership requires |X|, |Y| even, s1(X) = s1(Y), s3(X) + s3(Y) = s1^3,
    and for the Goethals code also s5(X) + s5(Y) = s1^5, s_e the e-th
    power sum.  Parities and power sums are GF(2)-linear in c, so with
    sigma = s1(X) fixed, membership is one affine system M c = r(sigma):
    M's rows are s1(X), s3(X) + s3(Y) (, s5(X) + s5(Y)), s1(X) + s1(Y),
    |X| and |Y|, and r(sigma) = [sigma; sigma^3 (; sigma^5); 0; 0; 0].
    sigma enters only r, so one elimination of M beside all q right-hand
    sides finds the consistent sigma and a solution c_sigma of each; the
    classes are the c_sigma + ker M.  Raises CapExceeded, before building
    them, when 4 copies of K translations of n = 2^m bytes exceed the cap.
    """
    res = _residues(z4.gr4_build(m - 1))
    q, b, n = res.size, m - 1, 1 << m
    top = _monomials(m, m - 2)
    # per half, the features of coordinate z: [z | z^3 | z^5 | 1] in bits
    vals = np.stack([np.arange(q), _power_table(res, 3), _power_table(res, 5)],
                    axis=1)
    bits = ((vals[:, :, None] >> np.arange(b)) & 1).reshape(q, 3 * b)
    feat = np.hstack([bits, np.ones((q, 1), np.int64)])
    hx, hy = top.reshape(-1, 2, q).swapaxes(0, 1) @ feat % 2
    d, k, t = hx ^ hy, (3 if kind == "goethals" else 2) * b, len(top)
    mat = np.hstack([hx[:, :b], d[:, b:k], d[:, :b], hx[:, -1:],
                     hy[:, -1:]]).T
    rhs = np.pad(bits[:, :k].T, ((0, b + 2), (0, 0)))  # column sigma: r(sigma)
    red, piv, _ = gf2.rref(np.hstack([mat, rhs]))
    # rows past M's rank are zero on M, and on rhs where sigma is consistent
    rk = np.searchsorted(piv, t)
    y = red[:rk, t:].T[~red[rk:, t:].any(axis=0)]
    ker = gf2.kernel_basis(mat)
    K = len(y) << len(ker)
    gf2.charge(4 * K * n, f"building K = {K:,} translations of n = {n} "
               f"bytes", gf2.DEFAULT_CAP)
    # a class's word: c_sigma's monomial sum XOR one of the span of ker's
    words = gf2.pack_words(np.vstack([y @ top[piv[:rk]], ker @ top]) & 1)
    ts = words[:len(y), :, None] ^ gf2.xor_span(words[len(y):].T)
    ts = gf2.unpack_rows(ts.transpose(0, 2, 1), n).reshape(K, n)
    return reed_muller(m - 3, m), ts


def preparata_like(m: int) -> CosetCode:
    """Preparata code of length 2^m as cosets of RM(m-3, m).

    Args:
        m: Even length exponent, at least 4.

    Returns:
        CosetCode with 2^(C(m,2) - m + 1) translations over RM(m-3, m),
        from the power-sum construction; CapExceeded from m = 8.
    """
    if m % 2 or m < 4:
        raise BadParams("preparata_like needs even m >= 4")
    return _power_sum_code(m, "Preparata", math.comb(m, 2) - m + 1)


def goethals_binary(m: int) -> CosetCode:
    """Goethals code of length 2^m as cosets of RM(m-3, m).

    At m = 4 the coset count 2^(C(m,2) - 2m + 2) degenerates to one and
    the constructor returns RM(1, 4) as a single-coset code.  m = 8 gives
    2^14 cosets; CapExceeded from m = 10.
    """
    if m % 2 or m < 4:
        raise BadParams("goethals_binary needs even m >= 4")
    if m == 4:
        base = reed_muller(1, 4)
        return CosetCode(
            base=base,
            translations=np.zeros((1, 16), dtype=np.uint8),
            claimed_distance=8,
            distance_provenance="proved-analytic",
            name="Goethals(4)",
        )
    return _power_sum_code(m, "Goethals", math.comb(m, 2) - 2 * m + 2)


def _power_sum_code(m: int, name: str, log2_k: int) -> CosetCode:
    """The power-sum code name(m), checked to have 2^log2_k cosets."""
    base, ts = _power_sum_translations(m, name.lower())
    if len(ts) != 1 << log2_k:
        raise ConstructionMismatch(
            f"expected {1 << log2_k} cosets, found {len(ts)}")
    return _make_coset_code(base, ts, name=f"{name}({m})")


# ---------------------------------------------------------------------------
# Gray-map route

def gray_to_rm_permutation(ctx: z4.GaloisRingContext) -> np.ndarray:
    """Position map sending Gray-image coordinates to evaluation points.

    Gray images have 2 * 2^m' coordinates: two halves in quaternary
    coordinate order (the parity position, then the Teichmueller points).
    The returned ``perm`` satisfies ``rm_vector[perm] = gray_vector``: the
    parity position maps to field element 0 and the point xi^j to the
    mod-2 reduction of xi^j, within the same half.
    """
    res = _residues(ctx)
    return np.concatenate([res, res.size + res])


def _gray_route_code(m: int) -> CosetCode:
    """Preparata-type code from the Gray image of the Kerdock dual.

    Once the image's kernel is seen to contain RM(m-3, m), the image is a
    union of its cosets, read off the Gray images of all codewords; it
    agrees with preparata_like at m = 4.  At m = 6 the Gray image's
    kernel is 27-dimensional and does not contain RM(3, 6), so this
    raises ConstructionMismatch there, before any word is enumerated.
    """
    ctx = z4.gr4_build(m - 1)
    quat = z4.z4_dual(z4.kerdock_z4(ctx)) if m > 4 else z4.kerdock_z4(ctx)
    perm = gray_to_rm_permutation(ctx)
    kernel = z4.phi_kernel(quat)
    kernel_rm = np.zeros_like(kernel)
    kernel_rm[:, perm] = kernel
    rm = reed_muller(m - 3, m)
    if not gf2.row_space_contains(kernel_rm, rm.generator):
        raise ConstructionMismatch(
            f"Gray-image kernel (dim {kernel.shape[0]}) does not contain "
            f"RM({m - 3},{m}) (dim {rm.k}); the Gray image is not a union "
            "of cosets of that Reed-Muller code")
    words = np.zeros((quat.size, len(perm)), dtype=np.uint8)
    words[:, perm] = z4.gray_image(quat.words())
    canon = gf2.reduce_rows(rm.generator, words)
    return _make_coset_code(rm, canon[gf2.distinct_rows(canon)[0]],
                            name=f"Preparata({m})")


def nordstrom_robinson() -> CosetCode:
    """The (16, 256, 6) Nordstrom-Robinson code over RM(1, 4).

    Built from the Gray image of the length-8 quaternary Kerdock code,
    rebased onto RM(1, 4); the minimum distance is brute-forced.
    """
    code = _gray_route_code(4)
    d = min_distance(code, "brute")
    return CosetCode(
        base=code.base,
        translations=code.translations,
        claimed_distance=d,
        distance_provenance="brute-forced",
        name="Nordstrom-Robinson",
    )


# ---------------------------------------------------------------------------
# Rebase

def rebase(c: CosetCode, new_base: LinearCode) -> CosetCode:
    """Re-expresses a coset code over a nested base.

    Coarsening (new_base contains the old base) merges translations and
    checks that each new coset holds the expected number of old ones;
    refining (new_base inside the old base) expands each translation by
    the span of representatives of base/new_base.
    """
    old = c.base
    kw = dict(name=c.name, claimed_distance=c.claimed_distance,
              distance_provenance=c.distance_provenance)
    if new_base.n != old.n:
        raise NotNested("length mismatch")
    if gf2.row_spaces_equal(new_base.generator, old.generator):
        return _make_coset_code(new_base, c.translations, **kw)
    if gf2.row_space_contains(new_base.generator, old.generator):
        # coarsening: group translations by new_base syndrome
        first, sizes = gf2.distinct_rows(new_base.syndrome(c.translations))
        expected = 1 << (new_base.k - old.k)
        bad = sizes[sizes != expected]
        if bad.size:
            raise NotAUnionOfCosets(
                f"class of size {bad[0]}, expected {expected}")
        return _make_coset_code(new_base, c.translations[first], **kw)
    if gf2.row_space_contains(old.generator, new_base.generator):
        # refining: shift each translation by every word of old/new_base
        reps = gf2.word_matrix(gf2.coset_rep_rows(old.generator,
                                                  new_base.generator))
        ts = c.translations[:, None] ^ reps[None]
        return _make_coset_code(new_base, ts.reshape(-1, old.n), **kw)
    raise NotNested("bases are not nested either way")


# ---------------------------------------------------------------------------
# Distances

def min_distance(c, strategy: str = "brute", cap: int = gf2.DEFAULT_CAP) -> int:
    """Exact minimum distance of a LinearCode or CosetCode.

    Strategies: "brute" enumerates words (pairwise differences for coset
    codes, charged one bit a pair to bound the time); "enumerator" uses
    the dual-character coset weight enumerator (exact integer arithmetic).
    """
    if isinstance(c, LinearCode):
        if strategy == "enumerator":
            return min_distance(_as_coset(c), strategy, cap)
        if strategy != "brute":
            raise StrategyInfeasible(f"unknown strategy {strategy!r}")
        w = gf2.span_weights(c.generator, cap)
        if not w.any():
            raise ValueError("code has no nonzero words")
        return int(w[w > 0].min())
    if not isinstance(c, CosetCode):
        raise BadParams("min_distance wants a LinearCode or CosetCode")
    if strategy == "brute":
        gf2.charge(max(c.size * (3 * c.n + 8), -(-c.size * c.size // 8)),
                   f"comparing {c.size} words pairwise", cap)
        words = (c.translations[:, None] ^ c.base.words(cap)).reshape(-1, c.n)
        best = c.n
        for i in range(words.shape[0]):
            diff = (words[i + 1:] ^ words[i]).sum(axis=1)
            if diff.size:
                best = min(best, int(diff.min()))
        return best
    if strategy == "enumerator":
        return _first_nonzero_weight(_pair_weights(c, cap))
    raise StrategyInfeasible(f"unknown strategy {strategy!r}")


def _anf(rows: np.ndarray) -> np.ndarray:
    """Algebraic normal form of each row, a truth table of length 2^m.

    Entry x of a row is the value at the point with index x, so entry
    mask of the result is the coefficient of the monomial in the index
    bits set in mask: one Moebius butterfly pass per bit.
    """
    a = np.array(rows, dtype=np.uint8)
    h = 1
    while h < a.shape[1]:
        pairs = a.reshape(a.shape[0], -1, 2, h)
        pairs[:, :, 1] ^= pairs[:, :, 0]
        h <<= 1
    return a


def _dickson_quadratics(lift: np.ndarray, s: int) -> np.ndarray | None:
    """Quadratic parts of the first s rows of lift, when the rank path applies.

    It applies when the length is n = 2^m, the last rows are exactly
    RM(1, m) (m + 1 rows of degree at most 1; they are independent) and
    the first s > 0 rows have degree at most 2.  Row i of the result holds
    the coefficients of the C(m, 2) monomials x_a x_b, a < b, of row i;
    m <= 11, so a row of its alternating form fits _form_ranks' uint16.
    Returns None otherwise.
    """
    n = lift.shape[1]
    m = n.bit_length() - 1
    if n != 1 << m or m > 11 or s == 0 or lift.shape[0] - s != m + 1:
        return None
    anf = _anf(lift)
    degree = np.where(anf, np.bitwise_count(np.arange(n)), 0).max(axis=1)
    if degree[:s].max() > 2 or degree[s:].max() > 1:
        return None
    masks = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(m), 2)]
    return anf[:s, masks]


_RANK_CHUNK = 1 << 16


def _form_ranks(quad: np.ndarray, m: int,
                cap: int = gf2.DEFAULT_CAP) -> np.ndarray:
    """GF(2) rank of each of the 2^s alternating m x m forms spanned by quad.

    Column k of quad is entry (a, b) = (b, a) of a form, for the k-th pair
    a < b of itertools.combinations(range(m), 2), and entry p of the
    result is the rank of the form combining the rows of quad picked by p.
    Row a of a form, an m-bit int (uint8 for m <= 8, else uint16), is
    linear in the form, so the m rows of every form are spanned from the
    basis forms' rows by gf2.xor_span_chunks, _RANK_CHUNK forms a chunk,
    2m + 5 rows a form with both spans and the elimination's temporaries.
    Each chunk's rows are eliminated together, row by row: the lowest set
    bit of a reduced row is its pivot, cleared from every later row
    holding it, and each nonzero reduced row adds one to the rank.
    """
    s = quad.shape[0]
    a, b = np.triu_indices(m, 1)
    forms = np.zeros((s, m, m), dtype=np.uint8)
    forms[:, a, b] = forms[:, b, a] = quad
    # basis[a, i] = row a of the form of quad's row i
    basis = gf2.pack_rows(forms.reshape(s * m, m)).reshape(s, m).T.astype(
        np.uint8 if m <= 8 else np.uint16)
    ranks = np.zeros(1 << s, dtype=np.uint8)
    bits = _RANK_CHUNK.bit_length() - 1
    for h, rows in gf2.xor_span_chunks(basis, bits, cap):
        out = ranks[h * rows.shape[1]:(h + 1) * rows.shape[1]]
        for i, row in enumerate(rows):
            pivot = row & -row
            for later in rows[i + 1:]:
                later ^= row * ((later & pivot) != 0)
            out += row != 0
    return ranks


def _rank_weights(quad: np.ndarray, lift: np.ndarray, syndromes: np.ndarray,
                  cap: int) -> np.ndarray:
    """acc[w] = sum_p chi(p)^2 * #(weight-w words of P[p] + RM(1, m)), as
    gf2.character_weights(lift, syndromes, gf2.span_weights) gives it.

    The weights of a coset of RM(1, m) in RM(2, m) depend only on the
    rank of the alternating form of its quadratic part (Dickson; the
    theory of error-correcting codes, MacWilliams and Sloane, ch. 15).
    So chi^2 (gf2.character_squares) is summed by _form_ranks' rank of
    each p, and one coset a rank, its first p's, is enumerated.  The cap
    counts chi and fwht's temporaries, the ranks, a chunk of form rows,
    one rank's mask and values and one coset's span.
    """
    s, (r, n) = quad.shape[0], lift.shape
    m = n.bit_length() - 1
    gf2.charge((18 << s) + (11 << (r - s + 1)) + (2 * m + 5)
               * (1 + (m > 8)) * min(1 << s, _RANK_CHUNK),
               f"rank table 2^{s} with coset span 2^{r - s + 1}", cap)
    chi2 = gf2.character_squares(syndromes, r)
    ranks = _form_ranks(quad, m, cap)
    acc = np.zeros(n + 1, dtype=np.int64)
    for rk in np.flatnonzero(np.bincount(ranks)):
        cols = ranks == rk
        p = int(cols.argmax())
        rep = ((p >> np.arange(s)) & 1) @ lift[:s] % 2
        coset = gf2.span_weights(np.vstack([rep, lift[s:]]), cap)[1::2]
        acc += int(chi2[cols].sum()) * np.bincount(coset, minlength=n + 1)
    return acc


def _pair_weights(c: CosetCode, cap: int) -> list[int]:
    """Weight counts of the multiset of cosets t + t' + L over ordered pairs.

    Entry w counts the words of weight w in t + t' + L, summed over all
    ordered pairs of translations; the zero weight counts the K diagonal
    pairs.  By MacWilliams, 2^r times this enumerator is
    sum_u chi(u)^2 (1+z)^(n-w(u)) (1-z)^w(u) over the dual of L, where
    r = n - k and chi(u) = sum_t (-1)^(u.t).  Writing u = a H for the
    parity check H, u.t = a.(H t).  The translation syndromes H t span a
    space of dimension s with RREF basis B, pivots piv, and H t is the
    combination c_t = (H t)[piv] of B's rows, so u.t = (B a).c_t: chi is
    the Walsh-Hadamard transform, over 2^s entries, of the histogram of
    the c_t, read at p = B a.  The dual is spanned by the rows
    [P; D0] = [e_piv; ker B] H, and chi is constant, chi(p), on each
    coset P[p] + D0, where P[p] combines the rows of P picked by p.  The
    weights of chi^2 are summed by one of two paths into
    acc[w] = sum_p chi(p)^2 #(weight-w words of P[p] + D0):

    - rank path, by Dickson's theorem (_rank_weights), when D0 is RM(1, m)
      and P lies in RM(2, m), as for the power-sum codes over RM(m-3, m);
    - span path, otherwise: all 2^r dual words, by gf2.character_weights.

    The expansion of (1+z)^(n-w) (1-z)^w, read as K_i(w; n), and its
    checked division by 2^r are z4._krawtchouk_expand's.
    """
    h = c.base.parity_check
    syn = c.base.syndrome(c.translations)
    b, piv, s = gf2.rref(syn)
    lift = np.vstack([h[piv], gf2.kernel_basis(b[:s]) @ h & 1])
    quad = _dickson_quadratics(lift, s)
    if quad is None:
        acc = gf2.character_weights(lift, syn[:, piv], gf2.span_weights, cap)
    else:
        acc = _rank_weights(quad, lift, syn[:, piv], cap)
    return z4._krawtchouk_expand(acc.tolist(), c.n, len(h))


def _first_nonzero_weight(counts: list[int]) -> int:
    return next((i for i in range(1, len(counts)) if counts[i]), 0)


def distance_enumerator(c: CosetCode, cap: int = gf2.DEFAULT_CAP):
    """Exact distance distribution of a coset code via its base's dual.

    The pair enumerator of _pair_weights is divided by the number of
    cosets K.  That average is integral when the code is
    distance-invariant, as every linear code is; otherwise
    ConstructionMismatch is raised, and min_distance(c, "enumerator")
    still gives the distance.

    Returns:
        (distance, dist) where dist[w] counts ordered codeword pairs at
        distance w divided by the code size.
    """
    pairs = _pair_weights(c, cap)
    K = c.num_cosets
    if any(p % K for p in pairs):
        raise ConstructionMismatch(
            "the average distance distribution is not integral: the code "
            "is not distance-invariant")
    dist = [p // K for p in pairs]
    return _first_nonzero_weight(dist), dist


# ---------------------------------------------------------------------------
# Nesting

def _as_coset(c) -> CosetCode:
    if isinstance(c, LinearCode):
        return CosetCode(base=c, translations=np.zeros((1, c.n), np.uint8))
    return c


def nesting_check(inner, outer) -> tuple[bool, list]:
    """Certifies inner as a subcode of outer (or reports a witness).

    The certificate lists every checked vector with its verdict: the
    inner base generators and all inner translations must be members of
    the outer code.
    """
    ci, co = _as_coset(inner), _as_coset(outer)
    if ci.n != co.n:
        raise BadParams("length mismatch")
    cert = [(kind, v.copy(), co.contains(v))
            for kind, rows in (("base-row", ci.base.generator),
                               ("translation", ci.translations))
            for v in rows]
    return all(good for _, _, good in cert), cert


# ---------------------------------------------------------------------------
# File format

def format_coset_code(c: CosetCode) -> str:
    """Linear-base matrix block followed by a translations block."""
    lines = [gf2.format_matrix(c.base.generator).rstrip("\n")]
    lines.append(f"translations {c.num_cosets}")
    lines.extend(gf2.to_string(t) for t in c.translations)
    return "\n".join(lines) + "\n"


def parse_coset_code(text: str) -> CosetCode:
    gen, rest = gf2.read_matrix(gf2.numbered_lines(text))
    at, found = rest[0] if rest else (len(text.splitlines()) + 1, "")
    head = found.split()
    if len(head) != 2 or head[0] != "translations" or not head[1].isdigit():
        raise BadParams(f"line {at}: expected a 'translations <count>' "
                        f"block, found {found!r}")
    if len(rest) - 1 != int(head[1]):
        raise BadParams(f"translation count mismatch: the header on line "
                        f"{at} says {head[1]}, found {len(rest) - 1}")
    ts = gf2.bit_rows(rest[1:], gen.shape[1], "translation")
    return _make_coset_code(linear_code(gen), ts)
