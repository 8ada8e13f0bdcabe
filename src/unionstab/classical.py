"""Classical binary codes: Reed-Muller, Nordstrom-Robinson, Preparata, Goethals.

Linear codes are stored as full-rank generator matrices in reduced row
echelon form.  Non-linear codes are represented as a ``CosetCode``: a
linear base code together with explicit translation vectors, one per
coset.  The Preparata and Goethals codes of length 2^m are built as
unions of cosets of RM(m-3, m) inside RM(m-2, m), selected by power-sum
conditions over GF(2^(m-1)); the Nordstrom-Robinson code is additionally
available through the quaternary (Gray-map) route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gf2, z4
from .errors import (
    BadParams,
    CapExceeded,
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
# GF(2^m) arithmetic (internal helper for the power-sum constructions)

_FIELD_POLYS = {3: 0b1011, 5: 0b100101, 7: 0b10000011, 9: 0b1000010001}


class _GF2m:
    """Tiny GF(2^m) with exp/log tables; elements are ints of poly coeffs."""

    def __init__(self, m: int):
        if m not in _FIELD_POLYS:
            raise BadParams(f"no field modulus stored for GF(2^{m})")
        self.m = m
        self.q = 1 << m
        poly = _FIELD_POLYS[m]
        exp = [1] * (2 * (self.q - 1))
        x = 1
        for i in range(1, 2 * (self.q - 1)):
            x <<= 1
            if x & self.q:
                x ^= poly
            exp[i] = x
        self.exp = exp
        self.log = {exp[i]: i for i in range(self.q - 1)}

    def pw(self, a: int, e: int) -> int:
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]


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
    _parity_cache: list = field(default_factory=list, compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def parity_check(self) -> np.ndarray:
        """Parity check matrix (a kernel basis of the generator)."""
        if not self._parity_cache:
            self._parity_cache.append(gf2.kernel_basis(self.generator))
        return self._parity_cache[0]

    def syndrome(self, v: np.ndarray) -> np.ndarray:
        return gf2.syndrome(self.parity_check, v)

    def contains(self, v: np.ndarray) -> bool:
        return not self.syndrome(v).any()

    def words(self, cap: int = gf2.DEFAULT_CAP) -> np.ndarray:
        return gf2.word_matrix(self.generator, cap)


def linear_code(generator: np.ndarray, **kw) -> LinearCode:
    """Builds a LinearCode from (possibly dependent) generator rows."""
    g = np.asarray(generator, dtype=np.uint8) % 2
    reduced, _, rank = gf2.rref(g)
    return LinearCode(n=g.shape[1], generator=reduced[:rank], **kw)


def _rm_points(m: int) -> np.ndarray:
    """Evaluation points in binary counting order; x_1 is the MSB."""
    pts = np.zeros((1 << m, m), dtype=np.uint8)
    for p in range(1 << m):
        for j in range(m):
            pts[p, j] = (p >> (m - 1 - j)) & 1
    return pts


def reed_muller(r: int, m: int) -> LinearCode:
    """Reed-Muller code RM(r, m) = [2^m, sum_{i<=r} C(m,i), 2^(m-r)].

    Rows are evaluation vectors of monomials of degree <= r, ordered by
    degree then lexicographically; points run in binary counting order
    with x_1 as the most significant bit.
    """
    if not (0 <= r <= m) or m < 1 or m > 12:
        raise BadParams(f"reed_muller needs 0 <= r <= m <= 12, got r={r}, m={m}")
    pts = _rm_points(m)
    rows = []
    for deg in range(r + 1):
        for comb in itertools.combinations(range(m), deg):
            row = np.ones(1 << m, dtype=np.uint8)
            for v in comb:
                row &= pts[:, v]
            rows.append(row)
    return linear_code(
        np.array(rows, dtype=np.uint8),
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
        s = self.base.syndrome(np.asarray(v, dtype=np.uint8) % 2)
        key = s.tobytes()
        return key in self._syndrome_index()

    def _syndrome_index(self) -> dict:
        if not hasattr(self, "_syn_cache"):
            idx = {
                self.base.syndrome(t).tobytes(): i
                for i, t in enumerate(self.translations)
            }
            object.__setattr__(self, "_syn_cache", idx)
        return self._syn_cache

    def words(self, cap: int = gf2.DEFAULT_CAP):
        """Yields every codeword; coset by coset."""
        if self.size > cap:
            raise CapExceeded(f"coset code has {self.size} words, cap {cap}")
        base_words = self.base.words(cap)
        for t in self.translations:
            yield from (t ^ base_words)


def _coset_canonical(base: LinearCode, v: np.ndarray) -> np.ndarray:
    """Lexicographically least vector in v + base (RREF pivot clearing)."""
    v = np.asarray(v, dtype=np.uint8) % 2
    g = base.generator
    out = v.copy()
    col = 0
    for row in g:
        while not row[col]:
            col += 1
        if out[col]:
            out ^= row
    return out


def _make_coset_code(base: LinearCode, ts: list[np.ndarray], **kw) -> CosetCode:
    canon = {}
    for t in ts:
        c = _coset_canonical(base, t)
        key = c.tobytes()
        if key in canon:
            raise DuplicateCoset("two translations share a coset of the base")
        canon[key] = c
    zero = bytes(base.n)
    if zero not in canon:
        raise ConstructionMismatch("coset code must contain the zero coset")
    rest = sorted(k for k in canon if k != zero)
    trans = np.array([canon[zero]] + [canon[k] for k in rest], dtype=np.uint8)
    return CosetCode(base=base, translations=trans, **kw)


# ---------------------------------------------------------------------------
# Power-sum constructions (Preparata / Goethals, length 2^m, m even)

def _power_sum_translations(m: int, kind: str) -> tuple[LinearCode, np.ndarray]:
    """Scans RM(m-2,m)/RM(m-3,m) classes for power-sum members.

    Since the power-sum code is closed under addition of RM(m-3, m) and
    contained in RM(m-2, m), testing one representative per class finds
    exactly the cosets making up the code; the classes are spanned by the
    C(m, 2) degree-(m-2) monomials.  A word splits into halves X, Y,
    subsets of GF(2^(m-1)) (coordinate z sits at index int(z) within its
    half).  Membership requires |X|, |Y| even, s1(X) = s1(Y),
    s3(X) + s3(Y) = s1^3, and for the Goethals code also
    s5(X) + s5(Y) = s1^5, where s_e is the e-th power sum of the subset.
    Every one of |X| mod 2, |Y| mod 2 and the six power sums is
    GF(2)-linear in the word, so each monomial's features are packed into
    one word and all classes' features come from a single span.
    """
    if m % 2 or m < 4:
        raise BadParams("power-sum construction needs even m >= 4")
    t = math.comb(m, 2)
    if (1 << t) > (1 << 20):
        raise CapExceeded(f"class scan needs 2^{t} representatives")
    fld = _GF2m(m - 1)
    q, b = fld.q, m - 1
    base = reed_muller(m - 3, m)
    pts = _rm_points(m)
    top = np.array([pts[:, list(comb)].all(axis=1)
                    for comb in itertools.combinations(range(m), m - 2)],
                   dtype=np.uint8)
    # per half, the features of coordinate z: [1 | z | z^3 | z^5] in bits
    pw3 = np.array([fld.pw(a, 3) for a in range(q)])
    pw5 = np.array([fld.pw(a, 5) for a in range(q)])
    vals = np.stack([np.arange(q), pw3, pw5], axis=1)
    bits = ((vals[:, :, None] >> np.arange(b)) & 1).reshape(q, 3 * b)
    feat = np.hstack([np.ones((q, 1), np.int64), bits])
    halves = [top[:, h * q:(h + 1) * q].astype(np.int64) @ feat % 2
              for h in (0, 1)]
    # bits 0 .. 3b of each class's word hold X's features, Y's sit above
    x = gf2.span_words(np.hstack(halves)).view(np.int64)
    y = x >> (1 + 3 * b)

    def s(half, k):  # power sums s1, s3, s5 for k = 0, 1, 2
        return (half >> (1 + k * b)) & (q - 1)

    s1 = s(x, 0)
    ok = (((x | y) & 1) == 0) & (s1 == s(y, 0))
    ok &= (s(x, 1) ^ s(y, 1)) == pw3[s1]
    if kind == "goethals":
        ok &= (s(x, 2) ^ s(y, 2)) == pw5[s1]
    idx = np.flatnonzero(ok)
    msgs = (idx[:, None] >> np.arange(t)) & 1
    return base, (msgs @ top.astype(np.int64) % 2).astype(np.uint8)


def preparata_like(m: int, route: str = "direct") -> CosetCode:
    """Preparata code of length 2^m as cosets of RM(m-3, m).

    Args:
        m: Even length exponent, m in {4, 6} at desk scale.
        route: "direct" uses the power-sum construction; "gray" derives
            the code from the Gray image of the Kerdock dual via its
            kernel and quotient representatives.  The two routes agree at
            m = 4; at m = 6 the Gray image's kernel is 27-dimensional and
            does not contain RM(3, 6), so the gray route raises
            ConstructionMismatch there.

    Returns:
        CosetCode with 2^(C(m,2) - m + 1) translations over RM(m-3, m).
    """
    if m % 2 or m < 4:
        raise BadParams("preparata_like needs even m >= 4")
    if route == "gray":
        return _gray_route_code(m)
    base, ts = _power_sum_translations(m, "preparata")
    expect = 1 << (math.comb(m, 2) - m + 1)
    if ts.shape[0] != expect:
        raise ConstructionMismatch(
            f"expected {expect} cosets, found {ts.shape[0]}")
    return _make_coset_code(base, list(ts), name=f"Preparata({m})")


def goethals_binary(m: int, route: str = "direct") -> CosetCode:
    """Goethals code of length 2^m as cosets of RM(m-3, m).

    At m = 4 the coset count 2^(C(m,2) - 2m + 2) degenerates to one and
    the constructor returns RM(1, 4) as a single-coset code.
    """
    if m % 2 or m < 4:
        raise BadParams("goethals_binary needs even m >= 4")
    if route != "direct":
        raise BadParams("goethals_binary supports only the direct route")
    if m == 4:
        base = reed_muller(1, 4)
        return CosetCode(
            base=base,
            translations=np.zeros((1, 16), dtype=np.uint8),
            claimed_distance=8,
            distance_provenance="proved-analytic",
            name="Goethals(4)",
        )
    base, ts = _power_sum_translations(m, "goethals")
    expect = 1 << (math.comb(m, 2) - 2 * m + 2)
    if ts.shape[0] != expect:
        raise ConstructionMismatch(
            f"expected {expect} cosets, found {ts.shape[0]}")
    return _make_coset_code(base, list(ts), name=f"Goethals({m})")


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
    n4 = 1 << ctx.m_prime
    fieldidx = [0]
    for t in ctx.teichmuller[1:]:
        fieldidx.append(int(sum((int(c) % 2) << i for i, c in enumerate(t))))
    perm = np.zeros(2 * n4, dtype=np.int64)
    for p in range(2 * n4):
        h, c = divmod(p, n4)
        perm[p] = h * n4 + fieldidx[c]
    return perm


def _gray_route_code(m: int) -> CosetCode:
    """Preparata-type code from the Gray image of the Kerdock dual."""
    ctx = z4.gr4_build(m - 1)
    quat = z4.z4_dual(z4.kerdock_z4(ctx)) if m > 4 else z4.kerdock_z4(ctx)
    perm = gray_to_rm_permutation(ctx)
    kernel = z4.phi_kernel(quat)
    kernel_rm = np.zeros_like(kernel)
    kernel_rm[:, perm] = kernel
    rm = reed_muller(m - 3, m)
    if not all(gf2.row_space_contains(kernel_rm, row) for row in rm.generator):
        raise ConstructionMismatch(
            f"Gray-image kernel (dim {kernel.shape[0]}) does not contain "
            f"RM({m - 3},{m}) (dim {rm.k}); the Gray image is not a union "
            "of cosets of that Reed-Muller code")
    kernel_code = linear_code(kernel_rm, name="gray-kernel")
    reps = z4.z4_quotient_reps(quat, z4.kernel_preimage(quat))
    ts = []
    for rep in reps:
        g = z4.gray_image(rep)
        t = np.zeros_like(g)
        t[perm] = g
        ts.append(t)
    coarse = _make_coset_code(kernel_code, ts, name=f"Preparata({m})")
    return rebase(coarse, rm)


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
    checks that the merged classes witness a genuine coset decomposition;
    refining (new_base inside the old base) expands each translation by
    representatives of base/new_base.
    """
    old = c.base
    if new_base.n != old.n:
        raise NotNested("length mismatch")
    if gf2.row_spaces_equal(new_base.generator, old.generator):
        return _make_coset_code(new_base, list(c.translations), name=c.name,
                                claimed_distance=c.claimed_distance,
                                distance_provenance=c.distance_provenance)
    if all(gf2.row_space_contains(new_base.generator, row)
           for row in old.generator):
        # coarsening: group translations by new_base syndrome
        groups: dict[bytes, list[np.ndarray]] = {}
        for t in c.translations:
            groups.setdefault(new_base.syndrome(t).tobytes(), []).append(t)
        expected = 1 << (new_base.k - old.k)
        for members in groups.values():
            if len(members) != expected:
                raise NotAUnionOfCosets(
                    f"class of size {len(members)}, expected {expected}")
            for t in members[1:]:
                if not new_base.contains(t ^ members[0]):
                    raise NotAUnionOfCosets(
                        "representative difference escapes the new base")
        reps = [members[0] for members in groups.values()]
        return _make_coset_code(new_base, reps, name=c.name,
                                claimed_distance=c.claimed_distance,
                                distance_provenance=c.distance_provenance)
    if all(gf2.row_space_contains(old.generator, row)
           for row in new_base.generator):
        # refining: expand by coset reps of old/new within the old base
        inner = [row for row in old.generator
                 if not new_base.contains(row)]
        # build coset reps of new_base inside old by BFS over generators
        reps = {bytes(old.n): np.zeros(old.n, dtype=np.uint8)}
        frontier = [np.zeros(old.n, dtype=np.uint8)]
        while frontier:
            cur = frontier.pop()
            for row in old.generator:
                cand = _coset_canonical(new_base, cur ^ row)
                key = cand.tobytes()
                if key not in reps:
                    reps[key] = cand
                    frontier.append(cand)
        ts = [t ^ r for t in c.translations for r in reps.values()]
        return _make_coset_code(new_base, ts, name=c.name,
                                claimed_distance=c.claimed_distance,
                                distance_provenance=c.distance_provenance)
    raise NotNested("bases are not nested either way")


# ---------------------------------------------------------------------------
# Distances

def _linear_brute(c: LinearCode, cap: int) -> int:
    if (1 << c.k) > cap:
        raise StrategyInfeasible(f"2^{c.k} words exceed cap {cap}")
    w = gf2.span_weights(c.generator, cap)
    if not w.any():
        raise ValueError("code has no nonzero words")
    return int(w[w > 0].min())


def _coset_leader_weight(base: LinearCode, v: np.ndarray, cap: int) -> int:
    """Minimum weight in v + base by enumeration."""
    if (1 << base.k) > cap:
        raise StrategyInfeasible(f"coset enumeration 2^{base.k} exceeds cap")
    words = base.words(cap)
    return int((words ^ v).sum(axis=1).min())


def min_distance(c, strategy: str = "brute", cap: int = gf2.DEFAULT_CAP) -> int:
    """Exact minimum distance of a LinearCode or CosetCode.

    Strategies: "brute" enumerates words (pairwise differences for coset
    codes); "coset-brute" enumerates one base coset per translation
    difference; "enumerator" uses the dual-character coset weight
    enumerator (exact integer arithmetic); "analytic" applies only to
    codes carrying a proved distance.
    """
    if strategy == "analytic":
        if isinstance(c, LinearCode) and c.distance_provenance == "proved-analytic":
            return c.known_distance
        raise StrategyInfeasible("analytic strategy needs a proved distance")
    if isinstance(c, LinearCode):
        if strategy in ("brute", "coset-brute"):
            return _linear_brute(c, cap)
        if strategy == "enumerator":
            return min_distance(_as_coset(c), strategy, cap)
        raise StrategyInfeasible(f"unknown strategy {strategy!r}")
    if not isinstance(c, CosetCode):
        raise BadParams("min_distance wants a LinearCode or CosetCode")
    if strategy == "brute":
        if c.size > cap or c.size * c.size > cap * 64:
            raise StrategyInfeasible("pairwise enumeration exceeds cap")
        words = np.array(list(c.words(cap)), dtype=np.uint8)
        best = c.n
        for i in range(words.shape[0]):
            diff = (words[i + 1:] ^ words[i]).sum(axis=1)
            if diff.size:
                best = min(best, int(diff.min()))
        return best
    if strategy == "coset-brute":
        seen = set()
        best = _linear_brute(c.base, cap)
        for i in range(c.num_cosets):
            for j in range(i + 1, c.num_cosets):
                diff = c.translations[i] ^ c.translations[j]
                key = _coset_canonical(c.base, diff).tobytes()
                if key in seen:
                    continue
                seen.add(key)
                best = min(best, _coset_leader_weight(c.base, diff, cap))
        return best
    if strategy == "enumerator":
        return _first_nonzero_weight(_pair_weights(c, cap))
    raise StrategyInfeasible(f"unknown strategy {strategy!r}")


def _fwht(a: np.ndarray) -> None:
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
    [e_piv; ker B] H, whose combination p + 2^s q has B a = p, so its
    weights reshape to a 2^(r-s) x 2^s table whose column p carries
    chi(p)^2.  chi^2 is summed by weight in int64 and the polynomial
    expansion uses exact integers; the division by 2^r is checked, which
    certifies the arithmetic.
    """
    base = c.base
    h = base.parity_check
    r = h.shape[0]
    n = base.n
    K = c.num_cosets
    if (1 << r) > cap:
        raise StrategyInfeasible(f"dual enumeration 2^{r} exceeds cap {cap}")
    if (K * K) << r >= 1 << 63:
        raise StrategyInfeasible(f"{K}^2 * 2^{r} overflows int64 sums")
    syn = c.translations.astype(np.int64) @ h.T.astype(np.int64) % 2
    b, piv, s = gf2.rref(syn)
    chi = np.bincount(gf2.pack_rows(syn[:, piv]).astype(np.int64),
                      minlength=1 << s)
    _fwht(chi)
    chi *= chi
    lift = np.vstack([h[piv], gf2.kernel_basis(b[:s]).astype(np.int64)
                      @ h.astype(np.int64) % 2])
    weights = gf2.span_weights(lift, cap).reshape(-1, 1 << s)
    acc = np.zeros(n + 1, dtype=np.int64)
    # np.add.at misreads values it has to broadcast itself (numpy 2.4.6)
    np.add.at(acc, weights, np.broadcast_to(chi, weights.shape))
    poly = [0] * (n + 1)
    for w, a_w in enumerate(acc.tolist()):
        if not a_w:
            continue
        p1 = [math.comb(n - w, i) for i in range(n - w + 1)]
        p2 = [math.comb(w, i) * (-1) ** i for i in range(w + 1)]
        for i, a in enumerate(p1):
            for j, b in enumerate(p2):
                poly[i + j] += a_w * a * b
    if any(coeff % (1 << r) for coeff in poly):
        raise ConstructionMismatch("enumerator transform is not integral")
    return [coeff >> r for coeff in poly]


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
    cert = []
    ok = True
    for row in ci.base.generator:
        good = co.contains(row)
        cert.append(("base-row", row.copy(), good))
        ok &= good
    for t in ci.translations:
        good = co.contains(t)
        cert.append(("translation", t.copy(), good))
        ok &= good
    return ok, cert


# ---------------------------------------------------------------------------
# File format

def format_coset_code(c: CosetCode) -> str:
    """Linear-base matrix block followed by a translations block."""
    lines = [gf2.format_matrix(c.base.generator).rstrip("\n")]
    lines.append(f"translations {c.num_cosets}")
    for t in c.translations:
        lines.append("".join(str(int(b)) for b in t))
    return "\n".join(lines) + "\n"


def parse_coset_code(text: str) -> CosetCode:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    rows, cols = (int(x) for x in lines[0].split())
    gen = gf2.parse_matrix("\n".join(lines[:rows + 1]))
    head = lines[rows + 1].split()
    if head[0] != "translations":
        raise BadParams("expected a 'translations' block")
    count = int(head[1])
    ts = []
    for ln in lines[rows + 2: rows + 2 + count]:
        ts.append(np.array([int(ch) for ch in ln], dtype=np.uint8))
    if len(ts) != count:
        raise BadParams("translation count mismatch")
    return _make_coset_code(linear_code(gen), ts)
