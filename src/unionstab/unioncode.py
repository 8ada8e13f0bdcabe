"""Union stabilizer codes: translated stabilizer codes glued into one space.

A union stabilizer code is the direct sum of K translated copies t_i C_0
of a base stabilizer code, the t_i lying in pairwise-distinct cosets of
the base's normalizer.  This module computes coset distances (minimum
weight in a normalizer coset), builds CSS-like unions from classical
coset codes, and builds the coset graph in which clique.max_clique
searches for good translation sets.  The distance bound, the base's
purity and the exact distance that verify reports all come from the
union's quantum weight enumerators (_enumerators): one Walsh-Hadamard
transform over the 2^(n-k) stabilizer elements, and one quaternary
Krawtchouk expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2, symmetry, z4
from .classical import (
    CosetCode,
    LinearCode,
    goethals_binary,
    min_distance,
    preparata_like,
)
from .clique import CliqueResult, max_clique
from .errors import (
    BadParams,
    DuplicateCoset,
    LengthMismatch,
    NotPureEnough,
    StrategyInfeasible,
)
from .pauli import PauliVector, pauli_parse, pauli_str
from .stab import (
    CodeParams,
    StabilizerCode,
    css,
    _ip_rows,
    _span_pauli_weights,
    _swap,
    _vec,
    _xz_rows,
    format_stabilizer,
    parse_stabilizer,
)

__all__ = [
    "UnionStabilizerCode",
    "SearchGraph",
    "CliqueResult",
    "union_code",
    "coset_distance",
    "union_distance_bound",
    "true_distance",
    "css_like_union",
    "build_search_graph",
    "max_clique",
    "family_build",
    "format_union_code",
    "parse_union_code",
]


class ProductTranslations:
    """Lazy sequence of (t1 | t2) Pauli translations over two bit lists."""

    def __init__(self, t1s: np.ndarray, t2s: np.ndarray):
        self.t1s = np.asarray(t1s, dtype=np.uint8)
        self.t2s = np.asarray(t2s, dtype=np.uint8)

    def __len__(self) -> int:
        return self.t1s.shape[0] * self.t2s.shape[0]

    def __getitem__(self, i: int) -> PauliVector:
        if not 0 <= i < len(self):
            raise IndexError(i)
        a, b = divmod(i, self.t2s.shape[0])
        return PauliVector(x=self.t1s[a], z=self.t2s[b])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


@dataclass(frozen=True)
class UnionStabilizerCode:
    """Base stabilizer code plus K normalizer-coset translations."""

    base: StabilizerCode
    translations: object  # sequence of PauliVector; first is the identity coset
    params: CodeParams

    @property
    def n(self) -> int:
        return self.base.n


def union_code(base: StabilizerCode, ts: list[PauliVector],
               d: int | None = None,
               provenance: str | None = None) -> UnionStabilizerCode:
    """Union stabilizer code of dimension K * 2^k from translations ts.

    Translations must sit in pairwise-distinct normalizer cosets, told
    apart by their symplectic products with the stabilizer rows; the
    identity is prepended when no translation has the trivial character.
    """
    ordered = list(ts)
    syn = _ip_rows(_xz_rows(base.n, ordered), base.stab_binary(), base.n)
    first, _ = gf2.distinct_rows(syn)
    if len(first) < len(ordered):
        # the earliest repeat, and the first translation it repeats
        repeat = np.ones(len(ordered), dtype=bool)
        repeat[first] = False
        later = int(repeat.argmax())
        earlier = int((syn == syn[later]).all(axis=1).argmax())
        raise DuplicateCoset(
            f"translations {earlier} and {later} share a coset")
    trivial = np.flatnonzero(~syn.any(axis=1))
    if trivial.size:
        ordered.insert(0, ordered.pop(trivial[0]))
    else:
        ordered.insert(0, PauliVector(x=np.zeros(base.n, np.uint8),
                                      z=np.zeros(base.n, np.uint8)))
    k = base.k
    log2_dim = k + math.log2(len(ordered))
    prov = {"dimension": "exact-count"}
    if d is not None:
        prov["d"] = provenance or "claimed"
    params = CodeParams(n=base.n, log2_dim=log2_dim, d=d, purity=None,
                        provenance=prov)
    return UnionStabilizerCode(base=base, translations=ordered, params=params)


def coset_distance(code: UnionStabilizerCode, i: int, j: int,
                   cap: int = gf2.DEFAULT_CAP) -> int:
    """Minimum Pauli weight in the normalizer coset of t_i - t_j."""
    if i == j:
        return 0
    ti, tj = _xz_rows(code.n, [code.translations[i], code.translations[j]])
    rows = np.vstack([ti ^ tj, code.base.normalizer_binary()])
    return int(_span_pauli_weights(rows, code.n, cap)[1::2].min())


def _enumerators(code: UnionStabilizerCode, cap: int):
    """(K, h, pairs, normalizer), each read by weight w = 0 .. n.

    g_v is the base's element labelled v, the product of its rows i with
    bit i of v set, and s_i the syndrome of t_i; F is the Walsh-Hadamard
    transform of the K-point indicator of the s_i and h(x) the sum of
    F(v)^2 over the v with wt(g_v) = x.  The enumerators of Shor and
    Laflamme (PRL 78, 1997) are then K^2 A_w = h(w) and K B_w = pairs[w],
    the MacWilliams transform of h, which counts the weight-w words of
    N + t_i + t_j over all ordered pairs; normalizer[w] counts those of N.
    The s_i are distinct, so by Parseval every sum of h is at most K 2^r.
    The cap counts 17 bytes a g_v: its weight, F and F's fwht temporaries.
    """
    base, n, K = code.base, code.n, len(code.translations)
    r = n - base.k
    gf2.charge(17 << r, f"stabilizer enumeration 2^{r}", cap)
    sb = base.stab_binary()
    wt = _span_pauli_weights(sb, n, cap)
    counts = np.bincount(wt, minlength=n + 1).tolist()
    syn = gf2.pack_rows(_ip_rows(_xz_rows(n, code.translations), sb, n))
    f = np.bincount(syn.astype(np.intp), minlength=1 << r)
    gf2.fwht(f)
    f *= f
    h = np.zeros(n + 1, np.int64 if K << r < 1 << 63 else object)
    np.add.at(h, wt, f.astype(h.dtype, copy=False))
    h = h.tolist()
    return (K, h, z4._krawtchouk_expand(h, n, r, 4),
            z4._krawtchouk_expand(counts, n, r, 4))


def union_distance_bound(code: UnionStabilizerCode,
                         cap: int = gf2.DEFAULT_CAP) -> CodeParams:
    """Distance bound: min of pairwise coset distances and base purity,
    the least w >= 1 with B_w > 0 and with a normalizer word of weight w
    (_enumerators)."""
    _, _, pairs, normalizer = _enumerators(code, cap)
    best = next(w for w in range(1, code.n + 1) if pairs[w])
    purity = next(w for w in range(1, code.n + 1) if normalizer[w])
    return CodeParams(
        n=code.n, log2_dim=code.params.log2_dim, d=best, purity=purity,
        provenance={"d": "coset-enumeration-bound",
                    "impure": purity < best})


def true_distance(code: UnionStabilizerCode,
                  cap: int = gf2.DEFAULT_CAP) -> int:
    """Exact distance: the least w >= 1 with B_w > A_w, below which every
    error is detectable (Rains, IEEE Trans. IT 44, 1998).  Raises
    StrategyInfeasible when there is none: the difference set C* - C*
    then lies inside the symplectic dual of its additive closure."""
    K, h, pairs, _ = _enumerators(code, cap)
    for w in range(1, code.n + 1):
        if K * pairs[w] > h[w]:
            return w
    raise StrategyInfeasible("difference set lies inside the closure dual")


def css_like_union(c1: LinearCode, c2: LinearCode,
                   t1s: np.ndarray, t2s: np.ndarray,
                   d: int | None = None,
                   provenance: str | None = None) -> UnionStabilizerCode:
    """CSS-like union code: base css(c1, c2), translations (t1 | t2).

    The translation set is the full product of the two classical
    translation lists; distinctness of the product cosets reduces to
    distinctness of each list modulo its classical code.
    """
    base = css(c1, c2)
    t1s = np.asarray(t1s, dtype=np.uint8).reshape(-1, c1.n)
    t2s = np.asarray(t2s, dtype=np.uint8).reshape(-1, c2.n)
    for ts, c in ((t1s, c1), (t2s, c2)):
        if len(gf2.distinct_rows(c.syndrome(ts))[0]) != ts.shape[0]:
            raise DuplicateCoset("translations collide modulo the classical code")
    trans = ProductTranslations(t1s, t2s)
    K = len(trans)
    params = CodeParams(
        n=c1.n, log2_dim=base.k + int(round(math.log2(K))), d=d, purity=None,
        provenance={"dimension": "exact-count",
                    "d": provenance or "classical-certificates"})
    return UnionStabilizerCode(base=base, translations=trans, params=params)


# ---------------------------------------------------------------------------
# Search graph and clique search

@dataclass(frozen=True)
class SearchGraph:
    """Cayley graph on the 2^(n-k) normalizer cosets, vertex i syndrome i:
    u ~ v when the coset leader at syndrome u ^ v weighs >= target_d."""

    # leader weight per syndrome, clipped at max(target_d, 3)
    leaders: np.ndarray
    target_d: int
    base: StabilizerCode
    cap: int = gf2.DEFAULT_CAP  # bounds the normalizer span that reps shifts

    @property
    def num_vertices(self) -> int:
        return len(self.leaders)

    @property
    def num_edges(self) -> int:
        degree = int(np.count_nonzero(self.leaders[1:] >= self.target_d))
        return len(self.leaders) * degree // 2

    def reps(self, labels) -> np.ndarray:
        """The least-weight (x|z) representative of each coset in labels,
        one 0/1 row of 2n columns per label.

        The Paulis at syndrome u are any one of them XOR the normalizer
        span, so a coset's leader is the least key weight << 2n | word
        over one shifted span: the least (weight, packed word).  The one
        Pauli at u is the XOR of the pure errors of u's bits, solved once
        by one rref of the one-bit Paulis' labels beside the identity; the
        span is shifted in blocks of 2^LEADER_CHUNK_BITS words, which the
        cap counts with the span.
        """
        n, r = self.base.n, self.base.n - self.base.k
        size = 1 << (n + self.base.k)
        chunk = min(size, 1 << LEADER_CHUNK_BITS)
        step = (1 << LEADER_CHUNK_BITS) // chunk
        gf2.charge(8 * size + 16 * chunk * min(len(labels), step),
                   f"the 2^{n + self.base.k} normalizer span of the coset "
                   f"representatives", self.cap)
        # row j < r of the rref of (one-bit Paulis' label bits | I): the
        # unit label 1 << (r - 1 - j), then a Pauli that has it
        rows = np.concatenate([_swap(self.base.stab_binary(), n).T,
                               np.eye(2 * n, dtype=np.uint8)], axis=1)
        errors = gf2.pack_rows(gf2.rref(rows)[0][r - 1::-1, r:]).tolist()
        shifts = np.array([symmetry.map_label(errors, u) for u in labels],
                          dtype=np.uint64)
        words = gf2.span_words(self.base.normalizer_binary(), self.cap)
        best = np.empty_like(shifts)
        for i in range(0, len(shifts), step):
            for j in range(0, size, chunk):
                block = shifts[i:i + step, None] ^ words[j:j + chunk]
                key = block >> n
                key |= block
                key &= (1 << n) - 1
                np.bitwise_count(key, out=key)
                key <<= 2 * n
                key |= block
                least = key.min(axis=1)
                if j:
                    np.minimum(least, best[i:i + step], out=least)
                best[i:i + step] = least
        return gf2.unpack_rows(best[:, None], 2 * n)


# shifted normalizer words per block of SearchGraph.reps, as a power of
# two: bounds its keys, 16 bytes a word, to 64 KiB whatever n is
LEADER_CHUNK_BITS = 12


def build_search_graph(base: StabilizerCode, d: int,
                       cap: int = gf2.DEFAULT_CAP) -> SearchGraph:
    """Builds the coset search graph from the Paulis of weight below
    D = max(d, 3).

    The distance of cosets u, v is the leader weight at syndrome u ^ v,
    the least weight of a Pauli there.  Every reader compares it with d,
    or reads it at the syndromes of Paulis of weight at most 2
    (symmetry.qubit_automorphisms), so the table holds it clipped at D:
    the least weight among the Paulis of weight < D at that syndrome, and
    D where there is none.  Those sum_{w<D} C(n, w) 3^w Paulis are grown
    one qubit at a time, each with room for one more letter taking X, Z
    or Y there, its syndrome XORed with that letter's label
    (symmetry.pauli_labels); one np.minimum.at scatters their weights.
    A nonzero one at syndrome 0 lies in the normalizer, so the least such
    weight, when below d, is the base's purity.  The cap counts the
    2^(n+k) normalizer span that SearchGraph.reps shifts, then those
    Paulis, 20 bytes each as they grow, and the 2^(n-k) table.
    """
    if d < 0:
        raise BadParams(f"target distance must be at least 0, got {d}")
    n, r = base.n, base.n - base.k
    top = max(d, 3)
    count = sum(math.comb(n, w) * 3 ** w for w in range(min(top, n + 1)))
    gf2.charge(8 << (n + base.k), f"the 2^{n + base.k} normalizer span of "
               f"the coset representatives", cap)
    gf2.charge(20 * count + (1 << r), f"enumerating {count} Paulis of "
               f"weight below {top} into a 2^{r} leader table", cap)
    lab = symmetry.pauli_labels(base)
    syn, wt = np.zeros(1, np.uint64), np.zeros(1, np.uint8)
    for x, z in zip(lab[:n], lab[n:]):
        grow = wt < top - 1
        s, w = syn[grow], wt[grow] + 1
        syn = np.concatenate([syn, s ^ x, s ^ z, s ^ x ^ z])
        wt = np.concatenate([wt, w, w, w])
    pure = wt[1:][syn[1:] == 0]
    if pure.size and pure.min() < d:
        raise NotPureEnough(
            f"base is pure only up to {pure.min()}, need {d}")
    leaders = np.full(1 << r, top, dtype=np.uint8)
    np.minimum.at(leaders, syn, wt)
    return SearchGraph(leaders=leaders, target_d=d, base=base, cap=cap)


def union_from_clique(g: SearchGraph, result: CliqueResult) -> UnionStabilizerCode:
    """Union code from a clique's coset representatives."""
    ts = [_vec(row, g.base.n)
          for row in g.reps([int(label, 2) for label in result.vertices])]
    return union_code(g.base, ts, d=g.target_d,
                      provenance="clique-coset-distances")


# ---------------------------------------------------------------------------
# Families

def _certified_coset_code(cc: CosetCode,
                          cap: int = gf2.DEFAULT_CAP) -> CosetCode:
    """cc itself if it claims a distance, else cc with its enumerator d.

    Raises StrategyInfeasible when the enumerator exceeds cap.
    """
    if cc.claimed_distance is not None:
        return cc
    d = min_distance(cc, "enumerator", cap)
    return CosetCode(base=cc.base, translations=cc.translations,
                     claimed_distance=d, distance_provenance="enumerator",
                     name=cc.name)


def _check_family(kind: str, m: int) -> None:
    if kind not in ("goethals", "preparata"):
        raise BadParams("kind must be 'goethals' or 'preparata'")
    if m % 2 or m < 6:
        raise BadParams("m must be even and at least 6")


def family_params(kind: str, m: int) -> CodeParams:
    """Symbolic family parameters ((2^m, 2^dim, d)) by exponent arithmetic.

    The classical codes contribute 2^m - 3m + 1 (Goethals, distance 8) or
    2^m - 2m (Preparata, distance 6) bits each on top of the CSS base, for
    a union code of log2-dimension 2^m - 6m + 2 respectively 2^m - 4m.
    """
    _check_family(kind, m)
    n = 1 << m
    if kind == "goethals":
        log2_dim, d = n - 6 * m + 2, 8
    else:
        log2_dim, d = n - 4 * m, 6
    return CodeParams(n=n, log2_dim=log2_dim, d=d, purity=None,
                      provenance={"d": "classical-family-formula",
                                  "dimension": "exponent-arithmetic"})


def family_build(kind: str, m: int) -> UnionStabilizerCode:
    """CSS-like union codes from the Goethals / Preparata families.

    For m = 6: ((64, 2^30, 8)) from the Goethals code and ((64, 2^40, 6))
    from the Preparata code, both over base css(RM(3,6), RM(3,6)).
    """
    _check_family(kind, m)
    cc = _certified_coset_code(
        goethals_binary(m) if kind == "goethals" else preparata_like(m))
    rm = cc.base
    code = css_like_union(rm, rm, cc.translations, cc.translations,
                          d=cc.claimed_distance,
                          provenance=f"classical-{cc.distance_provenance}")
    return code


# ---------------------------------------------------------------------------
# File formats

def format_union_code(code: UnionStabilizerCode) -> str:
    """Base code, then 'T <K> <d>' (d only when known) and K translations."""
    lines = [format_stabilizer(code.base).rstrip("\n")]
    d = "" if code.params.d is None else f" {code.params.d}"
    lines.append(f"T {len(code.translations)}{d}")
    for t in code.translations:
        lines.append(pauli_str(t))
    return "\n".join(lines) + "\n"


def parse_union_code(text: str) -> UnionStabilizerCode:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    t_at = next((i for i, ln in enumerate(lines) if ln.split()[0] == "T"),
                None)
    if t_at is None:
        raise BadParams("missing 'T' translations header")
    base = parse_stabilizer("\n".join(lines[:t_at]))
    header = lines[t_at].split()
    if len(header) not in (2, 3):
        raise BadParams("translations header must be 'T <K> [<d>]'")
    count = int(header[1])
    d = int(header[2]) if len(header) == 3 else None
    ts = [pauli_parse(ln) for ln in lines[t_at + 1:]]
    if len(ts) != count:
        raise BadParams(f"translation count mismatch: header says {count}, "
                        f"found {len(ts)}")
    for i, t in enumerate(ts):
        if t.n != base.n:
            raise LengthMismatch(f"translation {i} {pauli_str(t)} acts on "
                                 f"{t.n} qubits, the base on {base.n}")
    return union_code(base, ts, d=d)
