"""Union stabilizer codes: translated stabilizer codes glued into one space.

A union stabilizer code is the direct sum of K translated copies t_i C_0
of a base stabilizer code, the t_i lying in pairwise-distinct cosets of
the base's normalizer.  This module computes coset distances (minimum
weight in a normalizer coset), the resulting distance bound, the exact
true distance at small length, builds CSS-like unions from classical
coset codes, and searches for good translation sets as cliques in a
coset graph.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .classical import (
    CosetCode,
    LinearCode,
    goethals_binary,
    min_distance,
    preparata_like,
)
from .errors import (
    BadParams,
    DuplicateCoset,
    NotPureEnough,
    StrategyInfeasible,
)
from .pauli import PauliVector, pauli_parse, pauli_str, pauli_weight
from .stab import (
    CodeParams,
    StabilizerCode,
    css,
    _commutation_bits,
    _normalizer_span,
    _xz_weights,
    format_stabilizer,
    parse_stabilizer,
    purity_and_distance,
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


def _translation_syndrome(base: StabilizerCode, t: PauliVector) -> bytes:
    """Character label of t: symplectic products with stabilizer rows."""
    bits = [str((int((t.x & s.z).sum() + (t.z & s.x).sum())) % 2)
            for s in base.stab]
    return "".join(bits).encode()


def union_code(base: StabilizerCode, ts: list[PauliVector],
               d: int | None = None,
               provenance: str | None = None) -> UnionStabilizerCode:
    """Union stabilizer code of dimension K * 2^k from translations ts.

    Translations must sit in pairwise-distinct normalizer cosets; the
    identity is prepended when no translation has the trivial character.
    """
    seen = {}
    ordered = []
    for t in ts:
        key = _translation_syndrome(base, t)
        if key in seen:
            raise DuplicateCoset(
                f"translations {seen[key]} and {len(ordered)} share a coset")
        seen[key] = len(ordered)
        ordered.append(t)
    zero = b"0" * (base.n - base.k)
    if zero not in seen:
        ordered.insert(0, PauliVector(x=np.zeros(base.n, np.uint8),
                                      z=np.zeros(base.n, np.uint8)))
    else:
        idx = seen[zero]
        ordered.insert(0, ordered.pop(idx))
    k = base.k
    log2_dim = k + math.log2(len(ordered))
    prov = {"dimension": "exact-count"}
    if d is not None:
        prov["d"] = provenance or "claimed"
    params = CodeParams(n=base.n, log2_dim=log2_dim, d=d, purity=None,
                        provenance=prov)
    return UnionStabilizerCode(base=base, translations=ordered, params=params)


def _xz_rows(n: int, ps) -> np.ndarray:
    """Pauli vectors as the rows (x|z) of a 0/1 matrix."""
    rows = [np.concatenate([p.x, p.z]) for p in ps]
    return np.array(rows, dtype=np.uint8).reshape(-1, 2 * n)


def _difference_classes(code: UnionStabilizerCode) -> np.ndarray:
    """Packed t_i + t_j over i < j, one per distinct stabilizer syndrome.

    The coset N + t_i + t_j of the normalizer N depends only on the
    syndrome of t_i + t_j, so these representatives reach every coset
    of the pairwise differences exactly once.
    """
    t = gf2.pack_rows(_xz_rows(code.n, code.translations))
    syn = _commutation_bits(t, code.base.stab_binary(), code.n).tolist()
    t = t.tolist()
    reps = {}
    for a, (sa, ta) in enumerate(zip(syn, t)):
        for sb, tb in zip(syn[a + 1:], t[a + 1:]):
            reps.setdefault(sa ^ sb, ta ^ tb)
    return np.array(list(reps.values()), dtype=np.uint64)


def coset_distance(code: UnionStabilizerCode, i: int, j: int,
                   cap: int = gf2.DEFAULT_CAP) -> int:
    """Minimum Pauli weight in the normalizer coset of t_i - t_j."""
    if i == j:
        return 0
    ti, tj = gf2.pack_rows(_xz_rows(code.n, [code.translations[i],
                                             code.translations[j]]))
    words = _normalizer_span(code.base, cap)
    return int(_xz_weights(words ^ (ti ^ tj), code.n).min())


def union_distance_bound(code: UnionStabilizerCode,
                         cap: int = gf2.DEFAULT_CAP) -> CodeParams:
    """Distance bound: min of pairwise coset distances and base purity."""
    n = code.n
    words = _normalizer_span(code.base, cap)
    weights = _xz_weights(words, n)
    purity = int(weights[weights > 0].min())
    best = purity
    for rep in _difference_classes(code):
        best = min(best, int(_xz_weights(words ^ rep, n).min()))
    return CodeParams(
        n=n, log2_dim=code.params.log2_dim, d=best, purity=purity,
        provenance={"d": "coset-enumeration-bound",
                    "impure": purity < best})


def true_distance(code: UnionStabilizerCode,
                  cap: int = gf2.DEFAULT_CAP) -> int:
    """Exact distance: min weight over (C* - C*) minus the closure dual.

    C* is the union normalizer code; its difference set is thinned by the
    symplectic dual of the additive closure of C*.  C* - C* is the union
    of N + t_i + t_j over all pairs, i = j giving N itself, so one
    normalizer span is shifted by one representative per difference
    class.  A word lies in the closure dual when it commutes with every
    closure generator; the commutation bits are linear, so those of a
    shifted word are the span's XOR the representative's.
    """
    n = code.n
    if (1 << (2 * n)) > cap:
        raise StrategyInfeasible(f"4^{n} enumeration exceeds cap {cap}")
    words = _normalizer_span(code.base, cap)
    gens = np.concatenate([code.base.normalizer_binary(),
                           _xz_rows(n, code.translations)])
    closure, _, rank = gf2.rref(gens)
    closure = closure[:rank]
    reps = np.concatenate([np.zeros(1, np.uint64), _difference_classes(code)])
    word_bits = _commutation_bits(words, closure, n)
    best = None
    for rep, rep_bits in zip(reps, _commutation_bits(reps, closure, n)):
        outside = word_bits != rep_bits
        if outside.any():
            m = int(_xz_weights(words[outside] ^ rep, n).min())
            best = m if best is None else min(best, m)
    if best is None:
        raise StrategyInfeasible("difference set lies inside the closure dual")
    return best


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
        syn = {c.syndrome(t).tobytes() for t in ts}
        if len(syn) != ts.shape[0]:
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
    """Graph on the 2^(n-k) normalizer cosets; edges = coset distance >= d."""

    labels: list[str]           # syndrome strings, vertex order
    reps: np.ndarray            # minimal-weight (x|z) representative per vertex
    adj: np.ndarray             # boolean adjacency matrix
    target_d: int
    base: StabilizerCode

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2


@dataclass(frozen=True)
class CliqueResult:
    vertices: list[str]
    size: int
    method: str
    optimal: bool
    stats: dict


# Paulis per chunk of the leader scan, as a power of two: bounds its
# temporaries to a few MB whatever n is
LEADER_CHUNK_BITS = 14


def build_search_graph(base: StabilizerCode, d: int,
                       cap: int = gf2.DEFAULT_CAP) -> SearchGraph:
    """Builds the coset search graph via a full coset-leader table.

    Every Pauli vector is scanned once; the minimum weight per stabilizer
    syndrome gives all pairwise coset distances, since the distance of
    cosets u, v equals the leader weight at syndrome u + v.  Pauli index
    a is the packed (x|z) word a, whose syndrome is entry a of the span
    of the swapped stabilizer's columns (row 0 the most significant
    label bit).  Chunks of 2^LEADER_CHUNK_BITS indices share the span of
    the low columns, XORed with one entry of the high columns' span.  The
    leader of a syndrome is the least (weight, index), kept as the
    minimum key weight << 2n | index.
    """
    if d < 0:
        raise BadParams(f"target distance must be at least 0, got {d}")
    n, k = base.n, base.k
    if (1 << (2 * n)) > cap:
        raise StrategyInfeasible(f"4^{n} leader scan exceeds cap {cap}")
    params = purity_and_distance(base, cap)
    if params.purity < d:
        raise NotPureEnough(
            f"base is pure only up to {params.purity}, need {d}")
    r = n - k
    sb = base.stab_binary()
    cols = np.concatenate([sb[:, n:], sb[:, :n]], axis=1).T[:, ::-1]
    c = min(LEADER_CHUNK_BITS, 2 * n)
    low = gf2.span_words(cols[:c], cap)
    idx = np.arange(1 << c, dtype=np.uint64)
    keys = np.full(1 << r, np.iinfo(np.uint64).max, dtype=np.uint64)
    for h, high in enumerate(gf2.span_words(cols[c:], cap)):
        pauli = idx | (h << c)
        key = _xz_weights(pauli, n).astype(np.uint64) << (2 * n) | pauli
        np.minimum.at(keys, low ^ high, key)
    leaders = keys >> (2 * n)
    reps = ((keys[:, None] >> np.arange(2 * n, dtype=np.uint64)) & 1
            ).astype(np.uint8)
    labels = [format(s, f"0{r}b") for s in range(1 << r)]
    v = np.arange(1 << r, dtype=np.min_scalar_type((1 << r) - 1))
    adj = (leaders >= d)[v[:, None] ^ v]
    np.fill_diagonal(adj, False)
    return SearchGraph(labels=labels, reps=reps, adj=adj, target_d=d,
                       base=base)


def _min_width_order(adj: np.ndarray) -> list[int]:
    """Vertices of adj in minimum-width order, last removed first.

    Repeatedly removes a vertex of least remaining degree, the lowest
    index on ties; the core left at the end comes first, so the
    ascending-bit colouring in max_clique colours it first.
    """
    deg = adj.sum(axis=1, dtype=np.int64)
    removed = []
    for _ in range(len(deg)):
        v = int(np.argmin(deg))
        removed.append(v)
        deg -= adj[v]
        deg[v] = np.iinfo(np.int64).max
    return removed[::-1]


def _color_classes(adjbits: list[int], cand: int,
                   kmin: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of the bitset cand, one colour class at a time.

    Each class takes the lowest uncoloured bit, then the lowest bit
    adjacent to none of its members, and so on; this gives each vertex
    the smallest colour free of its lower neighbours, as a sequential
    greedy colouring in ascending bit order does.  Returns the vertices
    of colour >= kmin and their colours, in colour order.
    """
    verts, colors = [], []
    color = 0
    while cand:
        color += 1
        q = cand
        while q:
            low = q & -q
            v = low.bit_length() - 1
            cand ^= low
            q &= ~(adjbits[v] | low)
            if color >= kmin:
                verts.append(v)
                colors.append(color)
    return verts, colors


def max_clique(g: SearchGraph, mode: str = "exact", seed: int = 0,
               budget: int = 10**7) -> CliqueResult:
    """Maximum clique through the pinned identity vertex.

    Exact mode is BBMC (San Segundo et al., 2011): a deterministic
    branch-and-bound over bitset candidate sets, the identity's
    neighbours numbered once in minimum-width order, bounded by a
    greedy colouring built class by class.  Greedy mode runs randomized
    multi-start extension.  The returned clique is always re-verified
    edge by edge.
    """
    if budget < 1:
        raise BadParams(f"clique budget must be at least 1, got {budget}")
    identity = g.labels.index("0" * len(g.labels[0]))
    nbrs = np.flatnonzero(g.adj[identity])
    sub = g.adj[np.ix_(nbrs, nbrs)]
    order = _min_width_order(sub)
    verts = nbrs[order].tolist()
    adjbits = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                              "little") for row in sub[np.ix_(order, order)]]
    full = (1 << len(verts)) - 1
    best: list[int] = []
    nodes = 0
    truncated = False

    if mode == "greedy":
        rng = np.random.default_rng(seed)
        for _ in range(64):
            clique, cand = [], full
            pool = list(range(len(verts)))
            rng.shuffle(pool)
            for v in pool:
                if cand >> v & 1:
                    clique.append(v)
                    cand &= adjbits[v]
            if len(clique) > len(best):
                best = clique
    elif mode == "exact":
        # the identity is left out of clique and best: both sides of
        # every size comparison drop it
        def expand(clique: list[int], cand: int):
            nonlocal best, nodes, truncated
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            if len(clique) > len(best):
                best = list(clique)
            branch, colors = _color_classes(
                adjbits, cand, len(best) - len(clique) + 1)
            while branch:
                v = branch.pop()
                if truncated or len(clique) + colors.pop() <= len(best):
                    return
                clique.append(v)
                expand(clique, cand & adjbits[v])
                clique.pop()
                cand ^= 1 << v
        expand([], full)
    else:
        raise BadParams(f"unknown clique mode {mode!r}")

    best_sorted = [identity] + sorted(verts[v] for v in best)
    for a in best_sorted:
        for b in best_sorted:
            if a != b:
                assert g.adj[a][b], "clique re-verification failed"
    return CliqueResult(
        vertices=[g.labels[v] for v in best_sorted],
        size=len(best_sorted),
        method=mode,
        optimal=(mode == "exact" and not truncated),
        stats={"nodes": nodes, "seed": seed},
    )


def union_from_clique(g: SearchGraph, result: CliqueResult) -> UnionStabilizerCode:
    """Union code from a clique's coset representatives."""
    n = g.base.n
    ts = []
    for label in result.vertices:
        rep = g.reps[int(label, 2)]
        ts.append(PauliVector(x=rep[:n], z=rep[n:]))
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


@functools.lru_cache(maxsize=None)
def _family_coset_code(kind: str, m: int) -> CosetCode:
    return _certified_coset_code(
        goethals_binary(m) if kind == "goethals" else preparata_like(m))


def family_params(kind: str, m: int) -> CodeParams:
    """Symbolic family parameters ((2^m, 2^dim, d)) by exponent arithmetic.

    The classical codes contribute 2^m - 3m + 1 (Goethals, distance 8) or
    2^m - 2m (Preparata, distance 6) bits each on top of the CSS base, for
    a union code of log2-dimension 2^m - 6m + 2 respectively 2^m - 4m.
    """
    if kind not in ("goethals", "preparata"):
        raise BadParams("kind must be 'goethals' or 'preparata'")
    if m % 2 or m < 6:
        raise BadParams("m must be even and at least 6")
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
    if kind not in ("goethals", "preparata"):
        raise BadParams("kind must be 'goethals' or 'preparata'")
    if m % 2:
        raise BadParams("m must be even")
    cc = _family_coset_code(kind, m)
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
    ts = [pauli_parse(ln) for ln in lines[t_at + 1: t_at + 1 + count]]
    if len(ts) != count:
        raise BadParams("translation count mismatch")
    return union_code(base, ts, d=d)
