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


def _normalizer_words(base: StabilizerCode, cap: int) -> np.ndarray:
    if (1 << (base.n + base.k)) > cap:
        raise StrategyInfeasible(
            f"normalizer enumeration 2^{base.n + base.k} exceeds cap {cap}")
    return gf2.word_matrix(base.normalizer_binary(), cap)


def coset_distance(code: UnionStabilizerCode, i: int, j: int,
                   cap: int = gf2.DEFAULT_CAP) -> int:
    """Minimum Pauli weight in the normalizer coset of t_i - t_j."""
    if i == j:
        return 0
    ti, tj = code.translations[i], code.translations[j]
    diff = np.concatenate([ti.x ^ tj.x, ti.z ^ tj.z])
    words = _normalizer_words(code.base, cap) ^ diff
    n = code.n
    return int((words[:, :n] | words[:, n:]).sum(axis=1).min())


def union_distance_bound(code: UnionStabilizerCode,
                         cap: int = gf2.DEFAULT_CAP) -> CodeParams:
    """Distance bound: min of pairwise coset distances and base purity."""
    base_params = purity_and_distance(code.base, cap)
    K = len(code.translations)
    words = _normalizer_words(code.base, cap)
    n = code.n
    best = base_params.purity
    for i in range(K):
        for j in range(i + 1, K):
            ti, tj = code.translations[i], code.translations[j]
            diff = np.concatenate([ti.x ^ tj.x, ti.z ^ tj.z])
            shifted = words ^ diff
            w = int((shifted[:, :n] | shifted[:, n:]).sum(axis=1).min())
            best = min(best, w)
    impure = base_params.purity < best
    return CodeParams(
        n=n, log2_dim=code.params.log2_dim, d=best, purity=base_params.purity,
        provenance={"d": "coset-enumeration-bound",
                    "impure": impure})


def true_distance(code: UnionStabilizerCode,
                  cap: int = gf2.DEFAULT_CAP) -> int:
    """Exact distance: min weight over (C* - C*) minus the closure dual.

    C* is the union normalizer code; its difference set is thinned by the
    symplectic dual of the additive closure of C*.
    """
    n = code.n
    if (1 << (2 * n)) > cap:
        raise StrategyInfeasible(f"4^{n} enumeration exceeds cap {cap}")
    words = _normalizer_words(code.base, cap)
    stacked = []
    for t in code.translations:
        stacked.append(words ^ np.concatenate([t.x, t.z]))
    cstar = np.concatenate(stacked, axis=0)
    # additive closure and its symplectic dual
    closure_gens = np.concatenate(
        [code.base.normalizer_binary(),
         np.array([np.concatenate([t.x, t.z]) for t in code.translations],
                  dtype=np.uint8).reshape(-1, 2 * n)], axis=0)
    closure, _, rank = gf2.rref(closure_gens)
    closure = closure[:rank]
    swapped = np.concatenate([closure[:, n:], closure[:, :n]], axis=1)
    best = None
    seen = set()
    for i in range(cstar.shape[0]):
        diffs = cstar ^ cstar[i]
        syn = (diffs @ swapped.T) % 2
        outside = syn.any(axis=1)
        w = (diffs[:, :n] | diffs[:, n:]).sum(axis=1)
        cand = w[outside]
        if cand.size:
            m = int(cand.min())
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


def build_search_graph(base: StabilizerCode, d: int,
                       cap: int = gf2.DEFAULT_CAP) -> SearchGraph:
    """Builds the coset search graph via a full coset-leader table.

    Every Pauli vector is scanned once; the minimum weight per stabilizer
    syndrome gives all pairwise coset distances, since the distance of
    cosets u, v equals the leader weight at syndrome u + v.
    """
    n, k = base.n, base.k
    if (1 << (2 * n)) > cap:
        raise StrategyInfeasible(f"4^{n} leader scan exceeds cap {cap}")
    params = purity_and_distance(base, cap)
    if params.purity < d:
        raise NotPureEnough(
            f"base is pure only up to {params.purity}, need {d}")
    r = n - k
    sb = base.stab_binary()
    swapped = np.concatenate([sb[:, n:], sb[:, :n]], axis=1)
    total = 1 << (2 * n)
    leaders = np.full(1 << r, 2 * n + 1, dtype=np.int64)
    reps = np.zeros((1 << r, 2 * n), dtype=np.uint8)
    shifts = np.arange(2 * n, dtype=np.int64)
    powers = 1 << np.arange(r - 1, -1, -1, dtype=np.int64)
    chunk = 1 << min(18, 2 * n)
    for start in range(0, total, chunk):
        idx = np.arange(start, start + chunk, dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.uint8)
        syn = (bits @ swapped.T % 2).astype(np.int64) @ powers
        w = (bits[:, :n] | bits[:, n:]).sum(axis=1)
        order = np.lexsort((idx, w))
        for pos in order:
            s = syn[pos]
            if w[pos] < leaders[s]:
                leaders[s] = w[pos]
                reps[s] = bits[pos]
    labels = [format(s, f"0{r}b") for s in range(1 << r)]
    adj = np.zeros((1 << r, 1 << r), dtype=bool)
    for u in range(1 << r):
        for v in range(u + 1, 1 << r):
            if leaders[u ^ v] >= d:
                adj[u, v] = adj[v, u] = True
    return SearchGraph(labels=labels, reps=reps, adj=adj, target_d=d,
                       base=base)


def _greedy_coloring_bound(adj: list[set], verts: list[int]) -> list[int]:
    """Orders verts by greedy color classes; returns color numbers."""
    colors = {}
    for v in verts:
        used = {colors[u] for u in colors.keys() & adj[v]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return [colors[v] for v in verts]


def max_clique(g: SearchGraph, mode: str = "exact", seed: int = 0,
               budget: int = 10**7) -> CliqueResult:
    """Maximum clique through the pinned identity vertex.

    Exact mode is a deterministic branch-and-bound with greedy-coloring
    bounds; greedy mode runs randomized multi-start extension.  The
    returned clique is always re-verified edge by edge.
    """
    nv = g.num_vertices
    adj = [set(np.flatnonzero(g.adj[v]).tolist()) for v in range(nv)]
    identity = g.labels.index("0" * len(g.labels[0]))
    cand0 = sorted(adj[identity],
                   key=lambda v: (-len(adj[v]), g.labels[v]))
    best: list[int] = [identity]
    nodes = 0
    truncated = False

    if mode == "greedy":
        rng = np.random.default_rng(seed)
        for _ in range(64):
            clique = [identity]
            pool = list(adj[identity])
            rng.shuffle(pool)
            for v in pool:
                if all(v in adj[u] for u in clique):
                    clique.append(v)
            if len(clique) > len(best):
                best = clique
    elif mode == "exact":
        def expand(clique: list[int], cand: list[int]):
            nonlocal best, nodes, truncated
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            if len(clique) > len(best):
                best = list(clique)
            if not cand:
                return
            colors = _greedy_coloring_bound(adj, cand)
            order = sorted(range(len(cand)), key=lambda i: colors[i])
            while order:
                i = order.pop()
                if truncated:
                    return
                if len(clique) + colors[i] <= len(best):
                    return
                v = cand[i]
                sub = [cand[j] for j in order if cand[j] in adj[v]]
                expand(clique + [v], sub)
        expand([identity], cand0)
    else:
        raise BadParams(f"unknown clique mode {mode!r}")

    best_sorted = [identity] + sorted(v for v in best if v != identity)
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

@functools.lru_cache(maxsize=None)
def _certified_coset_code(kind: str, m: int) -> CosetCode:
    cc = goethals_binary(m) if kind == "goethals" else preparata_like(m)
    if cc.claimed_distance is not None:
        return cc
    d = min_distance(cc, "enumerator")
    return CosetCode(base=cc.base, translations=cc.translations,
                     claimed_distance=d, distance_provenance="enumerator",
                     name=cc.name)


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
    cc = _certified_coset_code(kind, m)
    rm = cc.base
    code = css_like_union(rm, rm, cc.translations, cc.translations,
                          d=cc.claimed_distance,
                          provenance=f"classical-{cc.distance_provenance}")
    return code


# ---------------------------------------------------------------------------
# File formats

def format_union_code(code: UnionStabilizerCode) -> str:
    lines = [format_stabilizer(code.base).rstrip("\n")]
    lines.append(f"T {len(code.translations)}")
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
    count = int(lines[t_at].split()[1])
    ts = [pauli_parse(ln) for ln in lines[t_at + 1: t_at + 1 + count]]
    if len(ts) != count:
        raise BadParams("translation count mismatch")
    return union_code(base, ts)
