"""Maximum cliques in the coset search graph by bitset branch and bound.

The graph is a Cayley graph on GF(2)^r given by its connection set conn,
a boolean table over the 2^r labels: u ~ v when conn[u ^ v].  max_clique
searches the identity's neighbours N(0) for the largest clique through
the identity, exactly (BBMC, reduced by translations and by the base's
qubit automorphisms) or greedily.  Its kernels: the induced adjacency
gathered a bounded chunk at a time, a minimum-width vertex order kept
on per-label degrees, and a greedy colouring built one colour class at
a time on Python-int bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import gf2, symmetry
from .errors import BadParams, ConstructionMismatch

if TYPE_CHECKING:
    from .unioncode import SearchGraph

# adjacency entries per row chunk of the clique search, as a power of two
GATHER_CHUNK_BITS = 20


@dataclass(frozen=True)
class CliqueResult:
    vertices: list[str]
    size: int
    method: str
    optimal: bool
    stats: dict


def max_clique(g: SearchGraph, mode: str = "exact", seed: int = 0,
               budget: int = 10**7) -> CliqueResult:
    """Maximum clique through the pinned identity vertex.

    Exact mode is BBMC (San Segundo et al., 2011): a deterministic
    branch-and-bound over bitset candidate sets, the identity's
    neighbours N(0) numbered once in minimum-width order, bounded by a
    greedy colouring built class by class.  Greedy mode runs randomized
    multi-start extension.  The returned clique is always re-verified
    edge by edge against the leader table.

    Exact mode also reduces by symmetry.  g is a Cayley graph on
    GF(2)^r, so a clique C through 0 shifted by any member a is another
    clique C ^ a through 0 with the same difference set C ^ C.  And each
    qubit automorphism of the base (symmetry.qubit_automorphisms) acts on
    labels by a linear map M keeping the leader table, so M C is a
    clique through 0 with difference set M(C ^ C).  Orbits are taken
    under the full group G of those maps, trivial when g has no base.
    Once the top-level branch of u finishes, every edge {x, y} with
    x ^ y in the orbit G u is deleted, the edges {0, w} included, which
    drops u's orbit-mates from the top-level candidates; later branches
    search, and colour, the graph without them.  This is exact.  Take a
    clique C through 0 with a difference a ^ b in a finished orbit, and
    let O be the first such orbit to finish, at the end of the branch of
    u, with a ^ b = M u.  Then M^-1 (C ^ a) is a clique through 0 that
    contains u, and its differences lie in the orbits of C's, orbits
    being closed under G.  None of those finished before O, so none of
    its edges was deleted while u's branch ran, and that branch searched
    it.

    One level down, inside the branch of u, the translation by u swaps
    0 and u, so once the sub-branch of v finishes, v ^ u leaves the
    candidates too.  This is exact as well.  Take a clique C through 0
    and u that u's branch would search without this, and let v be the
    first vertex finished there with v or v ^ u in C.  Then C or C ^ u
    is a clique through 0, u and v that holds no earlier finished w or
    w ^ u, as C ^ u holds w exactly when C holds w ^ u.  Its differences
    are C's, so the top-level edge deletions treat it as C, and v's
    sub-branch searched it.  stats["symmetry"] is "translation", or
    "translation+aut(|G|)" when G is nontrivial, in exact mode, and
    "none" in greedy mode.
    """
    if budget < 1:
        raise BadParams(f"clique budget must be at least 1, got {budget}")
    conn = g.leaders >= g.target_d
    conn[0] = False
    nbrs = np.flatnonzero(conn).astype(np.min_scalar_type(len(conn) - 1))
    order = _min_width_order(conn, nbrs)
    adjbits = [int.from_bytes(row.tobytes(), "little")
               for _, rows in _adjacency_chunks(conn, order)
               for row in np.packbits(rows, axis=1, bitorder="little")]
    verts = order.tolist()
    full = (1 << len(verts)) - 1
    best: list[int] = []
    nodes = 0
    truncated = False

    reduction = "none"
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
        _, maps, group_order = symmetry.qubit_automorphisms(g)
        bit = {a: i for i, a in enumerate(verts)}
        nonadj = [full ^ row ^ 1 << v for v, row in enumerate(adjbits)]

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
                nonadj, cand, len(best) - len(clique) + 1)
            while branch:
                v = branch.pop()
                if truncated or len(clique) + colors.pop() <= len(best):
                    return
                if not cand >> v & 1:  # an orbit-mate of a finished vertex
                    continue
                clique.append(v)
                expand(clique, cand & adjbits[v])
                clique.pop()
                cand ^= 1 << v
                if len(clique) == 1:  # in u's branch, v ^ u goes with v
                    cand &= ~(1 << bit[verts[v] ^ verts[clique[0]]])
                elif not clique and not truncated:
                    for u in symmetry.label_orbit(maps, verts[v]):
                        cand &= ~(1 << bit[u])
                        for x, a in enumerate(verts):
                            y = bit.get(a ^ u)
                            if y is not None:
                                adjbits[x] &= ~(1 << y)
                                nonadj[x] |= 1 << y
        expand([], full)
        # expand holds itself through its closure: drop it, so that the
        # bitsets it closes over go now rather than at a cyclic collection
        del expand
        reduction = "translation" + (f"+aut({group_order})"
                                     if group_order > 1 else "")
    else:
        raise BadParams(f"unknown clique mode {mode!r}")

    best_sorted = [0] + sorted(verts[v] for v in best)
    label = f"0{(len(g.leaders) - 1).bit_length()}b"
    missing = [(a, b) for a in best_sorted for b in best_sorted
               if a != b and g.leaders[a ^ b] < g.target_d]
    if missing:
        raise ConstructionMismatch(
            "clique re-verification failed: {} and {} are not adjacent"
            .format(*(format(v, label) for v in missing[0])))
    return CliqueResult(
        vertices=[format(v, label) for v in best_sorted],
        size=len(best_sorted),
        method=mode,
        optimal=(mode == "exact" and not truncated),
        stats={"nodes": nodes, "seed": seed, "symmetry": reduction},
    )


def _adjacency_chunks(conn: np.ndarray, verts: np.ndarray):
    """Yields (i, conn[verts[i:j, None] ^ verts]), the adjacency rows i:j
    induced on verts, about 2^GATHER_CHUNK_BITS entries at a time."""
    step = max(1, (1 << GATHER_CHUNK_BITS) // max(len(verts), 1))
    for i in range(0, len(verts), step):
        yield i, conn[verts[i:i + step, None] ^ verts]


def _min_width_order(conn: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """verts, the ascending labels of N(0), in minimum-width order, last
    removed first.

    Repeatedly removes a vertex of least remaining degree in the graph
    induced on verts, the lowest label on ties; the core left at the end
    comes first, so the ascending-bit colouring colours it first.
    Degrees are kept per label, 2^r of them, non-vertices and removed
    vertices pinned above every degree: the initial ones are the XOR
    autocorrelation of conn, one Walsh-Hadamard transform each way, and
    removing a lowers the degree of each neighbour a ^ c, c in N(0), by
    one.
    """
    done = np.iinfo(np.int64).max // 2
    deg = conn.astype(np.int64)
    gf2.fwht(deg)
    deg *= deg
    gf2.fwht(deg)
    deg >>= len(conn).bit_length() - 1
    deg[~conn] = done
    removed = []
    for _ in range(len(verts)):
        a = int(deg.argmin())
        removed.append(a)
        deg[verts ^ a] -= 1
        deg[a] = done
    return np.array(removed[::-1], dtype=verts.dtype)


def _color_classes(nonadj: list[int], cand: int,
                   kmin: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of the bitset cand, one colour class at a time.

    nonadj[v] holds the vertices v is not adjacent to, v itself left
    out.  Each class takes the lowest uncoloured bit, then the lowest bit
    adjacent to none of its members (q &= nonadj[v] per member), and so
    on; this gives each vertex the smallest colour free of its lower
    neighbours, as a sequential greedy colouring in ascending bit order
    does.  Returns the vertices of colour >= kmin and their colours, in
    colour order; the classes below kmin are only stripped from cand.
    """
    verts, colors = [], []
    color = 0
    while cand:
        color += 1
        q = cand
        if color < kmin:
            while q:
                low = q & -q
                cand ^= low
                q &= nonadj[low.bit_length() - 1]
            continue
        while q:
            low = q & -q
            v = low.bit_length() - 1
            cand ^= low
            q &= nonadj[v]
            verts.append(v)
        colors += [color] * (len(verts) - len(colors))
    return verts, colors
