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
# bytes of the search stack: list slots for a branch vertex's key and
# colour, spare slots included; an int object, past the small ints
# CPython caches up to 256; a level's frame, besides its two bitsets
SLOT_BYTES, INT_BYTES, LEVEL_BYTES = 24, 32, 256


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

    Vertex i of the order is keyed by its bit's bit_length, top - i,
    top = 8 ceil(|N(0)| / 8), so q.bit_length() is the lowest vertex of
    q.  Two tables are read by key: bits, the single bits, and nonadj,
    the vertices each is not adjacent to, itself left out; v's
    neighbours in cand are cand & ~nonadj[v] ^ bits[v].  Once |N(0)| is
    known, g.cap is charged both tables (4 bytes a 30-bit digit, 140 a
    vertex for nonadj and the label maps), the 2^r degrees with their
    fwht temporaries and an adjacency chunk; each search node, the stack
    of its live levels: SLOT_BYTES a branch vertex, and past key 256 an
    int more for its key and one for each colour class, whose vertices
    share their colour's int; LEVEL_BYTES and two bitsets a level.
    """
    if budget < 1:
        raise BadParams(f"clique budget must be at least 1, got {budget}")
    conn = g.leaders >= g.target_d
    conn[0] = False
    nbrs = np.flatnonzero(conn).astype(np.min_scalar_type(len(conn) - 1))
    nv = len(nbrs)
    top = -nv // 8 * -8
    digits = 4 * (top // 30)
    held = (nv * (digits + 140) + top * (digits // 2 + 36) + 17 * len(conn)
            + (nbrs.itemsize + 2) * min(nv * nv, 1 << GATHER_CHUNK_BITS))
    gf2.charge(held, f"the clique bitsets of {nv} neighbours", g.cap)
    order = _min_width_order(conn, nbrs)
    rows = []
    for i, adj in _adjacency_chunks(conn, order):
        np.invert(adj, out=adj)
        adj[np.arange(len(adj)), np.arange(i, i + len(adj))] = False
        rows += (int.from_bytes(row.tobytes(), "big")
                 for row in np.packbits(adj, axis=1))
    nonadj = [0] * (top + 1 - nv) + rows[::-1]
    bits = [0] + [1 << k for k in range(top)]
    full = (1 << top) - (1 << top - nv)
    # the label at each key, and the key of each label
    verts = [0] * (top + 1 - nv) + order[::-1].tolist()
    key = {a: top - i for i, a in enumerate(order.tolist())}
    best: list[int] = []
    nodes = 0
    truncated = False

    reduction = "none"
    if mode == "greedy":
        rng = np.random.default_rng(seed)
        for _ in range(64):
            clique, cand = [], full
            pool = list(range(top, top - nv, -1))
            rng.shuffle(pool)
            for x in pool:
                if cand & bits[x]:
                    clique.append(x)
                    cand = cand & ~nonadj[x] ^ bits[x]
            if len(clique) > len(best):
                best = clique
    elif mode == "exact":
        _, maps, group_order = symmetry.qubit_automorphisms(g)
        big = INT_BYTES * (top > 256)  # an int object past the small ints
        level = LEVEL_BYTES + 2 * (digits + INT_BYTES)

        # the identity is left out of clique and best: both sides of
        # every size comparison drop it
        def expand(clique: list[int], cand: int, stack: int):
            nonlocal best, nodes, truncated
            nodes += 1
            if nodes > budget:
                truncated = True
                return
            if len(clique) > len(best):
                best = list(clique)
            branch, colors = _color_classes(
                nonadj, bits, cand, len(best) - len(clique) + 1)
            stack += level + (SLOT_BYTES + big) * len(branch)
            stack += big * (colors[-1] - colors[0] + 1 if colors else 0)
            gf2.charge(stack, "the clique search stack", g.cap)
            while branch:
                v = branch.pop()
                if truncated or len(clique) + colors.pop() <= len(best):
                    return
                if not cand & bits[v]:  # an orbit-mate of a finished vertex
                    continue
                clique.append(v)
                expand(clique, cand & ~nonadj[v] ^ bits[v], stack)
                clique.pop()
                cand ^= bits[v]
                if len(clique) == 1:  # in u's branch, v ^ u goes with v
                    cand &= ~bits[key[verts[v] ^ verts[clique[0]]]]
                elif not clique and not truncated:
                    for u in symmetry.label_orbit(maps, verts[v]):
                        cand &= ~bits[key[u]]
                        for a, x in key.items():
                            y = key.get(a ^ u)
                            if y is not None:
                                nonadj[x] |= bits[y]
        expand([], full, held)
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


def _color_classes(nonadj: list[int], bits: list[int], cand: int,
                   kmin: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of the bitset cand, one colour class at a time.

    Vertices are keyed by bit_length, bits[v] the bit of key v and
    nonadj[v] the vertices v is not adjacent to, v itself left out.  Each
    class takes the highest uncoloured key, then the highest adjacent to
    none of its members (q &= nonadj[v] per member), and so on; this
    gives each vertex the smallest colour free of its higher-keyed
    neighbours, as a sequential greedy colouring in descending key order
    does.  Returns the keys of colour >= kmin and their colours, in
    colour order; the classes below kmin are only stripped from cand.
    """
    verts, colors = [], []
    color = 0
    while cand:
        color += 1
        q = cand
        if color < kmin:
            while q:
                v = q.bit_length()
                cand ^= bits[v]
                q &= nonadj[v]
            continue
        while q:
            v = q.bit_length()
            cand ^= bits[v]
            q &= nonadj[v]
            verts.append(v)
        colors += [color] * (len(verts) - len(colors))
    return verts, colors
