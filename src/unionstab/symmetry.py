"""Qubit automorphisms of a stabilizer code and their action on labels.

A label is a stabilizer syndrome, row 0 of the stabilizer the most
significant bit, as in unioncode's coset search graph: label u names the
normalizer coset of the Paulis with syndrome u.  A qubit permutation
that maps the stabilizer group onto itself, signs ignored, maps
normalizer cosets onto normalizer cosets and keeps Pauli weights, so it
acts on labels by a linear map that keeps the coset-leader table.
qubit_automorphisms finds the group from a search graph, with each
generator's map as the images of the unit labels, and label_orbit
closes a label under those maps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import gf2
from .stab import StabilizerCode, _swap

if TYPE_CHECKING:
    from .unioncode import SearchGraph

# backtracking steps the qubit automorphism search may take before it
# settles for the trivial group; the ring graph states take 26 steps at
# n = 5, 130 at n = 9 and 378 at n = 13
AUT_STEP_CAP = 1 << 12


def pauli_labels(base: StabilizerCode) -> np.ndarray:
    """Label of each one-bit Pauli: entry j is the syndrome of the packed
    (x|z) word 1 << j, stabilizer row 0 the most significant label bit."""
    return gf2.pack_rows(_swap(base.stab_binary(), base.n).T[:, ::-1])


def qubit_automorphisms(
        g: SearchGraph) -> tuple[list[list[int]], list[list[int]], int]:
    """Generators, their label maps and the order of the qubit
    automorphism group of g's base.

    An automorphism is a qubit permutation s (qubit q to s[q]) mapping
    the stabilizer group onto itself, signs ignored: equivalently, one
    mapping each normalizer basis row into the normalizer, to label 0.
    It keeps Pauli weights, so it keeps the 3 x 3 block
    leaders[l(P_q) ^ l(Q_p)] of every qubit pair (q, p), l(P_q) the label
    of Pauli P in X, Z, Y on qubit q (each entry at most 2, so the
    clipped table holds it exactly); comparing blocks prunes a
    backtracking over qubit images.  Sims' scheme finds the group: level
    i, from the last qubit down, holds the automorphisms fixing qubits
    0..i-1, and for each image j of qubit i that the generators found so
    far do not reach, one automorphism fixing 0..i-1 and sending i to j
    is searched for.  The generators found generate the group, whose
    order is the product of the level orbit sizes.  Each generator's map
    on labels is given as the images of the unit labels 1 << b: the
    labels of the permuted pure errors g.pure_errors[b] (see map_label).
    An automorphism maps the normalizer onto itself, so the image of a
    coset's label is the same whichever of its Paulis is permuted.
    Returns ([], [], 1) when g has no base or the backtracking takes more
    than AUT_STEP_CAP steps.
    """
    if g.base is None:
        return [], [], 1
    n = g.base.n
    lab = pauli_labels(g.base).tolist()
    leaders = g.leaders.tolist()
    trip = [(x, z, x ^ z) for x, z in zip(lab[:n], lab[n:])]
    pair = [[[leaders[a ^ b] for a in tq for b in tp] for tp in trip]
            for tq in trip]
    sig = [(row[q], sorted(row)) for q, row in enumerate(pair)]
    cands = [[c for c in range(n) if sig[c] == sig[q]] for q in range(n)]
    norm = [[j for j, b in enumerate(row) if b]
            for row in g.base.normalizer_binary().tolist()]
    steps = 0

    def extend(s: list[int], forced: list[int]) -> bool:
        nonlocal steps
        steps += 1
        q = len(s)
        if steps > AUT_STEP_CAP:
            return False
        if q == n:
            both = s + [n + p for p in s]
            return not any(_xor(lab[both[j]] for j in row) for row in norm)
        for c in forced[q:q + 1] or cands[q]:
            if c not in s and all(pair[p][q] == pair[s[p]][c]
                                  for p in range(q)):
                s.append(c)
                if extend(s, forced):
                    return True
                s.pop()
        return False

    gens, order = [], 1
    for i in reversed(range(n)):
        reached = _orbit(i, lambda q: (p[q] for p in gens))
        for j in cands[i]:
            s = []
            if j > i and j not in reached and extend(s, list(range(i)) + [j]):
                gens.append(s)
                reached = _orbit(i, lambda q: (p[q] for p in gens))
        order *= len(reached)
    # extend holds itself through its closure: drop it, so that the
    # tables it closes over go now rather than at a cyclic collection
    del extend
    if steps > AUT_STEP_CAP:
        return [], [], 1
    maps = []
    for s in gens:
        both = s + [n + q for q in s]
        maps.append([_xor(lab[both[j]] for j in range(2 * n) if e >> j & 1)
                     for e in g.pure_errors])
    return gens, maps, order


def label_orbit(maps: list[list[int]], u: int) -> set[int]:
    """Orbit of label u under the group that the label maps generate."""
    return _orbit(u, lambda a: (map_label(m, a) for m in maps))


def map_label(images: list[int], u: int) -> int:
    """Image of label u under the linear map with unit images images."""
    return _xor(image for b, image in enumerate(images) if u >> b & 1)


def _xor(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


def _orbit(x, images) -> set:
    """Closure of {x} under images(y), the images of y under each
    generator."""
    seen, todo = {x}, [x]
    while todo:
        for z in images(todo.pop()):
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen
