from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from unionstab import (circuits, classical, clique, gf2, pauli, stab,
                       symmetry, unioncode)
from unionstab.errors import (
    BadParams,
    ConstructionMismatch,
    DuplicateCoset,
    NotPureEnough,
    StrategyInfeasible,
)

from conftest import FIVE_QUBIT_TRANSLATIONS


def test_five_union_parameters(five_union):
    assert five_union.params.n == 5
    assert five_union.params.log2_dim == pytest.approx(np.log2(6))
    assert len(five_union.translations) == 6
    assert str(five_union.translations[0]) == "IIIII"


def _syndromes(base, ts) -> list[bytes]:
    """Symplectic products of each translation with the stabilizer rows,
    one product over all of them, as bytes."""
    rows = stab._xz_rows(base.n, ts)
    return [s.tobytes()
            for s in stab._ip_rows(rows, base.stab_binary(), base.n)]


def test_translation_syndromes_distinct(five_base, five_union):
    assert len(set(_syndromes(five_base, five_union.translations))) == 6


def test_duplicate_coset_rejected(five_base):
    ts = [pauli.pauli_parse(s) for s in ["IIIII", "IIZZX", "ZZXII"]]
    # shift the second rep by a stabilizer element: same coset
    shifted = pauli.pauli_mul(ts[1], five_base.stab[0])
    with pytest.raises(DuplicateCoset):
        unioncode.union_code(five_base, [ts[0], ts[1],
                                         pauli.pauli_from_parts(
                                             shifted.x, shifted.z)])


def _oracle_first_repeat(base, ts):
    """(earlier, later) for the first translation whose character was
    seen before, one translation and one stabilizer row at a time; None
    when all are distinct."""
    seen = {}
    for i, t in enumerate(ts):
        key = "".join(str(int((t.x & s.z).sum() + (t.z & s.x).sum()) % 2)
                      for s in base.stab)
        if key in seen:
            return seen[key], i
        seen[key] = i
    return None


def test_duplicate_coset_names_first_repeat(five_base):
    """Random translation lists over the 16 cosets of the perfect code,
    with and without repeats: DuplicateCoset names the same pair as the
    loop oracle, and lists without a repeat are accepted."""
    rng = np.random.default_rng(23)
    outcomes = set()
    for _ in range(40):
        ts = [pauli.pauli_from_parts(*rng.integers(0, 2, (2, 5)))
              for _ in range(int(rng.integers(1, 7)))]
        want = _oracle_first_repeat(five_base, ts)
        outcomes.add(want is None)
        if want is None:
            assert len(unioncode.union_code(five_base, ts).translations) \
                in (len(ts), len(ts) + 1)
        else:
            with pytest.raises(DuplicateCoset, match=(
                    f"translations {want[0]} and {want[1]} share a coset")):
                unioncode.union_code(five_base, ts)
    assert outcomes == {True, False}


def test_union_code_without_translations_is_the_base(five_base):
    code = unioncode.union_code(five_base, [])
    assert [str(t) for t in code.translations] == ["IIIII"]
    assert code.params.log2_dim == five_base.k


def test_identity_translation_comes_first(five_base):
    ts = [pauli.pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS[::-1]]
    code = unioncode.union_code(five_base, ts)
    assert str(code.translations[0]) == "IIIII"


def test_coset_distances(five_union):
    dists = [unioncode.coset_distance(five_union, i, j)
             for i in range(6) for j in range(i + 1, 6)]
    assert min(dists) == 2
    assert all(d >= 2 for d in dists)


def test_union_distance_bound(five_union):
    params = unioncode.union_distance_bound(five_union)
    assert params.d == 2
    assert params.provenance["d"] == "coset-enumeration-bound"


def test_true_distance(five_union, full_space_union):
    assert unioncode.true_distance(five_union) == 2
    # the union covering all of 2-qubit space has distance 1
    assert unioncode.true_distance(full_space_union) == 1


def test_search_graph_five_qubit(graph_state_code):
    g = unioncode.build_search_graph(graph_state_code, 2)
    assert g.num_vertices == 32
    assert g.num_edges == 256
    # the identity coset, syndrome 0, has leader weight 0
    assert g.leaders[0] == 0


def test_search_graph_not_pure_enough(graph_state_code):
    with pytest.raises(NotPureEnough,
                       match="^base is pure only up to 3, need 4$"):
        unioncode.build_search_graph(graph_state_code, 4)
    with pytest.raises(BadParams):
        unioncode.build_search_graph(graph_state_code, -1)


def test_max_clique_exact(graph_state_code):
    g2 = unioncode.build_search_graph(graph_state_code, 2)
    r2 = unioncode.max_clique(g2, mode="exact")
    assert r2.size == 6 and r2.optimal
    g3 = unioncode.build_search_graph(graph_state_code, 3)
    r3 = unioncode.max_clique(g3, mode="exact")
    assert r3.size == 2 and r3.optimal


def test_max_clique_search_pinned(graph_state_code):
    # the BBMC search, reduced by translations and qubit automorphisms,
    # visits exactly these nodes and returns these cliques
    ring = unioncode.max_clique(
        unioncode.build_search_graph(graph_state_code, 2))
    assert ring.vertices == ["00000", "00011", "01100", "10110", "11011",
                             "11101"]
    assert ring.stats["nodes"] == 7
    # a random 7-qubit graph state, edges drawn with probability 1/2
    gens = ["XIZIZZI", "IXZIIZI", "ZZXZZZI", "IIZXIIZ", "ZIZIXII",
            "ZZZIIXI", "IIIZIIX"]
    code = stab.stabilizer_from_generators([pauli.pauli_parse(g)
                                            for g in gens])
    r = unioncode.max_clique(unioncode.build_search_graph(code, 2))
    assert r.vertices == [
        "0000000", "0000110", "0001011", "0001101", "0010011", "0010101",
        "0011000", "0011110", "0100011", "0100100", "0101000", "0101111",
        "0110000", "0110111", "0111011", "0111100", "1000100", "1001111",
        "1010111", "1011100", "1100010", "1101001", "1110001", "1111010"]
    assert r.stats["nodes"] == 936 and r.optimal
    assert r.stats["symmetry"] == "translation+aut(2)"


def test_max_clique_greedy_and_budget(graph_state_code):
    g = unioncode.build_search_graph(graph_state_code, 2)
    r = unioncode.max_clique(g, mode="greedy", seed=7)
    assert 2 <= r.size <= 6 and not r.optimal
    tiny = unioncode.max_clique(g, mode="exact", budget=3)
    assert tiny.size >= 2 and not tiny.optimal
    for mode in ("exact", "greedy"):
        for budget in (0, -3):
            with pytest.raises(BadParams):
                unioncode.max_clique(g, mode=mode, budget=budget)


def test_union_from_clique(graph_state_code):
    g = unioncode.build_search_graph(graph_state_code, 2)
    r = unioncode.max_clique(g, mode="exact")
    code = unioncode.union_from_clique(g, r)
    assert len(code.translations) == 6
    assert unioncode.union_distance_bound(code).d == 2
    assert unioncode.true_distance(code) == 2


def test_css_like_union():
    rm24 = classical.reed_muller(2, 4)
    rm34 = classical.reed_muller(3, 4)
    # representatives of distinct cosets of RM(2,4) inside RM(3,4)
    reps = gf2.coset_rep_rows(rm34.generator, rm24.generator)
    zero = np.zeros(16, np.uint8)
    t1s = [zero, reps[0], reps[1], reps[0] ^ reps[1]]
    t2s = [zero, reps[2]]
    code = unioncode.css_like_union(rm24, rm24, t1s, t2s)
    assert len(code.translations) == 8
    assert code.params.log2_dim == code.base.k + 3
    with pytest.raises(DuplicateCoset):
        unioncode.css_like_union(rm24, rm24, [zero, rm24.generator[0]], [zero])


def test_product_translations_lazy():
    t1s = [np.array(v, np.uint8) for v in ([0, 0], [1, 0])]
    t2s = [np.array(v, np.uint8) for v in ([0, 0], [0, 1], [1, 1])]
    prod = unioncode.ProductTranslations(t1s, t2s)
    assert len(prod) == 6
    ps = [str(p) for p in prod]
    assert ps[0] == "II"
    assert len(set(ps)) == 6


def test_family_params_symbolic():
    rows = {
        ("goethals", 6): (64, 30, 8),
        ("preparata", 6): (64, 40, 6),
        ("goethals", 8): (256, 210, 8),
        ("preparata", 8): (256, 224, 6),
        ("goethals", 10): (1024, 966, 8),
        ("preparata", 10): (1024, 984, 6),
    }
    for (kind, m), (n, log2k, d) in rows.items():
        p = unioncode.family_params(kind, m)
        assert (p.n, p.log2_dim, p.d) == (n, log2k, d)
    with pytest.raises(BadParams):
        unioncode.family_params("goethals", 5)


def test_family_build_checks_m_as_family_params():
    """family_build rejects m = 4 as family_params does, rather than
    failing later in the CSS base."""
    for kind in ("goethals", "preparata"):
        for m in (4, 5, 7):
            with pytest.raises(BadParams, match="even and at least 6"):
                unioncode.family_build(kind, m)


def test_family_build_small():
    code = unioncode.family_build("goethals", 6)
    assert code.params.n == 64
    assert code.params.log2_dim == 30
    assert code.params.d == 8


def test_format_parse_round_trip(five_union):
    text = unioncode.format_union_code(five_union)
    again = unioncode.parse_union_code(text)
    assert again.params.n == 5
    assert [str(t) for t in again.translations] == \
        [str(t) for t in five_union.translations]
    assert [str(s) for s in again.base.stab] == \
        [str(s) for s in five_union.base.stab]


# ---------------------------------------------------------------------------
# Oracles: the dense row loop, Python leader scan and set colouring that the
# packed-word kernels replaced, kept here as independent references

def _dense_span(m):
    """All XOR combinations of the rows of m, one 0/1 row per message."""
    k = m.shape[0]
    msgs = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return (msgs @ m % 2).astype(np.uint8)


def _oracle_true_distance(code):
    """Least weight of a difference of two words of C* outside the
    closure dual.  For c in t_a + N, the differences c ^ C* are the union
    over b of t_a + t_b + N, N being closed under XOR, so t_a itself
    stands for every word of its translate."""
    n = code.n
    words = _dense_span(code.base.normalizer_binary())
    ts = [np.concatenate([t.x, t.z]) for t in code.translations]
    cstar = np.concatenate([words ^ t for t in ts], axis=0)
    gens = np.concatenate(
        [code.base.normalizer_binary(),
         np.array([np.concatenate([t.x, t.z]) for t in code.translations],
                  dtype=np.uint8)], axis=0)
    closure, _, rank = classical.gf2.rref(gens)
    swapped = np.concatenate([closure[:rank, n:], closure[:rank, :n]], axis=1)
    best = None
    for t in ts:
        diffs = cstar ^ t
        outside = ((diffs @ swapped.T) % 2).any(axis=1)
        w = (diffs[:, :n] | diffs[:, n:]).sum(axis=1)[outside]
        if w.size:
            best = int(w.min()) if best is None else min(best, int(w.min()))
    if best is None:
        raise StrategyInfeasible("difference set lies inside the closure dual")
    return best


def _oracle_distance_bound(code):
    """(bound, purity): the purity is the least weight of a nonzero
    normalizer word, and the bound the least of it and of every pair's
    coset distance, the least weight in N + t_i + t_j over i < j (all
    pairs shifted at once)."""
    n = code.n
    words = _dense_span(code.base.normalizer_binary())
    weights = (words[:, :n] | words[:, n:]).sum(axis=1)
    purity = int(weights[weights > 0].min())
    ts = np.array([np.concatenate([t.x, t.z]) for t in code.translations])
    i, j = np.triu_indices(len(ts), 1)
    shifted = words ^ (ts[i] ^ ts[j])[:, None]
    best = (shifted[..., :n] | shifted[..., n:]).sum(axis=-1).min(initial=n)
    return min(int(best), purity), purity


def _oracle_leader_scan(base):
    """Leader weights and representatives of the stabilizer cosets: over
    all 4^n Paulis, as 0/1 rows, the first of each syndrome in (weight,
    index) order."""
    n, r = base.n, base.n - base.k
    sb = base.stab_binary()
    swapped = np.concatenate([sb[:, n:], sb[:, :n]], axis=1)
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(2 * n)) & 1).astype(np.uint8)
    syn = (bits @ swapped.T % 2).astype(np.int64) @ (1 << np.arange(r)[::-1])
    w = (bits[:, :n] | bits[:, n:]).sum(axis=1)
    order = np.lexsort((idx, w))
    first = order[np.unique(syn[order], return_index=True)[1]]
    leaders = np.full(1 << r, 2 * n + 1, dtype=np.int64)
    reps = np.zeros((1 << r, 2 * n), dtype=np.uint8)
    leaders[syn[first]] = w[first]
    reps[syn[first]] = bits[first]
    return leaders, reps


def _dense_adjacency(leaders, d):
    """The coset graph as a dense matrix: u ~ v iff leaders[u ^ v] >= d."""
    nv = len(leaders)
    adj = np.zeros((nv, nv), dtype=bool)
    for u in range(nv):
        for v in range(u + 1, nv):
            adj[u, v] = adj[v, u] = leaders[u ^ v] >= d
    return adj


def _oracle_coloring(adj_sets, verts):
    colors = {}
    for v in verts:
        used = {colors[u] for u in colors.keys() & adj_sets[v]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return [colors[v] for v in verts]


def _oracle_max_clique(dense):
    """Size of a maximum clique through vertex 0, by set colouring.

    An exhaustive branch-and-bound over candidate lists ordered by
    descending degree, then index; each node recolours its candidates
    with _oracle_coloring and branches from the highest colour down.
    """
    adj = [set(np.flatnonzero(row).tolist()) for row in dense]
    best = [0]

    def expand(clique, cand):
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        if not cand:
            return
        colors = _oracle_coloring(adj, cand)
        order = sorted(range(len(cand)), key=lambda i: colors[i])
        while order:
            i = order.pop()
            if len(clique) + colors[i] <= len(best):
                return
            v = cand[i]
            expand(clique + [v], [cand[j] for j in order if cand[j] in adj[v]])

    expand([0], sorted(adj[0], key=lambda v: (-len(adj[v]), v)))
    return len(best)


def _graph_state(n, seed):
    """Random graph state, edges with probability 1/2."""
    a = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    a = a | a.T
    return stab.stabilizer_from_generators([pauli.pauli_parse(
        "".join("X" if u == v else ("Z" if a[v, u] else "I")
                for u in range(n))) for v in range(n)])


def _ring(n):
    return stab.stabilizer_from_generators([pauli.pauli_parse(
        "".join("X" if u == v else ("Z" if (u - v) % n in (1, n - 1) else "I")
                for u in range(n))) for v in range(n)])


def _true_distance_or_error(fn, code):
    try:
        return fn(code)
    except StrategyInfeasible as e:
        return str(e)


def test_distances_match_oracles(five_union, full_space_union):
    for code in (five_union, full_space_union):
        assert unioncode.true_distance(code) == _oracle_true_distance(code)
        bound = unioncode.union_distance_bound(code)
        assert (bound.d, bound.purity) == _oracle_distance_bound(code)


def test_random_unions_match_oracles(graph_state_code):
    """Random translation sets, so that pair distances vary, over bases
    with k = 0 and k = 1 (the perfect code, Steane's and Shor's)."""
    bases = [graph_state_code, _graph_state(6, 1)] + [
        stab.stabilizer_from_generators([pauli.pauli_parse(g) for g in gens])
        for gens in (["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
                     ["XIIIXXX", "IXIXIXX", "IIXXXIX", "ZIIIZZZ",
                      "IZIZIZZ", "IIZZZIZ"],
                     ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
                      "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"])]
    rng = np.random.default_rng(9)
    for trial in range(15):
        base = bases[trial % len(bases)]
        ts = {}
        for _ in range(int(rng.integers(0, 4 if base.n < 9 else 2))):
            t = pauli.pauli_from_parts(*rng.integers(0, 2, (2, base.n)))
            ts.setdefault(_syndromes(base, [t])[0], t)
        code = unioncode.union_code(base, list(ts.values()))
        n, words = code.n, _dense_span(base.normalizer_binary())
        for i in range(len(code.translations)):
            for j in range(i + 1, len(code.translations)):
                ti, tj = code.translations[i], code.translations[j]
                shifted = words ^ np.concatenate([ti.x ^ tj.x, ti.z ^ tj.z])
                assert unioncode.coset_distance(code, i, j) == \
                    (shifted[:, :n] | shifted[:, n:]).sum(axis=1).min()
        bound = unioncode.union_distance_bound(code)
        assert (bound.d, bound.purity) == _oracle_distance_bound(code)
        assert _true_distance_or_error(unioncode.true_distance, code) == \
            _true_distance_or_error(_oracle_true_distance, code)


def _seeded_unions(count, seed):
    """count seeded union codes over signed random graph states on 3..5
    qubits with 0..2 generators dropped (k = 0..2), and over [[5, 1, 3]]:
    K - 1 random translations, K uniform in 1 .. 2^r, in distinct
    nontrivial cosets, so K = 2^r is the union of every coset."""
    rng = np.random.default_rng(seed)
    five = stab.stabilizer_from_generators([pauli.pauli_parse(g) for g in (
        "XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")])
    for trial in range(count):
        if trial % 8 == 0:
            base = five
        else:
            n = int(rng.integers(3, 6))
            a = np.triu(rng.random((n, n)) < 0.5, 1)
            a = a | a.T
            gens = [("-" if rng.integers(2) else "") + "".join(
                "X" if u == v else ("Z" if a[v, u] else "I")
                for u in range(n)) for v in range(n)]
            base = stab.stabilizer_from_generators([pauli.pauli_parse(g)
                for g in gens[:n - int(rng.integers(0, 3))]])
        n, r = base.n, base.n - base.k
        rows = rng.integers(0, 2, (16 << r, 2 * n), dtype=np.uint8)
        syn = stab._ip_rows(rows, base.stab_binary(), n) @ (1 << np.arange(r))
        labels, first = np.unique(syn, return_index=True)
        first = rng.permutation(first[labels > 0])
        first = first[:int(rng.integers(1, (1 << r) + 1)) - 1]
        yield unioncode.union_code(base, [stab._vec(row, n)
                                          for row in rows[first]])


def test_enumerators_match_oracles_on_seeded_unions():
    """On 1,000 seeded unions, k = 0..2 and K = 1 .. 2^r: the distance,
    bound and purity read off the weight enumerators equal the dense
    oracles'; A_0 = B_0 = 1 and B_w >= A_w at every w, that is
    h(0) = K^2, pairs[0] = K and K pairs[w] >= h(w)."""
    seen = set()
    for code in _seeded_unions(1000, 33):
        K, r = len(code.translations), code.n - code.base.k
        seen.add((code.base.k, K == 1, K == 1 << r))
        K_, h, pairs, _ = unioncode._enumerators(code, gf2.DEFAULT_CAP)
        assert K_ == K and h[0] == K * K and pairs[0] == K
        assert all(K * p >= a for p, a in zip(pairs, h))
        bound = unioncode.union_distance_bound(code)
        assert (bound.d, bound.purity) == _oracle_distance_bound(code)
        d = _true_distance_or_error(_oracle_true_distance, code)
        assert _true_distance_or_error(unioncode.true_distance, code) == d
        if K == 1:  # the base alone: its distance, or its purity at k = 0
            params = stab.purity_and_distance(code.base)
            assert (params.d, params.purity) == \
                (d if code.base.k else bound.purity, bound.purity)
    assert {(k, one, full) for k in range(3) for one, full in
            ((True, False), (False, True))} <= seen


# (n, d, seed) of random graph states pure to distance d; the 7-qubit d = 2
# one is the pinned graph of test_max_clique_search_pinned
ORACLE_GRAPH_STATES = [(6, 2, s) for s in range(1, 6)] + \
    [(7, 3, 2), (7, 3, 5), (7, 2, 1)] + \
    [(8, 3, s) for s in (0, 2, 3, 5)]


@pytest.mark.parametrize("case", ["ring-0", "ring-2", "ring-3"] + [
    f"graph{n}-{d}-{s}" for n, d, s in ORACLE_GRAPH_STATES])
def test_search_path_matches_oracles(case, graph_state_code):
    if case.startswith("ring"):
        base, d = graph_state_code, int(case[-1])
    else:
        n, d, seed = (int(x) for x in case[5:].split("-"))
        base = _graph_state(n, seed)
    g = unioncode.build_search_graph(base, d)
    leaders, reps = _oracle_leader_scan(base)
    assert np.array_equal(g.leaders, np.minimum(leaders, max(d, 3)))
    assert np.array_equal(g.reps(range(len(leaders))), reps)
    adj = _dense_adjacency(leaders, d)
    assert g.num_edges == adj.sum() // 2
    new = unioncode.max_clique(g)
    assert (new.size, new.optimal) == (_oracle_max_clique(adj), True)
    r = base.n - base.k
    assert new.vertices[0] == "0" * r
    assert all(len(v) == r for v in new.vertices)
    idx = [int(v, 2) for v in new.vertices]
    assert len(set(idx)) == new.size
    assert all(adj[u, v] for u in idx for v in idx if u != v)
    code = unioncode.union_from_clique(g, new)
    bound = unioncode.union_distance_bound(code)
    assert (bound.d, bound.purity) == _oracle_distance_bound(code)
    assert _true_distance_or_error(unioncode.true_distance, code) == \
        _true_distance_or_error(_oracle_true_distance, code)


def test_search_graph_matches_leader_scan_oracle(five_base):
    """On ring-5 to ring-10, the [[5, 1, 3]] code and seeded random signed
    bases with k = 0..2, at every d up to the purity: the table is the
    4^n scan's leaders clipped at max(d, 3), and the representatives are
    the scan's at every syndrome.  One past the purity, NotPureEnough
    names it, as purity_and_distance gives it."""
    bases = [_ring(n) for n in range(5, 11)] + [five_base]
    bases += list(_random_signed_bases())
    assert {b.k for b in bases} == {0, 1, 2}
    for base in bases:
        purity = stab.purity_and_distance(base).purity
        leaders, reps = _oracle_leader_scan(base)
        for d in range(purity + 1):
            g = unioncode.build_search_graph(base, d)
            assert g.leaders.dtype == np.uint8
            assert np.array_equal(g.leaders, np.minimum(leaders, max(d, 3)))
        assert np.array_equal(g.reps(range(len(leaders))), reps)
        with pytest.raises(NotPureEnough, match=(
                f"^base is pure only up to {purity}, need {purity + 1}$")):
            unioncode.build_search_graph(base, purity + 1)


def test_ring14_search_graph_at_the_default_cap(traced_peak):
    """The 14-qubit ring graph state, whose 4^14 Paulis exceed the
    default cap, builds its graph from the 862 Paulis of weight below 3:
    15,690 of its 16,384 labels are neighbours of 0 at d = 3, and each
    one-qubit Pauli is its own coset's representative."""
    g, peak = traced_peak(unioncode.build_search_graph, _ring(14), 3)
    assert peak <= 1 << 20
    assert int(np.count_nonzero(g.leaders >= 3)) == 15690
    ones = symmetry.pauli_labels(g.base)[:14]
    assert (g.leaders[ones] == 1).all()
    assert np.array_equal(g.reps(ones.tolist()),
                          np.eye(14, 28, dtype=np.uint8))


def _random_bitset_graph(rng, nv):
    a = np.triu(rng.random((nv, nv)) < rng.uniform(0.2, 0.9), 1)
    a = a | a.T
    adj_sets = [set(np.flatnonzero(row).tolist()) for row in a]
    return a, adj_sets, [sum(1 << u for u in s) for s in adj_sets]


def test_coloring_matches_set_oracle():
    """Class-by-class colouring of a bitset on complement rows equals
    sequential greedy colouring in ascending vertex order; k_min keeps
    the top colours, and an empty cand or a k_min above every colour
    keeps none."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        nv = int(rng.integers(1, 40))
        _, adj_sets, adjbits = _random_bitset_graph(rng, nv)
        full = (1 << nv) - 1
        nonadj = [full ^ row ^ 1 << v for v, row in enumerate(adjbits)]
        verts = sorted(rng.permutation(nv)[:int(rng.integers(0, nv + 1))]
                       .tolist())
        cand = sum(1 << v for v in verts)
        want = dict(zip(verts, _oracle_coloring(adj_sets, verts)))
        got, colors = clique._color_classes(nonadj, cand, 1)
        assert dict(zip(got, colors)) == want and len(got) == len(verts)
        kmin = int(rng.integers(1, 6))
        got, colors = clique._color_classes(nonadj, cand, kmin)
        assert colors == sorted(colors)
        assert [want[v] for v in got] == colors
        assert set(got) == {v for v, c in want.items() if c >= kmin}
        above = max(want.values(), default=0) + 1
        assert clique._color_classes(nonadj, cand, above) == ([], [])
        assert clique._color_classes(nonadj, 0, kmin) == ([], [])


def _brute_max_clique_through_0(adj_sets):
    """Largest clique containing vertex 0, by exhaustive extension in
    ascending index order, cut only when too few candidates are left."""
    best = 1

    def extend(size, cand):
        nonlocal best
        best = max(best, size)
        for i, v in enumerate(cand):
            if size + len(cand) - i <= best:
                return
            extend(size + 1, [u for u in cand[i + 1:] if u in adj_sets[v]])

    extend(1, sorted(adj_sets[0]))
    return best


def _random_cayley_graphs():
    """Seeded random leader tables on GF(2)^r, r = 3..7, weights 1..4
    off the identity and target distance 2..4, so that the connection
    set holds about 3/4, 1/2 or 1/4 of the vertices."""
    rng = np.random.default_rng(13)
    for r in range(3, 8):
        for _ in range(10):
            leaders = rng.integers(1, 5, 1 << r)
            leaders[0] = 0
            yield r, unioncode.SearchGraph(
                leaders=leaders, target_d=int(rng.integers(2, 5)), base=None)


def test_max_clique_random_graphs_match_brute_force():
    """Random connection sets with r <= 6: the exact search matches brute
    force and returns a clique through the identity; greedy extension
    finds no more, and a budget of 1 node is not optimal unless the
    identity has no neighbour."""
    for trial, (r, g) in enumerate(_random_cayley_graphs()):
        if r > 6:
            continue
        adj = _dense_adjacency(g.leaders, g.target_d)
        want = _brute_max_clique_through_0(
            [set(np.flatnonzero(row).tolist()) for row in adj])
        exact = unioncode.max_clique(g)
        assert (exact.size, exact.optimal) == (want, True), trial
        idx = [int(v, 2) for v in exact.vertices]
        assert idx[0] == 0
        assert all(adj[u, v] for u in idx for v in idx if u != v)
        greedy = unioncode.max_clique(g, mode="greedy", seed=trial)
        assert greedy.size <= exact.size
        assert greedy.stats["symmetry"] == "none"
        assert unioncode.max_clique(g, budget=1).optimal == (want == 1)


def _oracle_min_width_order(conn, verts):
    """Minimum-width order by recounting every remaining degree at each
    removal, the lowest label on ties, last removed first."""
    adj = conn[verts[:, None] ^ verts]
    left, removed = list(range(len(verts))), []
    while left:
        v = min(left, key=lambda x: (int(adj[x, left].sum()), x))
        left.remove(v)
        removed.append(v)
    return verts[removed[::-1]]


def test_min_width_order_matches_oracle():
    """The per-label degrees give the recounted order on every random
    connection set, N(0) below and above half the labels."""
    for trial, (r, g) in enumerate(_random_cayley_graphs()):
        conn = g.leaders >= g.target_d
        conn[0] = False
        verts = np.flatnonzero(conn).astype(np.uint8)
        want = _oracle_min_width_order(conn, verts).tolist()
        got = clique._min_width_order(conn, verts)
        assert got.tolist() == want, trial


def test_max_clique_translation_reduction():
    """The translation-reduced exact search matches the set-colouring
    oracle on every random connection set, r = 3..7."""
    for trial, (r, g) in enumerate(_random_cayley_graphs()):
        want = _oracle_max_clique(_dense_adjacency(g.leaders, g.target_d))
        exact = unioncode.max_clique(g)
        assert (exact.size, exact.optimal) == (want, True), trial
        assert exact.stats["symmetry"] == "translation"


def test_ring9_code_pinned():
    """The ((9, 12, 3)) code of the 9-qubit ring graph state."""
    g = unioncode.build_search_graph(_ring(9), 3)
    r = unioncode.max_clique(g)
    assert (r.size, r.optimal, r.stats["nodes"]) == (12, True, 238)
    assert r.stats["symmetry"] == "translation+aut(18)"
    code = unioncode.union_from_clique(g, r)
    assert unioncode.true_distance(code) == 3
    assert unioncode.union_distance_bound(code).d == 3
    assert circuits.kl_verify(circuits.code_basis(code), 3).ok


def _brute_automorphisms(base):
    """Every qubit permutation p (qubit q to p[q]) mapping the stabilizer
    rows into their span, by one reduction of all n! permuted copies."""
    n, sb = base.n, base.stab_binary()
    perms = np.array(list(itertools.permutations(range(n))))
    inverse = np.argsort(perms, axis=1)
    moved = sb[:, np.concatenate([inverse, inverse + n], axis=1)]
    left = gf2.reduce_rows(gf2._independent_rows(sb), moved.transpose(1, 0, 2))
    return {tuple(p) for p in perms[~left.any(axis=(1, 2))].tolist()}


def _generated_group(perms, n):
    """The closure of perms under composition, identity included."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        g = todo.pop()
        for s in perms:
            h = tuple(s[q] for q in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


def _random_signed_bases():
    """Seeded random graph states on 3..7 qubits, edge density 0.2, 0.5 or
    0.8, random generator signs, 0..2 generators dropped (k = 0..2)."""
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        a = np.triu(rng.random((n, n)) < rng.choice([0.2, 0.5, 0.8]), 1)
        a = a | a.T
        gens = [("-" if rng.integers(2) else "") + "".join(
            "X" if u == v else ("Z" if a[v, u] else "I") for u in range(n))
            for v in range(n)]
        yield stab.stabilizer_from_generators([
            pauli.pauli_parse(g) for g in gens[:n - int(rng.integers(0, 3))]])


def test_automorphisms_match_brute_force():
    """On every base with n <= 7 (the oracle graphs', ring-5 to ring-7 and
    seeded random signed bases) the generators found generate exactly the
    group of all n! permutations fixing the stabilizer group, of the
    order reported; each generator's label map keeps the leader table and
    sends every label u to the label of its permuted representative."""
    bases = [_graph_state(n, s) for n, _, s in ORACLE_GRAPH_STATES if n <= 7]
    bases += [_ring(n) for n in (5, 6, 7)] + list(_random_signed_bases())
    orders = []
    for base in bases:
        n, r = base.n, base.n - base.k
        g = unioncode.build_search_graph(base, 1)
        perms, maps, order = symmetry.qubit_automorphisms(g)
        group = _generated_group(perms, n)
        assert group == _brute_automorphisms(base)
        assert order == len(group)
        orders.append(order)
        sb = base.stab_binary()
        swapped = np.concatenate([sb[:, n:], sb[:, :n]], axis=1)
        assert len(maps) == len(perms)
        reps = g.reps(range(1 << r))
        for s, images in zip(perms, maps):
            moved = np.zeros_like(reps)
            moved[:, s + [n + q for q in s]] = reps
            want = (moved @ swapped.T % 2) @ (1 << np.arange(r)[::-1])
            got = [symmetry.map_label(images, u) for u in range(1 << r)]
            assert got == want.tolist()
            assert np.array_equal(g.leaders[got], g.leaders)
    # the rings' dihedral groups, and some nontrivial random ones
    assert orders[-13:-10] == [10, 12, 14]
    assert sum(o > 1 for o in orders[-10:]) >= 3


def test_orbit_reduction_never_adds_nodes(monkeypatch):
    """On the 15 oracle graphs and ring-5 to ring-9, the search modulo
    the qubit automorphisms returns the translation-only clique, as
    optimal, in no more nodes."""
    graphs = [(_ring(5), d) for d in (0, 2, 3)]
    graphs += [(_graph_state(n, s), d) for n, d, s in ORACLE_GRAPH_STATES]
    graphs += [(_ring(n), d) for n in (6, 7) for d in (2, 3)]
    graphs += [(_ring(n), 3) for n in (8, 9)]
    results = []
    for base, d in graphs:
        g = unioncode.build_search_graph(base, d)
        results.append((g, unioncode.max_clique(g)))
    monkeypatch.setattr(symmetry, "qubit_automorphisms", lambda g: ([], [], 1))
    for g, orbit in results:
        plain = unioncode.max_clique(g)
        assert plain.stats["symmetry"] == "translation"
        assert (orbit.vertices, orbit.optimal) == (plain.vertices, True)
        assert orbit.stats["nodes"] <= plain.stats["nodes"]


# (base, d, nodes, vertices) of the exact search on the graphs of
# test_orbit_reduction_never_adds_nodes before the search pruned v ^ u in
# the branch of u: the pruned search finds the same optimal cliques in no
# more nodes
PARENT_SEARCHES = [
    ("ring5", 0, 32, list(range(32))),
    ("ring5", 2, 7, [0, 3, 12, 22, 27, 29]),
    ("ring5", 3, 2, [0, 31]),
    ("graph6-1", 2, 17, [0, 7, 9, 14, 17, 22, 24, 31, 35, 36, 42, 45, 50, 53,
                         59, 60]),
    ("graph6-2", 2, 16, [0, 6, 10, 12, 17, 23, 27, 29, 33, 39, 43, 45, 48,
                         54, 58, 60]),
    ("graph6-3", 2, 19, [0, 3, 12, 15, 21, 22, 25, 26, 33, 34, 45, 46, 52,
                         55, 56, 59]),
    ("graph6-4", 2, 16, [0, 6, 11, 13, 18, 21, 24, 31, 33, 39, 42, 44, 51,
                         52, 57, 62]),
    ("graph6-5", 2, 26, [0, 5, 11, 14, 17, 20, 26, 31, 35, 38, 40, 45, 50,
                         55, 57, 60]),
    ("graph7-2", 3, 2, [0, 11]),
    ("graph7-5", 3, 2, [0, 19]),
    ("graph7-1", 2, 1353, [0, 6, 11, 13, 19, 21, 24, 30, 35, 36, 40, 47, 48,
                           55, 59, 60, 68, 79, 87, 92, 98, 105, 113, 122]),
    ("graph8-0", 3, 15, [0, 54, 203, 253]),
    ("graph8-2", 3, 23, [0, 31, 101, 122]),
    ("graph8-3", 3, 43, [0, 31, 67, 92]),
    ("graph8-5", 3, 28, [0, 14, 39, 41, 69, 75, 98, 108]),
    ("ring6", 2, 16, [0, 3, 12, 15, 21, 22, 25, 26, 37, 38, 41, 42, 48, 51,
                      60, 63]),
    ("ring6", 3, 1, [0]),
    ("ring7", 2, 3114, [0, 12, 15, 17, 23, 30, 35, 37, 42, 50, 59, 61, 69, 70,
                        73, 74, 88, 91, 108, 111, 116, 119]),
    ("ring7", 3, 2, [0, 31]),
    ("ring8", 3, 16, [0, 53, 83, 102, 153, 172, 202, 255]),
    ("ring9", 3, 264, [0, 49, 86, 146, 163, 196, 297, 332, 367, 443, 478,
                       509]),
]


def test_depth_one_translation_pruning_keeps_cliques():
    """Clearing v ^ u once v's sub-branch in u's branch finishes keeps
    every clique, as optimal, and never adds a node: 1,353 -> 936 on
    graph7-1, 3,114 -> 2,071 on ring-7 at d = 2, 264 -> 238 on ring-9."""
    fewer = 0
    for name, d, nodes, vertices in PARENT_SEARCHES:
        if name.startswith("ring"):
            base = _ring(int(name[4:]))
        else:
            base = _graph_state(*(int(x) for x in name[5:].split("-")))
        r = unioncode.max_clique(unioncode.build_search_graph(base, d))
        assert ([int(v, 2) for v in r.vertices], r.size, r.optimal) == \
            (vertices, len(vertices), True), name
        assert r.stats["nodes"] <= nodes, name
        fewer += r.stats["nodes"] < nodes
    assert fewer >= 5


def test_automorphism_step_cap_falls_back_to_translations(monkeypatch):
    """Past AUT_STEP_CAP backtracking steps the group is left trivial,
    and the exact search returns the same clique, as optimal, reduced by
    translations only."""
    graphs = [unioncode.build_search_graph(_ring(n), 2) for n in (5, 6, 7)]
    full = [unioncode.max_clique(g) for g in graphs]
    monkeypatch.setattr(symmetry, "AUT_STEP_CAP", 2)
    for g, want in zip(graphs, full):
        assert symmetry.qubit_automorphisms(g) == ([], [], 1)
        got = unioncode.max_clique(g)
        assert want.stats["symmetry"] != "translation"
        assert got.stats["symmetry"] == "translation"
        assert (got.vertices, got.optimal) == (want.vertices, True)


def test_leader_scan_and_true_distance_caps():
    """Each cap counts what is allocated, and raises before allocating
    it: the 1 + 30 + 405 Paulis of weight below 3, 20 bytes each while
    they grow, and the 2^10-byte leader table, 1,218 words; and the 2^10
    stabilizer elements, 17 bytes each for the weights, the
    Walsh-Hadamard transform and its temporaries that true_distance's
    enumerators hold, 2,176 words."""
    base = _ring(10)
    code = unioncode.union_code(base, [pauli.pauli_parse("ZZIIIIIIII")])
    tracemalloc.start()
    try:
        with pytest.raises(StrategyInfeasible, match=(
                r"enumerating 436 Paulis of weight below 3 into a 2\^10 "
                "leader table exceeds cap 1217")):
            unioncode.build_search_graph(base, 2, cap=1217)
        with pytest.raises(StrategyInfeasible):
            unioncode.true_distance(code, cap=2175)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert unioncode.true_distance(code, cap=2176) == 2
    assert unioncode.build_search_graph(base, 2, cap=1218).num_edges \
        == unioncode.build_search_graph(base, 2).num_edges


def test_true_distance_past_13_qubits(traced_peak):
    """A 14-qubit ring union code: true_distance enumerates the 2^14
    stabilizer elements, well inside the default cap, where the 4^14
    Paulis are not; the distance matches the coset bound."""
    code = unioncode.union_code(_ring(14), [
        pauli.pauli_parse(t) for t in ("ZZIIIIIIIIIIII", "IIIIIIIZZIIIII")])
    d, peak = traced_peak(unioncode.true_distance, code)
    assert d == unioncode.union_distance_bound(code).d == 2
    assert peak < 2 << 20


def test_distances_past_32_qubits():
    """css(RM(4, 6), RM(4, 6)) is [[64, 50, 4]]: its 2^14 stabilizer
    elements fit the cap where its 2^114 normalizer words do not, and
    their Pauli weights span 192 columns.  RM(4, 6) has distance 4 and
    its dual RM(1, 6) has 16, so the normalizer's least nonzero weight,
    the purity, and the least outside the stabilizer are both 4."""
    rm = classical.reed_muller(4, 6)
    base = stab.css(rm, rm)
    assert (base.n, base.k) == (64, 50)
    code = unioncode.union_code(base, [])
    bound = unioncode.union_distance_bound(code)
    assert (bound.d, bound.purity, unioncode.true_distance(code)) == (4, 4, 4)
    with pytest.raises(StrategyInfeasible,
                       match=r"^stabilizer enumeration 2\^14 exceeds cap"):
        unioncode.true_distance(code, cap=(1 << 14) - 1)


def test_search_graph_cap_counts_the_normalizer_span():
    """A ring-7 base with two generators dropped, k = 2: at d = 1 the
    2^9 normalizer span that SearchGraph.reps shifts does not fit a cap
    of 300, and the build refuses it before the 211 Paulis of weight
    below 3; at a cap of 8,704 words, the span and the 16-byte keys of
    one block of 2^12 shifted words, the search runs to its union."""
    base = stab.stabilizer_from_generators(_ring(7).stab[:5])
    assert base.k == 2
    with pytest.raises(StrategyInfeasible, match=(
            r"^the 2\^9 normalizer span of the coset representatives "
            "exceeds cap 300$")):
        unioncode.build_search_graph(base, 1, cap=300)
    g = unioncode.build_search_graph(base, 1, cap=8704)
    code = unioncode.union_from_clique(g, unioncode.max_clique(g))
    assert len(code.translations) == 1 << 5


def test_leader_scan_memory_is_chunked():
    # a 4^10-entry uint64 key array alone would take 8 MiB, and a dense
    # 1024 x 1024 adjacency 1 MiB plus its gather index; measured peaks:
    # 15 KiB for the 436 Paulis of weight below 3 and the 2^10-byte
    # table, 2.9 MiB for the clique search, mostly one 2^20-entry gather
    # chunk
    base = _ring(10)
    tracemalloc.start()
    try:
        g = unioncode.build_search_graph(base, 2)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        result = unioncode.max_clique(g, budget=50)
        clique_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_vertices == 1024
    assert result.stats["nodes"] == 51 and not result.optimal
    assert build_peak < 1 << 15
    assert clique_peak < 4 << 20


def test_clique_reverification_names_missing_edge(monkeypatch):
    """Adjacency rows that claim every edge let greedy extension build a
    set that is not a clique; re-verification against the leader table
    rejects it, naming the pair at distance leaders[01 ^ 10] = 1 < 2."""
    g = unioncode.SearchGraph(leaders=np.array([0, 2, 2, 1]),
                              target_d=2, base=None)
    monkeypatch.setattr(clique, "_adjacency_chunks", lambda conn, verts:
                        [(0, np.ones((len(verts), len(verts)), bool))])
    with pytest.raises(ConstructionMismatch,
                       match="01 and 10 are not adjacent"):
        unioncode.max_clique(g, mode="greedy")
