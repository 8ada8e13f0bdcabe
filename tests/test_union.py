from __future__ import annotations

import numpy as np
import pytest

from unionstab import classical, pauli, stab, unioncode
from unionstab.errors import BadParams, DuplicateCoset, NotPureEnough

from conftest import FIVE_QUBIT_TRANSLATIONS


def test_five_union_parameters(five_union):
    assert five_union.params.n == 5
    assert five_union.params.log2_dim == pytest.approx(np.log2(6))
    assert len(five_union.translations) == 6
    assert str(five_union.translations[0]) == "IIIII"


def test_translation_syndromes_distinct(five_base, five_union):
    syn = {unioncode._translation_syndrome(five_base, t)
           for t in five_union.translations}
    assert len(syn) == 6


def test_duplicate_coset_rejected(five_base):
    ts = [pauli.pauli_parse(s) for s in ["IIIII", "IIZZX", "ZZXII"]]
    # shift the second rep by a stabilizer element: same coset
    shifted = pauli.pauli_mul(ts[1], five_base.stab[0])
    with pytest.raises(DuplicateCoset):
        unioncode.union_code(five_base, [ts[0], ts[1],
                                         pauli.pauli_from_parts(
                                             shifted.x, shifted.z)])


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
    # identity vertex present with the all-zero syndrome label
    assert g.labels[0] == "0" * 5


def test_search_graph_not_pure_enough(graph_state_code):
    with pytest.raises(NotPureEnough):
        unioncode.build_search_graph(graph_state_code, 4)


def test_max_clique_exact(graph_state_code):
    g2 = unioncode.build_search_graph(graph_state_code, 2)
    r2 = unioncode.max_clique(g2, mode="exact")
    assert r2.size == 6 and r2.optimal
    g3 = unioncode.build_search_graph(graph_state_code, 3)
    r3 = unioncode.max_clique(g3, mode="exact")
    assert r3.size == 2 and r3.optimal


def test_max_clique_search_pinned(graph_state_code):
    # the branch-and-bound visits the same nodes and returns the same
    # clique as the numpy-adjacency colouring bound it replaced
    ring = unioncode.max_clique(
        unioncode.build_search_graph(graph_state_code, 2))
    assert ring.vertices == ["00000", "00011", "01111", "10101", "11000",
                             "11110"]
    assert ring.stats["nodes"] == 6
    # a random 7-qubit graph state, edges drawn with probability 1/2
    gens = ["XIZIZZI", "IXZIIZI", "ZZXZZZI", "IIZXIIZ", "ZIZIXII",
            "ZZZIIXI", "IIIZIIX"]
    code = stab.stabilizer_from_generators([pauli.pauli_parse(g)
                                            for g in gens])
    r = unioncode.max_clique(unioncode.build_search_graph(code, 2))
    assert r.vertices == [
        "0000000", "0000111", "0001011", "0010011", "0011000", "0011111",
        "0100011", "0100101", "0100110", "0111011", "0111101", "0111110",
        "1000001", "1000110", "1001010", "1010010", "1011001", "1011110",
        "1100010", "1100100", "1100111", "1111010", "1111100", "1111111"]
    assert r.stats["nodes"] == 6436 and r.optimal


def test_max_clique_greedy_and_budget(graph_state_code):
    g = unioncode.build_search_graph(graph_state_code, 2)
    r = unioncode.max_clique(g, mode="greedy", seed=7)
    assert 2 <= r.size <= 6 and not r.optimal
    tiny = unioncode.max_clique(g, mode="exact", budget=3)
    assert tiny.size >= 2 and not tiny.optimal


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
    reps = stab._coset_rep_rows(rm34.generator, rm24.generator)
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
