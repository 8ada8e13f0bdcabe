"""Every public entry point that takes a cap keeps to it.

A cap counts 8-byte words of live memory.  Each call below either
returns with a traced peak of at most 8 bytes a word of its cap plus a
fixed 1 MiB, or raises StrategyInfeasible (CapExceeded included) within
that peak.  The inputs are seeded; every entry point runs at the same
caps, a factor of two apart from 2^16 on, refusing at the smallest and
answering at the largest.
"""
from __future__ import annotations

import numpy as np
import pytest

from unionstab import circuits, classical, gf2, stab, unioncode, z4
from unionstab.errors import StrategyInfeasible
from unionstab.pauli import pauli_parse

from conftest import CANONICAL_LABELS

CAPS = tuple(1 << e for e in (10, 14, 16, 17, 18, 19, 20, 21, 22))
SLACK = 1 << 20


def _ring(n):
    return stab.stabilizer_from_generators([pauli_parse(
        "".join("X" if u == v else ("Z" if (u - v) % n in (1, n - 1) else "I")
                for u in range(n))) for v in range(n)])


def _union(base, rng, count):
    n = base.n
    ts = {"".join(rng.choice(list("IXYZ"), n)) for _ in range(count)}
    return unioncode.union_code(base, [pauli_parse(t) for t in sorted(ts)])


def _search(base, d, cap, budget=20):
    g = unioncode.build_search_graph(base, d, cap=cap)
    clique = unioncode.max_clique(g, budget=budget)
    return g.reps([int(v, 2) for v in clique.vertices])


def _cases():
    rng = np.random.default_rng(20261020)
    bits = lambda rows, cols: rng.integers(0, 2, (rows, cols), np.uint8)
    basis = rng.integers(0, 1 << 63, (3, 17), np.uint64)
    m40, m100, g100 = bits(18, 40), bits(18, 100), bits(15, 100)
    lin = classical.linear_code(bits(15, 64))
    coset = classical._make_coset_code(
        classical.linear_code(bits(12, 32)),
        np.vstack([np.zeros((1, 32), np.uint8), bits(7, 32)]))
    pairs = classical._make_coset_code(
        classical.linear_code(bits(7, 24)),
        np.vstack([np.zeros((1, 24), np.uint8), bits(7, 24)]))
    dual = classical._as_coset(classical.linear_code(bits(46, 64)))
    goethals = classical.goethals_binary(6)
    rm26, rm36 = classical.reed_muller(2, 6), classical.reed_muller(3, 6)
    ring11, ring13 = _ring(11), _ring(13)
    ring16, ring18 = _ring(16), _ring(18)
    u16, u18 = _union(ring16, rng, 6), _union(ring18, rng, 6)
    rows16 = bits(16, 20)  # against all 2^16 syndromes of 16 bits
    syn16 = gf2.unpack_rows(np.arange(1 << 16, dtype=np.uint64)[:, None], 16)
    ctx = z4.gr4_build(5)
    gd = z4.z4_dual(z4.goethals_z4(ctx))
    for c in (coset.base, pairs.base, dual.base, goethals.base):
        c.parity_check  # cached, as every call's input is built already
    return {
        "xor_span": lambda cap: gf2.xor_span(basis, cap),
        "xor_span_chunks": lambda cap: sum(
            1 for _ in gf2.xor_span_chunks(basis, 14, cap)),
        "span_words": lambda cap: gf2.span_words(m40, cap),
        "span_weights": lambda cap: gf2.span_weights(m100, cap),
        "character_weights": lambda cap: gf2.character_weights(
            rows16, syn16, gf2.span_weights, cap),
        "word_matrix": lambda cap: gf2.word_matrix(g100, cap),
        "LinearCode.words": lambda cap: lin.words(cap),
        "CosetCode.words": lambda cap: sum(1 for _ in coset.words(cap)),
        "Z4Code.words": lambda cap: gd.words(cap),
        "min_distance linear": lambda cap: classical.min_distance(
            lin, "brute", cap),
        "min_distance pairs": lambda cap: classical.min_distance(
            pairs, "brute", cap),
        "min_distance enumerator": lambda cap: classical.min_distance(
            dual, "enumerator", cap),
        "distance_enumerator rank": lambda cap:
            classical.distance_enumerator(goethals, cap),
        "distance_enumerator span": lambda cap:
            classical.distance_enumerator(dual, cap),
        "purity_and_distance": lambda cap: stab.purity_and_distance(
            ring18, cap),
        "enlargement_weight_check": lambda cap:
            stab.enlargement_weight_check(rm26, rm36, cap=cap),
        "coset_distance": lambda cap: unioncode.coset_distance(
            u16, 1, 2, cap),
        "union_distance_bound": lambda cap: unioncode.union_distance_bound(
            u18, cap),
        "true_distance": lambda cap: unioncode.true_distance(u18, cap),
        "build_search_graph, max_clique, reps": lambda cap: _search(
            ring11, 3, cap),
        # 7,606 vertices a hundred levels deep
        "max_clique ring-13 budget 100": lambda cap: _search(
            ring13, 3, cap, 100),
        "lee_swe": lambda cap: z4.lee_swe(gd, cap),
        "synth_qc": lambda cap: circuits.synth_qc(
            CANONICAL_LABELS, max_gates=10, cap=cap),
        "synth_qc_any_order": lambda cap: circuits.synth_qc_any_order(
            CANONICAL_LABELS, max_gates=9, cap=cap),
    }


CASES = _cases()


@pytest.mark.parametrize("name", list(CASES))
def test_calls_keep_to_their_cap(name, traced_peak):
    outcomes = []
    for cap in CAPS:
        out, peak = traced_peak(CASES[name], cap)
        refused = isinstance(out, StrategyInfeasible)
        assert refused or not isinstance(out, Exception), (cap, out)
        assert peak <= 8 * cap + SLACK, (cap, peak, out)
        outcomes.append(refused)
    assert outcomes[0] and not outcomes[-1], outcomes


def test_clique_search_stack_keeps_to_the_cap(traced_peak):
    """With every one of 2^9 labels adjacent, the first 250 levels of the
    search hold about 97,000 branch vertices, several MB, where the
    bitsets take about 1 MB.  At a cap of 2 MiB, which fits the bitsets,
    the search refuses once its stack would not fit, within the cap."""
    leaders = np.full(1 << 9, 2, np.uint8)
    leaders[0] = 0
    g = unioncode.SearchGraph(leaders=leaders, target_d=2, base=None,
                              cap=1 << 18)
    out, peak = traced_peak(unioncode.max_clique, g, budget=250)
    assert peak <= 8 * (1 << 18) + SLACK, peak
    assert isinstance(out, StrategyInfeasible), out
    assert str(out) == f"the clique search stack exceeds cap {1 << 18}"


def test_clique_stack_charges_one_colour_int_a_class(traced_peak):
    """The vertices of a colour class share their colour's int, so past
    key 256 the stack is charged one int a class, not one a vertex.  On
    ring-12 at d = 2, budget 100, the search charges 27.7 MiB and traces
    19.8 MiB, where an int a vertex charged 33.6 MiB: at a cap of 30 MiB
    it runs."""
    cap = 30 << 17
    out, peak = traced_peak(_search, _ring(12), 2, cap, 100)
    assert not isinstance(out, Exception), out
    assert peak <= 8 * cap + SLACK, peak
