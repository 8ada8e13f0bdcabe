from __future__ import annotations

import functools
import itertools
import math
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from unionstab import circuits, gf2, pauli, reversible, stab, unioncode
from unionstab.errors import (
    BadParams,
    CapExceeded,
    CollisionAfterReduction,
    ConstructionMismatch,
    NonCliffordGate,
    NotFound,
)

from conftest import (
    CANONICAL_LABELS,
    FIVE_QUBIT_STABILIZER,
    FIVE_QUBIT_TRANSLATIONS,
    SEED3_LABELS,
)


def _dense_conjugate(circ, p):
    """Dense-matrix oracle for Clifford conjugation of a Pauli."""
    dim = 1 << circ.n
    u = np.eye(dim, dtype=np.complex128)
    for col in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[col] = 1.0
        u[:, col] = circuits.simulate(circ, e)
    return u @ pauli.pauli_matrix(p) @ u.conj().T


def test_conjugate_matches_dense_single_gates():
    gates = [("H", 0), ("P", 0), ("X", 1), ("Z", 0), ("CNOT", 0, 1),
             ("CZ", 1, 0)]
    for g in gates:
        circ = circuits.Circuit(n=2, gates=(g,))
        for xb in itertools.product([0, 1], repeat=2):
            for zb in itertools.product([0, 1], repeat=2):
                p = pauli.pauli_from_parts(np.array(xb, np.uint8),
                                           np.array(zb, np.uint8))
                q = circuits.conjugate(circ, p)
                expect = _dense_conjugate(circ, p)
                assert np.allclose(pauli.pauli_matrix(q), expect), (g, p)


def test_conjugate_matches_dense_random_circuits(rng):
    pool = [("H", 0), ("H", 2), ("P", 1), ("X", 0), ("Z", 2),
            ("CNOT", 0, 1), ("CNOT", 2, 0), ("CZ", 1, 2)]
    for _ in range(25):
        gates = tuple(pool[i] for i in rng.integers(0, len(pool), 6))
        circ = circuits.Circuit(n=3, gates=gates)
        x = rng.integers(0, 2, 3).astype(np.uint8)
        z = rng.integers(0, 2, 3).astype(np.uint8)
        p = pauli.pauli_from_parts(x, z)
        q = circuits.conjugate(circ, p)
        assert np.allclose(pauli.pauli_matrix(q), _dense_conjugate(circ, p))


def test_conjugate_rejects_non_clifford():
    circ = circuits.Circuit(n=3, gates=(("CCX", 0, 1, 2),))
    with pytest.raises(NonCliffordGate):
        circuits.conjugate(circ, pauli.pauli_parse("XII"))


def _random_clifford(rng, n, count):
    """count seeded gates drawn from H, P, X, Z, CNOT and CZ on n qubits."""
    gates = []
    for _ in range(count):
        name = ("H", "P", "X", "Z", "CNOT", "CZ")[int(rng.integers(6))]
        qs = rng.choice(n, circuits._GATE_ARITY[name], replace=False)
        gates.append((name, *(int(q) for q in qs)))
    return circuits.Circuit(n=n, gates=tuple(gates))


def _random_pauli(rng, n):
    return pauli.pauli_from_parts(rng.integers(0, 2, n).astype(np.uint8),
                                  rng.integers(0, 2, n).astype(np.uint8),
                                  int(rng.choice([-1, 1])))


def test_batched_conjugation_matches_per_translation_conjugate(five_base):
    """One tableau pass over all translations, and the labels read from
    it, match conjugate() one translation at a time, signs included."""
    rng = np.random.default_rng(14)
    for trial in range(30):
        q1 = _random_clifford(rng, 5, 40)
        ts = [_random_pauli(rng, 5) for _ in range(7)]
        x, z, signs = circuits._conjugate_all(q1, ts)
        for i, t in enumerate(ts):
            one = circuits.conjugate(q1, t)
            assert (np.array_equal(x[i], one.x) and np.array_equal(z[i], one.z)
                    and signs[i] == one.sign), (trial, i)
        if trial < 3:  # the one-row path itself against dense matrices
            assert np.allclose(pauli.pauli_matrix(circuits.conjugate(q1, ts[0])),
                               _dense_conjugate(q1, ts[0]))
        code = unioncode.UnionStabilizerCode(base=five_base, translations=ts,
                                             params=None)
        want = ["".join(str(b) for b in circuits.conjugate(q1, t).x)
                for t in ts]
        if len(set(want)) < len(want):
            with pytest.raises(CollisionAfterReduction):
                circuits.canonicalize_translations(code, q1)
        else:
            assert circuits.canonicalize_translations(code, q1) == want


def test_circuit_validation():
    with pytest.raises(BadParams):
        circuits.Circuit(n=2, gates=(("H", 5),))
    with pytest.raises(BadParams):
        circuits.Circuit(n=2, gates=(("CNOT", 1, 1),))
    with pytest.raises(BadParams):
        circuits.Circuit(n=2, gates=(("FOO", 0),))


def _assert_trivializes(code, circ):
    r = code.n - code.k
    for i, s in enumerate(code.stab):
        img = circuits.conjugate(circ, s)
        assert img.sign == 1
        assert not img.x.any()
        expect_z = np.zeros(code.n, np.uint8)
        expect_z[i] = 1
        assert np.array_equal(img.z, expect_z)
    for a, lz in enumerate(code.logical_z):
        img = circuits.conjugate(circ, lz)
        assert img.sign == 1 and not img.x.any()
        assert img.z[r + a] == 1 and img.z.sum() == 1
    for a, lx in enumerate(code.logical_x):
        img = circuits.conjugate(circ, lx)
        assert img.sign == 1 and not img.z.any()
        assert img.x[r + a] == 1 and img.x.sum() == 1


def test_synth_q1_corpus(five_base, graph_state_code):
    codes = [
        five_base,
        graph_state_code,
        stab.stabilizer_from_generators(
            [pauli.pauli_parse(s) for s in
             ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]]),
        stab.stabilizer_from_generators(
            [pauli.pauli_parse("XX"), pauli.pauli_parse("ZZ")]),
        stab.stabilizer_from_generators([pauli.pauli_parse("YY")]),
    ]
    for code in codes:
        _assert_trivializes(code, circuits.synth_q1(code))


def _raw_code(stabs, lx=(), lz=()):
    """A StabilizerCode built directly, skipping the generator checks."""
    ps = [[pauli.pauli_parse(s) for s in group] for group in (stabs, lx, lz)]
    return stab.StabilizerCode(n=len(stabs[0]), k=len(lx), stab=tuple(ps[0]),
                               logical_x=tuple(ps[1]), logical_z=tuple(ps[2]))


@pytest.mark.parametrize("code, message", [
    (_raw_code(["IX", "IX"]), "tableau row 1 has no support"),
    (_raw_code(["IX", "XZ"]), "stabilizer row 1 not reduced"),
    (_raw_code(["IX"], ["XZ"], ["IX"]), "logical X 0 not reduced"),
    (_raw_code(["IX"], ["XI"], ["IX"]), "logical Z 0 not reduced"),
])
def test_synth_q1_rejects_invalid_tableau(code, message):
    """Dependent, anticommuting or unpaired rows name the failing row."""
    with pytest.raises(ConstructionMismatch, match=message):
        circuits.synth_q1(code)


def test_canonicalize_translations(five_union):
    q1 = circuits.synth_q1(five_union.base)
    labels = circuits.canonicalize_translations(five_union, q1)
    assert labels[0] == "00000"
    assert len(set(labels)) == 6


def test_align_labels(five_union):
    q1 = circuits.synth_q1(five_union.base)
    aligned = circuits.align_labels(five_union, q1, CANONICAL_LABELS)
    assert circuits.canonicalize_translations(five_union, aligned) == \
        CANONICAL_LABELS
    # the label layer keeps the stabilizer inside the +1 Z-string group
    imgs = [circuits.conjugate(aligned, s) for s in five_union.base.stab]
    zrows = np.array([img.z for img in imgs], np.uint8)
    for img in imgs:
        assert img.sign == 1 and not img.x.any()
    assert gf2.rank(zrows) == 5


def test_align_labels_recombined_generators():
    # any generating set of the ((5, 6, 2)) stabilizer must align; a zero
    # pivot must be fixed from below the diagonal, not from a cleared row
    gens = [pauli.pauli_parse(s) for s in FIVE_QUBIT_STABILIZER]
    ts = [pauli.pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, (5, 5))
        while gf2.rank(m.astype(np.uint8)) < 5:
            m = rng.integers(0, 2, (5, 5))
        new = [functools.reduce(pauli.pauli_mul,
                                [g for g, b in zip(gens, row) if b])
               for row in m]
        code = unioncode.union_code(stab.stabilizer_from_generators(new), ts)
        q1 = circuits.synth_q1(code.base)
        aligned = circuits.align_labels(code, q1, CANONICAL_LABELS)
        assert circuits.canonicalize_translations(code, aligned) == \
            CANONICAL_LABELS, seed


def test_synth_qc_small_oracles():
    # identity map needs zero gates
    assert len(circuits.synth_qc(["00", "01"])) == 0
    # {000, 110} -> {000, 001}: three gates are necessary and sufficient
    circ = circuits.synth_qc(["000", "110"], max_gates=4)
    assert len(circ) == 3
    _truth_check(circ, ["000", "110"])
    # single X
    circ = circuits.synth_qc(["1", "0"], gate_set=("X",), max_gates=2)
    assert len(circ) == 1


def _truth_check(circ, inputs):
    w = circ.n
    for i, s in enumerate(inputs):
        bits = [int(c) for c in s]
        # apply classical reversible gates
        for g in circ.gates:
            if g[0] == "X":
                bits[g[1]] ^= 1
            elif g[0] == "CNOT":
                bits[g[2]] ^= bits[g[1]]
            else:
                bits[g[3]] ^= bits[g[1]] & bits[g[2]]
        assert int("".join(map(str, bits)), 2) == i, (s, i)


def test_synth_qc_matches_truth_table(rng):
    for _ in range(5):
        words = rng.permutation(8)[:4]
        inputs = [format(int(v), "03b") for v in words]
        if "000" in inputs:
            inputs.remove("000")
            inputs.insert(0, "000")
        try:
            circ = circuits.synth_qc(inputs, max_gates=6)
        except NotFound:
            continue
        _truth_check(circ, inputs)


def test_synth_qc_cap_bounds_allocation(monkeypatch):
    # these inputs need 10 gates, and at max_gates=10 the levels outgrow
    # the cap; at 6 the plane bound answers NotFound before they do
    for synth in (circuits.synth_qc, circuits.synth_qc_any_order):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="exceeds cap 10000"):
                synth(SEED3_LABELS, max_gates=10, cap=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # these inputs expand levels of at most 9 states by 12 gates, then
    # prune a meet of 12 states to the shortest paths: the cap must stop
    # that step before its 12 x 12 images are built; with the levels
    # held, it is charged 396 words
    built = []
    gate_images = reversible._gate_images

    def spy(gates, w, K, dtype):
        images = gate_images(gates, w, K, dtype)
        return lambda a: (built.append(a.size * len(gates)), images(a))[1]
    monkeypatch.setattr(reversible, "_gate_images", spy)
    inputs = ["110", "011", "101"]
    circuits.synth_qc_any_order(inputs, cap=396)
    assert max(built) == 144
    built.clear()
    with pytest.raises(CapExceeded,
                       match="expanding 12 states by 12 gates exceeds cap 395"):
        circuits.synth_qc_any_order(inputs, cap=395)
    assert built and max(built) <= 108
    # counting order under a loose max_gates: the largest expansion is
    # 4,557 states by 55 gates, charged 669,329 words, but keying the
    # 51,625-state level beside the 22,315-state one is charged 836,471:
    # 4 * 5 words per state and the levels held; the refusal comes before
    # that table, 4 bytes a key, is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="keying 22315 and 51625 states "
                           "on 5 planes exceeds cap 700000"):
            circuits.synth_qc(CANONICAL_LABELS, max_gates=10, cap=700_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 * 5 * 51625
    # at the optimum the plane bound keeps that level from being built
    circ = circuits.synth_qc(CANONICAL_LABELS, max_gates=8, cap=300_000)
    assert circ == circuits.synth_qc(CANONICAL_LABELS, max_gates=10)
    assert len(circ) == 8
    # one CNOT apart: keying both roots is charged 21 words, but the
    # plane the roots share has 11 gates to apply to the forward root,
    # charged 33
    with pytest.raises(CapExceeded, match="joining through 11 candidate "
                       "images exceeds cap 32"):
        circuits.synth_qc(["00000", "00011"], cap=32)


@pytest.mark.parametrize("any_order, max_gates", [(False, 8), (True, 7)])
def test_synthesis_peak_memory(traced_peak, any_order, max_gates):
    """The ((5, 6, 2)) searches of the encoder benchmark peak at no more
    than 1 MiB: the join keys two levels instead of expanding one, and a
    bounded level is expanded one target plane at a time."""
    synth = circuits.synth_qc_any_order if any_order else circuits.synth_qc
    got, peak = traced_peak(synth, CANONICAL_LABELS, max_gates=max_gates)
    assert len(got[0] if any_order else got) == max_gates
    assert peak <= 1 << 20


def test_bounded_expansion_cap_counts_each_target_block(monkeypatch):
    """Counting order at max_gates=8 expands the 4,557-state level one
    target plane at a time, so the cap counts a block of 11 x 4,557
    images, with the images kept before it and the levels held (133,701
    words for the first block, 151,543 for the last), not 55 x 4,557
    (669,329 words at max_gates=10): 151,543 suffices, and 133,700 is
    refused, naming the block, before that block is built."""
    built = []
    gate_images = reversible._gate_images

    def spy(gates, *args):
        images = gate_images(gates, *args)
        return lambda a: (built.append(a.size * len(gates)), images(a))[1]
    monkeypatch.setattr(reversible, "_gate_images", spy)
    circ = circuits.synth_qc(CANONICAL_LABELS, max_gates=8, cap=151_543)
    assert circ == circuits.synth_qc(CANONICAL_LABELS, max_gates=10)
    assert len(circ) == 8 and 11 * 4557 in built
    built.clear()
    with pytest.raises(CapExceeded, match="expanding 4557 states by the 11 "
                       "gates with target 0 exceeds cap 133700"):
        circuits.synth_qc(CANONICAL_LABELS, max_gates=8, cap=133_700)
    assert built and max(built) <= 50_000
    # in any order most images are kept: their total counts too, so the
    # fifth block of the 926-state level is charged 97,741 words where
    # the first was 29,766
    built.clear()
    with pytest.raises(CapExceeded, match="expanding 926 states by the 11 "
                       "gates with target 4 exceeds cap 90000"):
        circuits.synth_qc_any_order(CANONICAL_LABELS, max_gates=7,
                                    cap=90_000)
    assert built and max(built) <= 30_000


def test_bounded_expansion_slices_each_target_block(traced_peak):
    """Counting order at max_gates=10 on SEED3_LABELS expands a
    709,363-state level by target blocks of 16 gates, 11.3M images each.
    The plane test runs on slices of at most SYNTH_CHUNK images, so the
    search peaks at 77 MiB traced, where whole blocks took 217 MiB, and
    still answers NotFound."""
    got, peak = traced_peak(circuits.synth_qc, SEED3_LABELS, max_gates=10)
    assert isinstance(got, NotFound)
    assert peak <= 96 << 20


def test_sliced_plane_test_keeps_the_same_images(monkeypatch):
    """With SYNTH_CHUNK at 64 words every target block of the ((5, 6, 2))
    searches is tested in many slices, and each bounded level keeps the
    images it keeps with whole blocks, so the circuits are the same."""
    kept = []
    bounded_expander = reversible._bounded_expander

    def spy(*args):
        near = bounded_expander(*args)
        return lambda *a: (kept.append(np.sort(near(*a))), kept[-1])[1]
    monkeypatch.setattr(reversible, "_bounded_expander", spy)
    runs = []
    for chunk in (reversible.SYNTH_CHUNK, 64):
        monkeypatch.setattr(reversible, "SYNTH_CHUNK", chunk)
        kept.clear()
        circs = (circuits.synth_qc(CANONICAL_LABELS, max_gates=8),
                 circuits.synth_qc_any_order(CANONICAL_LABELS, max_gates=7))
        runs.append((circs, list(kept)))
    (whole, levels), (sliced, sliced_levels) = runs
    assert sliced == whole and len(levels) == len(sliced_levels) >= 2
    assert max(level.size for level in levels) > 64
    for a, b in zip(levels, sliced_levels):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("inputs, any_order, side", [
    # one gate: the forward root is joined first and meets the backward root
    (["10", "11"], False, "forward"),
    (["000", "001", "011"], True, "forward"),
    # two gates: the forward level 1 holds several states, so the backward
    # root, the smaller frontier, is joined with it next and meets it
    (["11", "10"], False, "backward"),
    (["000", "001", "100"], False, "backward"),
])
def test_search_meets_on_either_expansion(monkeypatch, inputs, any_order,
                                          side):
    """The meet is the join of the named side's newest level, that level
    is never expanded as a whole, and the result is the lex-min oracle's,
    whichever side met."""
    calls = []  # ("images", gate count, states) and ("join", S, meet)
    gate_images, joiner = reversible._gate_images, reversible._joiner

    def images_spy(gates, *args):
        images = gate_images(gates, *args)
        return lambda a: (calls.append(("images", len(gates), a.copy())),
                          images(a))[1]

    def joiner_spy(*args):
        join = joiner(*args)

        def join_spy(S, O):
            meet = join(S, O)
            calls.append(("join", S.copy(), meet.copy()))
            return meet
        return join_spy
    monkeypatch.setattr(reversible, "_gate_images", images_spy)
    monkeypatch.setattr(reversible, "_joiner", joiner_spy)
    synth = circuits.synth_qc_any_order if any_order else circuits.synth_qc
    got = synth(inputs)
    circ, order = got if any_order else (got, None)
    seq, want_order = _lexmin_oracle(inputs, any_order)
    assert circ.gates == seq
    assert order in (None, want_order)
    # every join but the last found nothing; the last one met
    joins = [i for i, c in enumerate(calls) if c[0] == "join"]
    assert len(joins) == len(seq)
    assert all(not calls[i][2].size for i in joins[:-1])
    _, S, meet = calls[joins[-1]]
    assert meet.size
    w, K = len(inputs[0]), len(inputs)
    vals = sorted(int(v, 2) for v in inputs) if any_order else \
        [int(v, 2) for v in inputs]
    root = {"forward": vals, "backward": range(K)}[side]
    assert S.tolist() == [sum(v << (w * i) for i, v in enumerate(root))]
    # before the meet, no image call took that frontier with every gate;
    # the meeting join expanded states of it by one target's gates
    G = len(reversible._bit_gates(w, ("X", "CNOT", "CCX")))
    assert not [c for c in calls[:joins[-1]] if c[0] == "images"
                and c[1] == G and c[2].tolist() == S.tolist()]
    first = joins[-2] + 1 if len(joins) > 1 else 0
    cands = [c[2] for c in calls[first:joins[-1]] if c[1] < G]
    assert cands and all(set(c.tolist()) <= set(S.tolist()) for c in cands)


@pytest.mark.parametrize("any_order, max_gates, expanded", [
    (False, 7, [1, 1, 23, 44, 123, 353]),
    (True, 6, [1, 1, 19, 42, 169]),
])
def test_not_found_builds_no_level_past_the_last_join(
        monkeypatch, any_order, max_gates, expanded):
    """The ((5, 6, 2)) labels need 8 gates in counting order and 7 in any
    order.  One gate short, the search stops at the join that tests
    max_gates gates: with f and b levels past the roots it expands only
    until f + b = max_gates - 1, and builds no level that only a join of
    more than max_gates gates could use.  The plane bound shrinks the
    levels within w gates of max_gates, expanded one target plane at a
    time: an expansion is every image call between two joins, and its
    size the number of distinct states those calls take."""
    calls, joining = [], []  # image calls outside joins; None ends a join
    gate_images, joiner = reversible._gate_images, reversible._joiner

    def images_spy(gates, *args):
        images = gate_images(gates, *args)
        return lambda a: (joining or calls.append(a.copy()), images(a))[1]

    def joiner_spy(*args):
        join = joiner(*args)

        def join_spy(S, O):
            joining.append(True)
            try:
                return join(S, O)
            finally:
                joining.pop()
                calls.append(None)
        return join_spy
    monkeypatch.setattr(reversible, "_gate_images", images_spy)
    monkeypatch.setattr(reversible, "_joiner", joiner_spy)
    synth = circuits.synth_qc_any_order if any_order else circuits.synth_qc
    with pytest.raises(NotFound):
        synth(CANONICAL_LABELS, max_gates=max_gates)
    sizes, group = [], set()
    for a in calls:
        if a is not None:
            group.update(a.tolist())
        elif group:
            sizes.append(len(group))
            group = set()
    assert calls[-1] is None and not group  # the last call was a join
    assert len(sizes) == max_gates - 1
    assert sorted(sizes) == expanded


@pytest.mark.parametrize("any_order, max_gates, joined", [
    # at the optimum the last levels are bounded: the backward side, whose
    # next level is filtered before any sort, is expanded instead of the
    # forward one, and no level of 22,315 or 51,625 states is built
    (False, 8, [(1, 1), (1, 44), (23, 44), (44, 353), (353, 1154),
                (4557, 1154), (2274, 1154), (532, 1154)]),
    (True, 7, [(1, 1), (1, 42), (19, 42), (42, 240), (240, 926),
               (926, 1595), (1595, 8695)]),
    # a loose max_gates bounds no level: the levels of the unbounded search
    (False, 10, [(1, 1), (1, 44), (23, 44), (44, 353), (353, 1154),
                 (1154, 4557), (4557, 22315), (22315, 51625)]),
    (True, 10, [(1, 1), (1, 42), (19, 42), (42, 240), (240, 926),
                (926, 2503), (2503, 13434)]),
])
def test_schedule_expands_the_side_the_bound_shrinks(
        monkeypatch, any_order, max_gates, joined):
    """The sizes of the levels S and O of every join on the ((5, 6, 2))
    labels, S being the newest level of the side the schedule picks."""
    sizes = []
    joiner = reversible._joiner

    def spy(*args):
        join = joiner(*args)
        return lambda S, O: (sizes.append((S.size, O.size)), join(S, O))[1]
    monkeypatch.setattr(reversible, "_joiner", spy)
    synth = circuits.synth_qc_any_order if any_order else circuits.synth_qc
    synth(CANONICAL_LABELS, max_gates=max_gates)
    assert sizes == joined


def _field_images(gates, w, K, state):
    """Per-field reference: each gate applied to each w-bit field of the
    packed state, qubit q being bit w-1-q of a field."""
    fields = [state >> (w * i) & ((1 << w) - 1) for i in range(K)]
    images = []
    for _, *ctrl, t in gates:
        new = [f ^ (1 << (w - 1 - t))
               if all(f >> (w - 1 - c) & 1 for c in ctrl) else f
               for f in fields]
        images.append(sum(f << (w * i) for i, f in enumerate(new)))
    return images


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
@pytest.mark.parametrize("w", range(1, 9))
def test_gate_images_match_per_field_reference(monkeypatch, w, dtype):
    """The one image routine against the per-field reference, for every
    gate on w bits and K fields up to the packing limit, with a scratch
    block small enough that the CCX rows take several chunks."""
    monkeypatch.setattr(reversible, "SYNTH_CHUNK", 300)
    gates = sorted(reversible._bit_gates(w, ("X", "CNOT", "CCX")))
    rng = np.random.default_rng(w)
    limit = np.iinfo(dtype).bits // w
    for K in sorted({1, (limit + 1) // 2, limit}):
        states = [int(v) for v in rng.integers(0, 1 << w, (150, K))
                  @ (np.array([1 << (w * i) for i in range(K)], object))]
        got = reversible._gate_images(gates, w, K, dtype)(
            np.array(states, dtype))
        assert got.dtype == dtype and got.shape == (len(gates), len(states))
        want = np.array([_field_images(gates, w, K, s) for s in states],
                        dtype).T
        np.testing.assert_array_equal(got, want, err_msg=f"w={w} K={K}")


def test_synth_qc_not_found():
    # CNOTs fix the all-zero word, so "01" can never reach index 0
    with pytest.raises(NotFound):
        circuits.synth_qc(["01", "00"], gate_set=("CNOT",), max_gates=4)


@pytest.mark.parametrize("gate_set, match", [
    (("H",), r"unknown gate names \['H'\]"),
    (("x", "cnot"), r"unknown gate names \['x', 'cnot'\]"),
    ((), "gate_set holds none of X, CNOT, CCX"),
])
def test_synth_qc_rejects_unknown_gate_names(gate_set, match):
    """An unknown or empty gate set is bad input, not an unreachable goal."""
    for synth in (circuits.synth_qc, circuits.synth_qc_any_order):
        with pytest.raises(BadParams, match=match):
            synth(["01", "00"], gate_set=gate_set)


def test_synth_qc_rejects_negative_max_gates():
    for synth in (circuits.synth_qc, circuits.synth_qc_any_order):
        # even the identity, which needs no gate, is refused
        with pytest.raises(BadParams, match="max_gates must be at least 0"):
            synth(["00", "01"], max_gates=-1)


def test_synth_qc_any_order():
    inputs = ["00", "11", "10"]
    circ, order = circuits.synth_qc_any_order(inputs, max_gates=4)
    assert order[0] == 0  # the all-zero string stays at index 0
    _truth_check(circ, [inputs[o] for o in order])
    # the relaxed search is never worse than the fixed-order one
    assert len(circ) <= len(circuits.synth_qc(inputs, max_gates=4))


def _lexmin_oracle(inputs, any_order, gate_set=("X", "CNOT", "CCX"),
                   limit=None):
    """Plain BFS over K-tuples of ints from the goal set, then a greedy
    walk from the inputs taking the smallest gate of gate_set one step
    closer; None when the inputs cannot reach a goal, or not within
    limit gates."""
    K, w = len(inputs), len(inputs[0])
    start = tuple(int(s, 2) for s in inputs)
    gates = sorted([("X", q) for q in range(w)]
                   + [("CNOT", c, t) for c, t in itertools.permutations(
                       range(w), 2)]
                   + [("CCX", a, b, t) for a, b in itertools.combinations(
                       range(w), 2) for t in range(w) if t not in (a, b)])
    gates = [g for g in gates if g[0] in gate_set]

    def apply(g, state):  # controls g[1:-1], target g[-1]; qubit 0 = MSB
        flip = 1 << (w - 1 - g[-1])
        return tuple(v ^ flip if all(v >> (w - 1 - q) & 1 for q in g[1:-1])
                     else v for v in state)

    goals = [tuple(range(K))]
    if any_order:
        goals = [p for p in itertools.permutations(range(K))
                 if 0 not in start or p[start.index(0)] == 0]
    dist = dict.fromkeys(goals, 0)
    frontier = goals
    while start not in dist:
        if not frontier or dist[frontier[0]] == limit:
            return None
        nxt = []
        for s in frontier:
            for t in (apply(g, s) for g in gates):
                if t not in dist:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    seq, state = [], start
    while dist[state]:
        g = next(g for g in gates
                 if dist.get(apply(g, state)) == dist[state] - 1)
        seq.append(g)
        state = apply(g, state)
    return tuple(seq), tuple(sorted(range(K), key=state.__getitem__))


def test_synth_qc_matches_lexmin_oracle():
    rng = np.random.default_rng(11)
    for _ in range(36):
        w = int(rng.integers(2, 4))
        K = int(rng.integers(1, min(5, 1 << w) + 1))
        inputs = [format(int(v), f"0{w}b")
                  for v in rng.choice(1 << w, K, replace=False)]
        seq, _ = _lexmin_oracle(inputs, any_order=False)
        assert circuits.synth_qc(inputs).gates == seq, inputs
        seq, order = _lexmin_oracle(inputs, any_order=True)
        circ, got = circuits.synth_qc_any_order(inputs)
        assert (circ.gates, got) == (seq, order), inputs
        _truth_check(circ, [inputs[o] for o in order])


def test_synth_qc_any_order_nine_inputs():
    # more inputs than the removed 8-input cap of the old assignment scan
    inputs = ["0000", "1011", "0110", "1111", "0011", "1000", "0101",
              "1110", "0001"]
    circ, order = circuits.synth_qc_any_order(inputs)
    assert order[0] == 0 and sorted(order) == list(range(9))
    _truth_check(circ, [inputs[o] for o in order])


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(7)
    cases = [rng.integers(0, 1000, size=5000, dtype=np.uint64),
             # values at or above 2**63 would reorder under a signed cast
             rng.integers(2**63 - 40, 2**63 + 40, size=2000,
                          dtype=np.uint64),
             rng.integers(2**64 - 60, 2**64 - 1, size=2000,
                          dtype=np.uint64, endpoint=True),
             np.array([2**63, 2**63 - 1, 2**64 - 1, 0, 2**63] * 3,
                      dtype=np.uint64),
             np.array([2**64 - 1], dtype=np.uint64)]
    for a in cases:
        got = reversible._distinct(np.sort(a))
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.unique(a))


def test_sorted_unique_keeps_uint32_across_chunks(monkeypatch):
    rng = np.random.default_rng(8)
    cases = [rng.integers(0, 300, size=4000, dtype=np.uint32),
             np.array([2**32 - 1, 0, 2**31, 2**31 - 1, 0], dtype=np.uint32),
             np.array([7], dtype=np.uint32), np.array([], dtype=np.uint32),
             np.repeat(rng.integers(0, 2**64 - 1, size=50, dtype=np.uint64),
                       3)]
    # runs of equal values straddle the chunk boundaries at every size
    for chunk in (1 << 16, 7, 2, 1):
        monkeypatch.setattr(reversible, "SYNTH_CHUNK", chunk)
        for a in cases:
            got = reversible._distinct(np.sort(a))
            assert got.dtype == a.dtype
            assert np.array_equal(got, np.unique(a)), chunk


def test_members_matches_isin():
    rng = np.random.default_rng(9)
    for dtype in (np.uint32, np.uint64):
        for na, nb in ((0, 0), (0, 5), (5, 0), (1, 1), (1, 40), (40, 1),
                       (300, 20), (20, 300), (200, 200)):
            a = np.unique(rng.integers(0, 400, size=na).astype(dtype))
            b = np.unique(rng.integers(0, 400, size=nb).astype(dtype))
            got = reversible._members(a, b)
            assert got.dtype == bool and got.shape == a.shape
            assert np.array_equal(got, np.isin(a, b)), (na, nb)


def test_shared_matches_intersect1d():
    rng = np.random.default_rng(15)
    for dtype in (np.uint32, np.uint64):
        for na, nb in ((0, 0), (0, 5), (5, 0), (1, 1), (40, 300), (300, 40),
                       (200, 200)):
            a = np.unique(rng.integers(0, 400, size=na).astype(dtype))
            b = np.unique(rng.integers(0, 400, size=nb).astype(dtype))
            got = reversible._shared(a, b)
            assert got.dtype == dtype
            assert np.array_equal(got, np.intersect1d(a, b)), (na, nb)


def test_batcher_pairs_sort_every_binary_input():
    # 0-1 principle: a comparator network sorting all 2^n bit vectors
    # sorts every input
    for n in range(1, 17):
        x = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        for i, j in reversible._batcher_pairs(n):
            assert 0 <= i < j < n
            x[:, [i, j]] = np.sort(x[:, [i, j]], axis=1)
        assert not (np.diff(x, axis=1) < 0).any(), n


def test_canonicaliser_matches_sort_oracle(monkeypatch):
    # a small chunk makes every array below span several chunks
    monkeypatch.setattr(reversible, "SYNTH_CHUNK", 7)
    rng = np.random.default_rng(10)
    widths = [(w, K) for w in range(1, 9) for K in range(1, (1 << w) + 1)
              if K * w <= 64]
    # both word widths at their limits; K*w = 33 and 34 have no factoring
    # with K <= 2^w <= 256, so 35 is the narrowest uint64 case
    assert {32, 35, 64} <= {K * w for w, K in widths}
    for w, K in widths:
        dtype = np.uint32 if K * w <= 32 else np.uint64
        fields = rng.integers(0, 1 << w, size=(50, K), dtype=np.uint64)
        shifts = np.arange(K, dtype=np.uint64) * np.uint64(w)
        words = np.bitwise_or.reduce(fields << shifts, axis=1).astype(dtype)
        for hold in (0, 1, K):
            want = fields.copy()
            want[:, hold:].sort(axis=1)
            want = np.bitwise_or.reduce(want << shifts, axis=1)
            got = reversible._canonicaliser(w, K, hold, dtype)(words.copy())
            assert got.dtype == dtype
            assert np.array_equal(got.astype(np.uint64), want), (w, K, hold)


@pytest.mark.parametrize("w, K, dtype", [(5, 6, np.uint32),
                                         (4, 16, np.uint64)])
def test_canonicaliser_shift_block_holds_a_chunk(traced_peak, w, K, dtype):
    """Sorting K - 1 fields of 2^17 words peaks below two SYNTH_CHUNK
    blocks of words: the chunks are short enough that the (fields, chunk)
    shift temporary holds at most SYNTH_CHUNK words."""
    words = np.random.default_rng(w).integers(
        0, np.iinfo(dtype).max, 1 << 17, dtype, endpoint=True)
    canon = reversible._canonicaliser(w, K, 1, dtype)
    _, peak = traced_peak(canon, words)
    assert peak < 2 * reversible.SYNTH_CHUNK * np.dtype(dtype).itemsize


def _forward_any_order_oracle(inputs, gate_set=("X", "CNOT", "CCX"),
                              limit=None):
    """Breadth-first search from the inputs over K-tuples of ints to the
    first level holding an admissible ordering, then a greedy walk taking
    the smallest gate of gate_set that stays on a shortest path to one;
    None when no level within limit gates holds one."""
    K, w = len(inputs), len(inputs[0])
    start = tuple(int(s, 2) for s in inputs)
    gates = sorted([("X", q) for q in range(w)]
                   + [("CNOT", c, t) for c, t in itertools.permutations(
                       range(w), 2)]
                   + [("CCX", a, b, t) for a, b in itertools.combinations(
                       range(w), 2) for t in range(w) if t not in (a, b)])
    gates = [g for g in gates if g[0] in gate_set]

    def apply(g, state):  # controls g[1:-1], target g[-1]; qubit 0 = MSB
        flip = 1 << (w - 1 - g[-1])
        return tuple(v ^ flip if all(v >> (w - 1 - q) & 1 for q in g[1:-1])
                     else v for v in state)

    def is_goal(s):
        return sorted(s) == list(range(K)) and (
            0 not in start or s[start.index(0)] == 0)

    levels, seen = [{start}], {start}
    while not any(map(is_goal, levels[-1])):
        if not levels[-1] or len(levels) - 1 == limit:
            return None
        nxt = {apply(g, s) for s in levels[-1] for g in gates} - seen
        seen |= nxt
        levels.append(nxt)
    on_path = [set(filter(is_goal, levels[-1]))]
    for level in levels[-2::-1]:
        on_path.insert(0, {s for s in level
                           if any(apply(g, s) in on_path[0] for g in gates)})
    seq, state = [], start
    for nxt in on_path[1:]:
        g = next(g for g in gates if apply(g, state) in nxt)
        seq.append(g)
        state = apply(g, state)
    return tuple(seq), tuple(sorted(range(K), key=state.__getitem__))


def _gates_on_counting_order(w, K, rng, count,
                             gate_set=("X", "CNOT", "CCX")):
    """binary(0..K-1) after count seeded gates of gate_set, as w-bit
    strings."""
    vals = list(range(K))
    gates = reversible._bit_gates(w, gate_set)
    for _ in range(count):
        g = gates[int(rng.integers(len(gates)))]
        flip = 1 << (w - 1 - g[-1])
        vals = [v ^ flip if all(v >> (w - 1 - q) & 1 for q in g[1:-1])
                else v for v in vals]
    return [format(v, f"0{w}b") for v in vals]


def test_forward_any_order_oracle_matches_lexmin_oracle():
    rng = np.random.default_rng(12)
    for _ in range(12):
        w = int(rng.integers(2, 4))
        K = int(rng.integers(1, min(5, 1 << w) + 1))
        inputs = [format(int(v), f"0{w}b")
                  for v in rng.choice(1 << w, K, replace=False)]
        assert _forward_any_order_oracle(inputs) == \
            _lexmin_oracle(inputs, any_order=True), inputs


def test_synth_qc_matches_lexmin_oracle_on_wide_words():
    # K*w > 32 packs each state into a uint64 word, not a uint32 one
    rng = np.random.default_rng(13)
    for w, K in ((4, 9), (5, 7), (4, 16)):
        for _ in range(3):
            inputs = _gates_on_counting_order(w, K, rng, 3)
            seq, _ = _lexmin_oracle(inputs, any_order=False)
            assert circuits.synth_qc(inputs).gates == seq, inputs
            seq, order = _forward_any_order_oracle(inputs)
            circ, got = circuits.synth_qc_any_order(inputs)
            assert (circ.gates, got) == (seq, order), inputs
            _truth_check(circ, [inputs[o] for o in order])


def test_synthesis_edge_cases_match_lexmin_oracle():
    """Gate sets that leave planes without a gate of their own, one input
    or one bit, the zero input held in any order, and uint64 words: the
    search returns the oracle's circuit and order, or both find none."""
    rng = np.random.default_rng(14)
    cases = [
        # no CCX fits on 2 bits and no CNOT on 1: every plane lacks a gate
        (["01", "00"], ("CCX",)), (["00", "01"], ("CCX",)),
        (["1", "0"], ("CNOT",)), (["0", "1"], ("CNOT",)),
        # K = 1 and w = 1
        (["1"], ("X", "CNOT", "CCX")), (["0"], ("CNOT",)),
        (["110"], ("X", "CNOT", "CCX")), (["0110"], ("CNOT", "CCX")),
        (["1", "0"], ("X", "CNOT", "CCX")), (["1", "0"], ("X",)),
        # the zero input held in field 0, wherever it stands
        (["101", "000", "011"], ("X", "CNOT", "CCX")),
        (["110", "011", "000", "100"], ("CNOT",)),
        (["0110", "1011", "0000"], ("CNOT", "CCX")),
        # uint64 words, K * w > 32; CNOT alone keeps the zero input held
        (_gates_on_counting_order(4, 9, rng, 3, ("X", "CNOT")),
         ("X", "CNOT")),
        (["00000", "00001", "00011", "00010", "00100", "00101", "00111"],
         ("CNOT",)),
    ]
    for gate_set in (("X",), ("CNOT",), ("CCX",)):  # one gate kind each
        for _ in range(3):
            w = int(rng.integers(2, 4))
            K = int(rng.integers(1, min(4, 1 << w) + 1))
            cases.append(([format(int(v), f"0{w}b") for v in
                           rng.choice(1 << w, K, replace=False)], gate_set))
    for inputs, gate_set in cases:
        # the any-order oracle starts from every admissible ordering
        for any_order in (False, True)[:1 + (len(inputs) <= 7)]:
            want = _lexmin_oracle(inputs, any_order, gate_set)
            synth = circuits.synth_qc_any_order if any_order else \
                circuits.synth_qc
            if want is None or len(want[0]) > 6:
                with pytest.raises(NotFound):
                    synth(inputs, gate_set=gate_set, max_gates=6)
                continue
            got = synth(inputs, gate_set=gate_set, max_gates=6)
            circ, order = got if any_order else (got, want[1])
            assert (circ.gates, order) == want, (inputs, gate_set, any_order)


GATE_SETS = [s for r in (1, 2, 3)
             for s in itertools.combinations(("X", "CNOT", "CCX"), r)]


def test_plane_bound_keeps_the_lexmin_circuit():
    """At the optimum every level deeper than max_gates - w is filtered
    by the plane bound, and the search still returns the oracle's circuit
    and order; one gate short it raises NotFound.  Seeded inputs of 2 to 4
    bits, 2 to 6 of them, both orders, every gate set."""
    rng = np.random.default_rng(15)
    for gate_set in GATE_SETS:
        for _ in range(5):
            w = int(rng.integers(2, 5))
            K = int(rng.integers(2, min(6, 1 << w) + 1))
            if w < 4:
                inputs = [format(int(v), f"0{w}b") for v in
                          rng.choice(1 << w, K, replace=False)]
            else:  # a few gates from counting order keep the oracle small
                inputs = _gates_on_counting_order(
                    w, K, rng, int(rng.integers(1, 4)), gate_set)
            for any_order in (False, True):
                want = _lexmin_oracle(inputs, any_order, gate_set)
                case = (inputs, gate_set, any_order)
                if want is None:  # bounded levels run out of states
                    short = w
                else:
                    n = len(want[0])
                    got = reversible._search(inputs, gate_set, n, any_order,
                                             gf2.DEFAULT_CAP)
                    assert (tuple(got[0]), got[1]) == want, case
                    short = n - 1
                if short >= 0:
                    with pytest.raises(NotFound):
                        reversible._search(inputs, gate_set, short,
                                           any_order, gf2.DEFAULT_CAP)
    # the ((5, 6, 2)) labels: the bounded search at the optimum and the
    # unbounded one at max_gates=10 return the same circuit and order
    gates = ("X", "CNOT", "CCX")
    for any_order, n in ((False, 8), (True, 7)):
        got = [reversible._search(CANONICAL_LABELS, gates, m, any_order,
                                  gf2.DEFAULT_CAP) for m in (n, 10)]
        assert got[0] == got[1] and len(got[0][0]) == n
        assert got[0][1] == ((0, 4, 1, 5, 2, 3) if any_order
                             else tuple(range(6)))


def _bounded_level_reference(level, slack, root, w, K, hold, gates):
    """All gates' images of level, then the w-plane filter: an image is
    kept when it differs from root in at most slack planes, the bits of
    the held fields 0..hold-1 compared by value, the rest by popcount."""
    dtype = level.dtype.type
    images = reversible._gate_images(gates, w, K, dtype)(level).reshape(-1)
    far = np.zeros(images.size, int)
    for t in range(w):
        plane = sum(1 << (w * i + w - 1 - t) for i in range(K))
        held = dtype(plane & ((1 << (w * hold)) - 1))
        free = dtype(plane) ^ held
        far += ((images & held) != (root & held)) | (
            np.bitwise_count(images & free) != np.bitwise_count(root & free))
    return np.sort(images[far <= slack])


def _oracle_depth(w, K, gates, budget=20_000):
    """The deepest max_gates, at most 10, whose oracle search applies at
    most about budget gates: levels 0..d-1 hold at most the G^i tuples
    reached, and at most the perm(2^w, K) tuples of distinct values."""
    G, tuples = len(gates), math.perm(1 << w, K)
    for d in range(11):
        if G * min(sum(G ** i for i in range(d + 1)), tuples) > budget:
            return d
    return 10


def test_bounded_levels_match_the_all_gates_reference(monkeypatch):
    """Over 1,000 seeded searches (w 1-6, K 1-10 with K*w <= 64, every
    gate set, both orders, max_gates 0-10), every level expanded one
    target plane at a time equals all gates' images filtered on all w
    planes, and the circuit, order or NotFound are the oracle's."""
    expansions = []  # (level, slack, root, images) of bounded levels
    bounded_expander = reversible._bounded_expander

    def spy(*args):
        near = bounded_expander(*args)

        def near_spy(level, slack, root):
            out = near(level, slack, root)
            expansions.append((level.copy(), slack, root.copy(), out.copy()))
            return out
        return near_spy
    monkeypatch.setattr(reversible, "_bounded_expander", spy)
    rng = np.random.default_rng(16)
    seen, cases, levels = set(), 0, 0
    while cases < 1000:
        w = int(rng.choice(range(1, 7), p=[.05, .15, .2, .2, .2, .2]))
        K = int(rng.integers(1, min(10, 1 << w, 64 // w) + 1))
        gate_set = GATE_SETS[int(rng.integers(len(GATE_SETS)))]
        gates = sorted(reversible._bit_gates(w, gate_set))
        any_order = bool(rng.integers(2))
        if w <= 3:
            inputs = [format(int(v), f"0{w}b")
                      for v in rng.choice(1 << w, K, replace=False)]
        else:  # a few gates from counting order, in a seeded order
            inputs = _gates_on_counting_order(
                w, K, rng, int(rng.integers(0, 5)), gate_set)
            inputs = [inputs[i] for i in rng.permutation(K)] \
                if rng.integers(2) else inputs
        depth = _oracle_depth(w, K, gates)
        want = (_forward_any_order_oracle(inputs, gate_set, depth)
                if any_order else
                _lexmin_oracle(inputs, False, gate_set, depth))
        hold = int("0" * w in inputs) if any_order else K
        for m in range(depth + 1):
            expansions.clear()
            case = (inputs, gate_set, any_order, m)
            if want is None or len(want[0]) > m:
                with pytest.raises(NotFound):
                    reversible._search(inputs, gate_set, m, any_order,
                                       gf2.DEFAULT_CAP)
            else:
                got = reversible._search(inputs, gate_set, m, any_order,
                                         gf2.DEFAULT_CAP)
                assert (tuple(got[0]), got[1]) == want, case
            for level, slack, root, out in expansions:
                assert slack < w, case
                assert np.array_equal(np.sort(out), _bounded_level_reference(
                    level, slack, root, w, K, hold, gates)), case
            levels += len(expansions)
            seen.add((w, K, gate_set, any_order, m))
            cases += 1
    for i, values in enumerate((range(1, 7), range(1, 11), GATE_SETS,
                                (False, True), range(11))):
        assert {s[i] for s in seen} == set(values)
    assert levels >= cases // 5


@pytest.fixture(scope="module")
def canonical_any_order():
    return circuits.synth_qc_any_order(CANONICAL_LABELS, max_gates=7)


def test_synth_qc_any_order_canonical_pin(canonical_any_order):
    # the lex-min 7-gate circuit over all orders for the ((5, 6, 2)) labels
    qc, order = canonical_any_order
    assert qc.gates == (("CCX", 0, 1, 2), ("CNOT", 0, 4), ("CCX", 0, 4, 1),
                        ("CCX", 1, 2, 0), ("CNOT", 3, 1), ("CNOT", 2, 3),
                        ("CNOT", 4, 0))
    assert order == (0, 4, 1, 5, 2, 3)
    _truth_check(qc, [CANONICAL_LABELS[o] for o in order])


def test_encoder_synthesis_demo(capsys):
    demos = Path(__file__).resolve().parents[1] / "demos"
    runpy.run_path(str(demos / "encoder_synthesis.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Qc fixed order: 8 gates; best assignment: 7 gates" in out
    assert "order (0, 4, 1, 5, 2, 3)" in out
    assert "ok=True" in out


def test_simulate_identities(rng):
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    for gates in [(("H", 0), ("H", 0)), (("X", 1), ("X", 1)),
                  (("Z", 2), ("Z", 2)), (("P", 0),) * 4,
                  (("CNOT", 0, 2),) * 2, (("CZ", 1, 2),) * 2,
                  (("CCX", 0, 1, 2),) * 2]:
        circ = circuits.Circuit(n=3, gates=gates)
        assert np.allclose(circuits.simulate(circ, psi), psi)


def test_simulate_qubit_order():
    # qubit 0 is the most significant bit
    e0 = np.zeros(4, dtype=np.complex128)
    e0[0] = 1.0
    out = circuits.simulate(circuits.Circuit(n=2, gates=(("X", 0),)), e0)
    assert abs(out[2]) == pytest.approx(1.0)
    out = circuits.simulate(circuits.Circuit(n=2, gates=(("X", 1),)), e0)
    assert abs(out[1]) == pytest.approx(1.0)


def test_apply_pauli_matches_matrix(rng):
    for _ in range(20):
        x = rng.integers(0, 2, 3).astype(np.uint8)
        z = rng.integers(0, 2, 3).astype(np.uint8)
        sign = int(rng.choice([-1, 1]))
        p = pauli.pauli_from_parts(x, z, sign)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(circuits.apply_pauli(p, psi),
                           pauli.pauli_matrix(p) @ psi)


def test_simulate_and_apply_pauli_block_match_columns():
    """A (2^n, B) block gives bit for bit the columns simulated one by
    one, every gate kind included, and leaves the block untouched."""
    rng = np.random.default_rng(15)
    names = ("H", "P", "X", "Z", "CNOT", "CZ", "CCX")
    for trial in range(20):
        gates = []
        for _ in range(12):
            name = names[int(rng.integers(len(names)))]
            qs = rng.choice(4, circuits._GATE_ARITY[name], replace=False)
            gates.append((name, *(int(q) for q in qs)))
        circ = circuits.Circuit(n=4, gates=tuple(gates))
        block = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        kept = block.copy()
        out = circuits.simulate(circ, block)
        assert out.shape == block.shape and np.array_equal(block, kept)
        for j in range(5):
            assert np.array_equal(out[:, j], circuits.simulate(circ, block[:, j]))
        p = _random_pauli(rng, 4)
        out = circuits.apply_pauli(p, block)
        for j in range(5):
            assert np.array_equal(out[:, j], circuits.apply_pauli(p, block[:, j]))
    with pytest.raises(BadParams, match="length mismatch"):
        circuits.simulate(circ, np.zeros((16, 2, 2)))
    with pytest.raises(BadParams, match="length mismatch"):
        circuits.simulate(circ, np.zeros((8, 2)))


def test_code_basis_bell(bell_base):
    code = unioncode.union_code(bell_base, [pauli.pauli_parse("II")])
    (state,) = circuits.code_basis(code)
    expect = np.zeros(4, dtype=np.complex128)
    expect[0] = expect[3] = 1 / np.sqrt(2)
    assert np.allclose(np.abs(state), np.abs(expect))
    assert abs(np.vdot(state, state) - 1) < 1e-12


def test_code_basis_orthonormal(five_union):
    states = circuits.code_basis(five_union)
    mat = np.array(states)
    gram = mat.conj() @ mat.T
    assert np.allclose(gram, np.eye(6), atol=1e-9)


def test_code_basis_rejects_invalid_codes(bell_base):
    """A stabilizer with no +1 state, and translations in one coset."""
    empty = unioncode.UnionStabilizerCode(
        base=_raw_code(["ZI", "-ZI"]), translations=[pauli.pauli_parse("II")],
        params=None)
    with pytest.raises(ConstructionMismatch, match="projects every"):
        circuits.code_basis(empty)
    twice = unioncode.UnionStabilizerCode(
        base=bell_base, params=None,
        translations=[pauli.pauli_parse("II"), pauli.pauli_parse("XX")])
    with pytest.raises(ConstructionMismatch, match=r"<0\|1> = 1"):
        circuits.code_basis(twice)


def test_kl_verify_five_union(five_union):
    report = circuits.kl_verify(circuits.code_basis(five_union), 2)
    assert report.ok
    assert report.num_checked == 15
    assert report.worst_deviation < 1e-8


def test_kl_verify_negative(full_space_union):
    report = circuits.kl_verify(circuits.code_basis(full_space_union), 2)
    assert not report.ok
    assert report.violations


def test_full_encoder_check_and_corruption(five_union, canonical_any_order):
    q1 = circuits.align_labels(five_union, circuits.synth_q1(five_union.base),
                               CANONICAL_LABELS)
    qc, order = canonical_any_order
    ts = [pauli.pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS]
    reordered = unioncode.union_code(five_union.base,
                                     [ts[o] for o in order])
    report = circuits.full_encoder_check(reordered, q1, qc)
    assert report.ok and report.worst_overlap > 1 - 1e-8
    # corrupt the reversible stage: the check must fail
    bad = circuits.Circuit(n=qc.n, gates=qc.gates + (("X", qc.n - 1),))
    assert not circuits.full_encoder_check(reordered, q1, bad).ok


PERFECT_STABILIZER = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def _kl_per_state(states, d):
    """Knill-Laflamme check applying each Pauli to one state at a time."""
    K = len(states)
    n = int(round(np.log2(states[0].shape[0])))
    mat = np.array(states)
    worst, violations, checked = 0.0, [], 0
    for p in circuits._paulis_up_to_weight(n, d - 1):
        imgs = np.array([circuits.apply_pauli(p, s) for s in states])
        m = mat.conj() @ imgs.T
        dev = float(np.abs(m - np.trace(m) / K * np.eye(K)).max())
        worst = max(worst, dev)
        checked += 1
        if dev > 1e-8:
            violations.append(pauli.pauli_str(p))
    return worst, checked, violations[:16]


def _encoder_per_state(code, q1, qc):
    """Encoder check simulating one basis state at a time; the logical X
    that q1 leaves on each translation is read from conjugate()."""
    n, k = code.base.n, code.base.k
    flips = [int("".join(str(b) for b in circuits.conjugate(q1, t).x[n - k:])
                 or "0", 2) for t in code.translations]
    qc_full = circuits.Circuit(n=n, gates=qc.gates)
    worst, mismatches = 1.0, []
    for i, s in enumerate(circuits.code_basis(code)):
        out = circuits.simulate(qc_full, circuits.simulate(q1, s))
        overlap = abs(out[i ^ flips[i >> k]])
        worst = min(worst, overlap)
        if overlap < 1 - 1e-8:
            mismatches.append((i, overlap))
    return worst, mismatches


def _encoder_cases(five_union, canonical_any_order):
    """(code, q1, qc) for the ((5, 6, 2)) code and for the [[5, 1, 3]] base
    with translations XIIII and ZIIII, each also with qc corrupted."""
    q1 = circuits.align_labels(five_union, circuits.synth_q1(five_union.base),
                               CANONICAL_LABELS)
    qc, order = canonical_any_order
    five = unioncode.union_code(five_union.base,
                                [five_union.translations[o] for o in order])
    perfect = _perfect_union(["XIIII", "ZIIII"])
    pq1 = circuits.synth_q1(perfect.base)
    pqc, order = circuits.synth_qc_any_order(
        circuits.canonicalize_translations(perfect, pq1))
    perfect = unioncode.union_code(perfect.base,
                                   [perfect.translations[o] for o in order])
    cases = []
    for code, q, c in ((five, q1, qc), (perfect, pq1, pqc)):
        bad = circuits.Circuit(n=c.n, gates=c.gates + (("X", 1),))
        cases += [(code, q, c), (code, q, bad)]
    return cases


def _perfect_union(translations):
    base = stab.stabilizer_from_generators(
        [pauli.pauli_parse(s) for s in PERFECT_STABILIZER])
    return unioncode.union_code(
        base, [pauli.pauli_parse(t) for t in translations])


def test_kl_verify_matches_per_state_loop(five_union, full_space_union):
    perfect = _perfect_union(["XIIII", "ZIIII"])
    for code, d in ((five_union, 2), (full_space_union, 2), (perfect, 2),
                    (_perfect_union([]), 3)):
        states = circuits.code_basis(code)
        report = circuits.kl_verify(states, d)
        worst, checked, violations = _kl_per_state(states, d)
        assert (report.num_checked, report.violations) == (checked, violations)
        assert report.ok == (not violations)
        assert report.worst_deviation == pytest.approx(worst, abs=1e-12)


def test_full_encoder_check_matches_per_state_loop(five_union,
                                                   canonical_any_order):
    oks = []
    for code, q1, qc in _encoder_cases(five_union, canonical_any_order):
        report = circuits.full_encoder_check(code, q1, qc)
        worst, mismatches = _encoder_per_state(code, q1, qc)
        assert report.worst_overlap == worst
        assert report.mismatches == mismatches
        oks.append(report.ok)
    assert oks == [True, False, True, False]


def test_encoder_k1_translations_carrying_logical_x():
    """On the [[5, 1, 3]] base every pair of the single-qubit translations
    X0, Z0, X1, Z1 and Y0 gets a passing encoder, in either order; q1
    leaves logical X on most of them."""
    single = {"X0": "XIIII", "Z0": "ZIIII", "X1": "IXIII", "Z1": "IZIII",
              "Y0": "YIIII"}
    carried = 0
    for pair in itertools.combinations(single.values(), 2):
        code = _perfect_union(list(pair))
        q1 = circuits.synth_q1(code.base)
        carried += any(circuits.conjugate(q1, t).x[4] for t in code.translations)
        labels = circuits.canonicalize_translations(code, q1)
        assert circuits.full_encoder_check(
            code, q1, circuits.synth_qc(labels)).ok, pair
        qc, order = circuits.synth_qc_any_order(labels)
        code = unioncode.union_code(code.base,
                                    [code.translations[o] for o in order])
        assert circuits.full_encoder_check(code, q1, qc).ok, pair
        states = circuits.code_basis(code)
        assert circuits.kl_verify(states, 1).ok
    assert carried == 9


def test_signed_generators_and_random_bases_encode():
    """Signs of the generators reach q1, which maps each generator to +Z,
    and seeded random bases with k = 0..2, signed generators and
    translations carrying logical operators all pass the encoder check."""
    signed = ["-XZZXI", "IXZZX", "-XIXZZ", "ZXIXZ"]
    for strings in (signed, ["-" + FIVE_QUBIT_STABILIZER[0]]
                    + FIVE_QUBIT_STABILIZER[1:]):
        code = stab.stabilizer_from_generators(
            [pauli.pauli_parse(s) for s in strings])
        _assert_trivializes(code, circuits.synth_q1(code))
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 7))
        r = n - int(rng.integers(0, 3))
        u = _random_clifford(rng, n, 30)
        eye = np.eye(n, dtype=np.uint8)
        gens = [circuits.conjugate(u, pauli.pauli_from_parts(
            np.zeros(n, np.uint8), eye[i], int(rng.choice([-1, 1]))))
            for i in range(r)]
        base = stab.stabilizer_from_generators(gens)
        labels = rng.choice(1 << r, int(rng.integers(2, min(5, 1 << r) + 1)),
                            replace=False)
        ts = [circuits.conjugate(u, pauli.pauli_from_parts(
            np.array([lab >> (r - 1 - j) & 1 for j in range(r)]
                     + list(rng.integers(0, 2, n - r)), np.uint8),
            rng.integers(0, 2, n).astype(np.uint8))) for lab in labels]
        code = unioncode.union_code(base, ts)
        q1 = circuits.synth_q1(base)
        qc, order = circuits.synth_qc_any_order(
            circuits.canonicalize_translations(code, q1), max_gates=12)
        code = unioncode.union_code(base, [code.translations[o] for o in order])
        assert circuits.full_encoder_check(code, q1, qc).ok, checked
        checked += 1


def test_format_parse_round_trip():
    circ = circuits.Circuit(
        n=3, gates=(("H", 0), ("CNOT", 0, 2), ("CCX", 0, 1, 2), ("P", 1)))
    text = circuits.format_circuit(circ)
    assert "CNOT 1 3" in text
    again = circuits.parse_circuit(text, 3)
    assert again.gates == circ.gates
