from __future__ import annotations

import hashlib

import numpy as np
import pytest

from unionstab import classical, gf2, pauli, stab

from conftest import FIVE_QUBIT_STABILIZER, GRAPH_STATE_STABILIZER
from unionstab.errors import (
    BadChain,
    BadMap,
    BadParams,
    ConstructionMismatch,
    DependentGenerators,
    LengthMismatch,
    NotCommuting,
    NotDualContaining,
    StrategyInfeasible,
)


def _code(strings):
    return stab.stabilizer_from_generators(
        [pauli.pauli_parse(s) for s in strings])


def test_five_qubit_base_structure(five_base):
    assert (five_base.n, five_base.k) == (5, 0)
    rows = five_base.stab_binary()
    assert not stab._ip_rows(rows, rows, 5).any()
    assert five_base.normalizer_binary().shape == (5, 10)
    assert five_base.logical_x == () and five_base.logical_z == ()


def test_five_qubit_base_purity_and_distance(five_base):
    params = stab.purity_and_distance(five_base)
    assert params.d == 3 and params.purity == 3
    assert params.provenance["d"] == "weight-enumerator"


def test_logical_pairing():
    code = _code(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
    lx, lz = code.logical_x[0], code.logical_z[0]
    assert pauli.symplectic_ip(lx, lz) == 1
    for s in code.stab:
        assert pauli.symplectic_ip(lx, s) == 0
        assert pauli.symplectic_ip(lz, s) == 0


def test_perfect_code_distance():
    code = _code(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
    params = stab.purity_and_distance(code)
    assert (params.n, params.log2_dim, params.d) == (5, 1, 3)


def test_impure_code_distance():
    # Shor's [[9, 1, 3]] code: weight-2 stabilizers, distance 3, with the
    # weight-2 rows first and last
    gens = ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
            "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"]
    for order in (gens, gens[6:] + gens[:6]):
        params = stab.purity_and_distance(_code(order))
        assert (params.purity, params.d) == (2, 3)


def test_zero_k_graph_code(graph_state_code):
    params = stab.purity_and_distance(graph_state_code)
    assert (graph_state_code.k, params.d) == (0, 3)


def test_rejects_anticommuting_generators():
    with pytest.raises(NotCommuting):
        _code(["XI", "ZI"])


def test_rejects_dependent_generators():
    with pytest.raises(DependentGenerators):
        _code(["XX", "ZZ", "YY"])


def test_css_steane():
    ham = classical.linear_code(np.array(
        [[1, 0, 0, 0, 0, 1, 1],
         [0, 1, 0, 0, 1, 0, 1],
         [0, 0, 1, 0, 1, 1, 0],
         [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8))
    code = stab.css(ham, ham)
    assert (code.n, code.k) == (7, 1)
    params = stab.purity_and_distance(code)
    assert params.d == 3
    # X-type and Z-type rows only
    for p in code.stab:
        assert not (p.x.any() and p.z.any())


def test_css_rejects_non_dual_containing():
    rm04 = classical.reed_muller(0, 4)
    rm34 = classical.reed_muller(3, 4)
    with pytest.raises(NotDualContaining):
        stab.css(rm04, rm04)  # dual(RM(0,4)) not inside RM(0,4)
    code = stab.css(rm34, rm34)
    assert (code.n, code.k) == (16, 2 * 15 - 16)


def test_css_names_the_first_parity_check_row_outside_c1():
    """c1 = RM(3, 4) with generator rows dropped: the message names the
    first parity-check row of c2 = RM(1, 4) that c1 does not contain,
    found one row at a time."""
    rm34, rm14 = classical.reed_muller(3, 4), classical.reed_muller(1, 4)
    for drop in range(rm34.k):
        c1 = classical.linear_code(np.delete(rm34.generator, drop, axis=0))
        first = next((i for i, row in enumerate(rm14.parity_check)
                      if not gf2.row_space_contains(c1.generator, row)), None)
        if first is None:
            assert stab.css(c1, rm14).k == c1.k + rm14.k - 16
            continue
        with pytest.raises(NotDualContaining, match=(
                rf"^dual\(c2\) is not contained in c1: parity-check row "
                rf"{first} of c2 lies outside c1$")):
            stab.css(c1, rm14)


def test_fixed_point_free_map():
    """The default map A and A + I are invertible, A of full rank with no
    eigenvalue 1; enlarge_css refuses a singular A, and an A + I that is
    singular, with BadMap."""
    for dim in (2, 3, 4, 5, 7):
        a = stab.default_fixed_point_free(dim)
        assert gf2.rank(a) == dim
        assert gf2.rank(a ^ np.eye(dim, dtype=np.uint8)) == dim
    with pytest.raises(BadMap):
        stab.default_fixed_point_free(1)
    rm24, rm34 = classical.reed_muller(2, 4), classical.reed_muller(3, 4)
    singular = stab.default_fixed_point_free(4)
    singular[:, 0] = 0
    eigen_one = stab.default_fixed_point_free(4)
    eigen_one[:2, :2] = [[1, 0], [1, 1]]  # invertible, with eigenvalue 1
    assert gf2.rank(singular) < 4 and gf2.rank(eigen_one) == 4
    assert gf2.rank(eigen_one ^ np.eye(4, dtype=np.uint8)) < 4
    for a in (singular, eigen_one):
        with pytest.raises(BadMap, match="^matrix is singular over GF"):
            stab.enlarge_css(rm24, rm34, a)


def test_enlarge_css_small():
    rm24 = classical.reed_muller(2, 4)
    rm34 = classical.reed_muller(3, 4)
    code = stab.enlarge_css(rm24, rm34)
    assert (code.n, code.k) == (16, 11 + 15 - 16)
    rows = code.stab_binary()
    assert not stab._ip_rows(rows, rows, 16).any()


def _oracle_enlarge_css(c, cp, a):
    """The enlargement with its base rows read off a complete css(c, c)."""
    d_rows = gf2.coset_rep_rows(cp.generator, c.generator)
    trans = np.concatenate([d_rows, a @ d_rows % 2], axis=1)
    sb = stab.css(c, c).stab_binary()
    keep = gf2.kernel_basis(stab._ip_rows(sb, trans, c.n).T)
    return stab.stabilizer_from_generators(
        [stab._vec(row, c.n) for row in keep @ sb % 2])


def test_enlarge_css_matches_css_base_oracle():
    """Base rows [H|0; 0|H] from the parity check give the generators and
    logicals of the path through css(c, c), for the default and another
    fixed-point-free map."""
    rm = {(r, m): classical.reed_muller(r, m)
          for r, m in ((2, 4), (3, 4), (2, 5), (3, 5), (3, 6), (4, 6))}
    for small, big in (((2, 4), (3, 4)), ((2, 5), (3, 5)), ((3, 6), (4, 6))):
        c, cp = rm[small], rm[big]
        kk = cp.k - c.k
        fpf = stab.default_fixed_point_free(kk)
        for a in (None, fpf.T.copy()):
            got = stab.enlarge_css(c, cp, a)
            want = _oracle_enlarge_css(c, cp, fpf if a is None else a)
            assert (got.n, got.k) == (want.n, want.k)
            assert np.array_equal(got.normalizer_binary(),
                                  want.normalizer_binary())
            assert np.array_equal(got.stab_binary(), want.stab_binary())


def test_enlarge_css_rejects_identity_eigenvalue():
    rm24 = classical.reed_muller(2, 4)
    rm34 = classical.reed_muller(3, 4)
    with pytest.raises(BadMap):
        stab.enlarge_css(rm24, rm34, a=np.eye(4, dtype=np.uint8))


def test_enlarge_css_rejects_small_gap():
    rm14 = classical.reed_muller(1, 4)
    with pytest.raises(BadChain):
        stab.enlarge_css(rm14, rm14)


def test_enlargement_weight_check_rejects_a_bad_map():
    """A singular A, an A + I that is singular, or a map of the wrong
    size is refused as enlarge_css refuses it."""
    rm24, rm34 = classical.reed_muller(2, 4), classical.reed_muller(3, 4)
    eye = np.eye(4, dtype=np.uint8)
    singular = stab.default_fixed_point_free(4)
    singular[0] = 0
    for a, msg in ((singular, "singular"), (eye, "singular"),
                   (eye[:3, :3], "map must be 4 x 4")):
        for fn in (stab.enlarge_css, stab.enlargement_weight_check):
            with pytest.raises(BadMap, match=msg):
                fn(rm24, rm34, a)


def test_enlargement_weight_check_small():
    rm24 = classical.reed_muller(2, 4)
    rm34 = classical.reed_muller(3, 4)
    w = stab.enlargement_weight_check(rm24, rm34)
    # brute-force oracle over all nonzero messages
    d_rows = gf2.coset_rep_rows(rm34.generator, rm24.generator)
    a = stab.default_fixed_point_free(4)
    ad = (a @ d_rows) % 2
    best = 16
    for v in range(1, 16):
        msg = np.array([(v >> i) & 1 for i in range(4)], dtype=np.uint8)
        w1 = int((msg @ d_rows % 2).sum())
        w2 = int((msg @ ad % 2).sum())
        w3 = int((msg @ ((d_rows ^ ad)) % 2).sum())
        best = min(best, w1, w2, w3)
    assert w == best


def _three_span_weight_check(c, cp, a=None):
    """min over nonzero v of wgt(vD), wgt(vAD) and wgt(vD + vAD), each of
    the three spans weighed whole by gf2.span_weights."""
    d = gf2.coset_rep_rows(cp.generator, c.generator)
    if a is None:
        a = stab.default_fixed_point_free(len(d))
    ad = a @ d % 2
    w = [gf2.span_weights(m)[1:] for m in (d, ad, d ^ ad)]
    return int(np.minimum(np.minimum(w[0], w[1]), w[2]).min())


def test_enlargement_weight_check_running_minimum(traced_peak):
    """The least nonzero weight of the span of D, summed over 64-column
    blocks, equals the three-span reference on seeded random chains
    C < C' (up to 400 columns: several 64-column blocks, and weights past
    a byte), under the default map and a seeded random fixed-point-free
    one; on RM(3, 6) < RM(4, 6) the check is 4 and peaks at or below
    0.5 MiB."""
    rng = np.random.default_rng(33)
    # n = 400: a word of weight 299, which a byte would wrap to 43, below
    # the minimum of 199
    heavy = np.zeros((3, 400), np.uint8)
    heavy[0, 399] = heavy[1, :300] = heavy[2, 100:] = 1
    chains = [(heavy, 1)]
    while len(chains) < 31:
        n = int(rng.choice([5, 17, 64, 65, 130, 300]))
        k = int(rng.integers(1, min(n - 2, 6) + 1))
        kk = int(rng.integers(2, min(n - k, 8) + 1))
        g = rng.integers(0, 2, (k + kk, n), np.uint8)
        if gf2.rank(g) == k + kk:
            chains.append((g, k))
    for g, k in chains:
        c, cp = classical.linear_code(g[:k]), classical.linear_code(g)
        assert stab.enlargement_weight_check(c, cp) == \
            _three_span_weight_check(c, cp), g.shape
        kk = len(g) - k
        eye = np.eye(kk, dtype=np.uint8)
        a = eye
        while gf2.rank(a) < kk or gf2.rank(a ^ eye) < kk:
            a = rng.integers(0, 2, (kk, kk), np.uint8)
        assert stab.enlargement_weight_check(c, cp, a) == \
            _three_span_weight_check(c, cp, a), g.shape
    rm36, rm46 = classical.reed_muller(3, 6), classical.reed_muller(4, 6)
    got, peak = traced_peak(stab.enlargement_weight_check, rm36, rm46)
    assert got == 4 and peak <= 1 << 19


def _oracle_coset_rep_rows(big, small):
    """Greedy loop: keep each row of big that raises the rank of the span
    of small and the rows kept so far."""
    span, _, r = gf2.rref(small)
    span = span[:r]
    out = []
    for v in big:
        red, _, r2 = gf2.rref(np.vstack([span, v.reshape(1, -1)]))
        if r2 > span.shape[0]:
            span = red[:r2]
            out.append(v.copy())
    return np.array(out, dtype=np.uint8).reshape(len(out), big.shape[1])


def test_coset_rep_rows_matches_greedy_oracle():
    """One rref of the transposed stack keeps the same rows, in the same
    order, as adding the rows of big one at a time."""
    rm = [classical.reed_muller(r, 6) for r in range(7)]
    cases = [(rm[r + 1].generator, rm[r].generator) for r in range(6)]
    cases += [(rm[r].generator, rm[6 - r].parity_check) for r in range(4, 7)]
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(4, 20))
        small = rng.integers(0, 2, (int(rng.integers(0, n)), n)).astype(np.uint8)
        big = rng.integers(0, 2, (int(rng.integers(0, n + 3)), n)).astype(np.uint8)
        if big.shape[0] > 2:  # repeat a row and a combination of two
            big[-1] = big[0]
            big[-2] = big[0] ^ big[1]
        cases.append((big, small))
    for big, small in cases:
        got = gf2.coset_rep_rows(big, small)
        want = _oracle_coset_rep_rows(big, small)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _oracle_purity_and_distance(code):
    """(d, d*) over the normalizer span: d* is the least nonzero weight of
    the 2^(n+k) normalizer words, d the least outside the stabilizer.
    Span entry a combines the stabilizer rows, then the logicals, picked
    by its bits, so the entries from 2^(n-k) on lie outside it."""
    weights = stab._span_pauli_weights(code.normalizer_binary(),
                                       gf2.DEFAULT_CAP)
    d_star = int(weights[1:].min())
    d = int(weights[1 << (code.n - code.k):].min()) if code.k else d_star
    return d, d_star


def _oracle_bases(count, seed):
    """count seeded graph states on 3..8 qubits, edge density 0.2, 0.5 or
    0.8, random generator signs and 0..2 generators dropped (k = 0..2),
    then [[5, 1, 3]], Steane's [[7, 1, 3]] and Shor's [[9, 1, 3]]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        a = np.triu(rng.random((n, n)) < rng.choice([0.2, 0.5, 0.8]), 1)
        a = a | a.T
        gens = [("-" if rng.integers(2) else "") + "".join(
            "X" if u == v else ("Z" if a[v, u] else "I") for u in range(n))
            for v in range(n)]
        yield _code(gens[:n - int(rng.integers(0, 3))])
    yield _code(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
    ham = classical.linear_code(np.array(
        [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
         [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8))
    yield stab.css(ham, ham)
    yield _code(["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
                 "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"])


def test_purity_and_distance_match_normalizer_oracle():
    """On 200 seeded graph-state bases with k = 0..2 and three named
    codes, the purity and distance read off the stabilizer's weight
    enumerator equal the normalizer span's."""
    seen = set()
    for code in _oracle_bases(200, 35):
        seen.add(code.k)
        params = stab.purity_and_distance(code)
        assert (params.d, params.purity) == _oracle_purity_and_distance(code)
    assert seen == {0, 1, 2}


def test_purity_cap(five_base):
    with pytest.raises(StrategyInfeasible):
        stab.purity_and_distance(five_base, cap=8)


def test_format_parse_round_trip(five_base):
    text = stab.format_stabilizer(five_base)
    again = stab.parse_stabilizer(text)
    assert again.n == five_base.n and again.k == five_base.k
    assert [str(p) for p in again.stab] == [str(p) for p in five_base.stab]
    assert [str(p) for p in again.logical_x] == \
        [str(p) for p in five_base.logical_x]


def _oracle_stabilizer_from_generators(gens):
    """Logicals by one full rref per normalizer row and a list-based
    symplectic Gram-Schmidt."""
    n = gens[0].n
    rows = np.array([np.concatenate([p.x, p.z]) for p in gens], np.uint8)
    k = n - len(gens)
    swapped = np.concatenate([rows[:, n:], rows[:, :n]], axis=1)
    norm = gf2.kernel_basis(swapped)
    reduced, _, rstab = gf2.rref(rows)
    reps = []
    span = reduced[:rstab]
    for v in norm:
        w = v.copy()
        for row in span:
            piv = int(np.argmax(row))
            if w[piv]:
                w ^= row
        if w.any():
            stacked = np.vstack([span, w.reshape(1, -1)])
            red2, _, r2 = gf2.rref(stacked)
            if r2 > span.shape[0]:
                span = red2[:r2]
                reps.append(w)
    assert len(reps) == 2 * k
    pool = [r.copy() for r in reps]
    xs, zs = [], []
    while pool:
        v = pool.pop(0)
        partner = next(i for i, w in enumerate(pool)
                       if int((v[:n] @ w[n:] + v[n:] @ w[:n]) % 2))
        w = pool.pop(partner)
        rest = []
        for u in pool:
            ipw = int((u[:n] @ w[n:] + u[n:] @ w[:n]) % 2)
            ipv = int((u[:n] @ v[n:] + u[n:] @ v[:n]) % 2)
            rest.append((u ^ (v * ipw) ^ (w * ipv)) % 2)
        pool = [r.astype(np.uint8) for r in rest]
        xs.append(v)
        zs.append(w)
    return (n, k, [str(p) for p in gens], [str(stab._vec(v, n)) for v in xs],
            [str(stab._vec(w, n)) for w in zs])


def _dump(code):
    return (code.n, code.k, [str(p) for p in code.stab],
            [str(p) for p in code.logical_x], [str(p) for p in code.logical_z])


def _graph_prefix(seed):
    """The first l generators of a seeded random graph state, n = 2..13."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 12
    a = np.triu(rng.integers(0, 2, (n, n)), 1)
    a = (a | a.T).astype(np.uint8)
    gens = [pauli.PauliVector(x=np.eye(n, dtype=np.uint8)[i], z=a[i])
            for i in range(n)]
    return gens[:int(rng.integers(1, n + 1))]


def _oracle_cases():
    rm = [classical.reed_muller(r, 6) for r in range(7)]
    cases = {"enlarge_rm36_rm46": stab.enlarge_css(rm[3], rm[4]).stab,
             "css_rm36_rm36": stab.css(rm[3], rm[3]).stab,
             "css_rm46_rm26": stab.css(rm[4], rm[2]).stab}
    for name, strings in (
            ("ring5", GRAPH_STATE_STABILIZER),
            ("perfect5", ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]),
            ("union562", FIVE_QUBIT_STABILIZER)):
        cases[name] = [pauli.pauli_parse(s) for s in strings]
    for seed in range(40):
        cases[f"graph_prefix{seed}"] = _graph_prefix(seed)
    return cases


def test_stabilizer_completion_matches_per_row_rref_oracle():
    """Reducing against one echelon basis picks the same representatives,
    and the array pairing the same pairs, as the per-row rref loop."""
    for name, gens in _oracle_cases().items():
        want = _oracle_stabilizer_from_generators(list(gens))
        assert _dump(stab.stabilizer_from_generators(list(gens))) == want, name
        if name == "enlarge_rm36_rm46":
            assert want[:2] == (64, 35)


def _per_row_reduce_completion(gens):
    """Logicals by one gf2.reduce_rows call and one np.vstack per
    normalizer row, then the array symplectic Gram-Schmidt."""
    n = gens[0].n
    rows = np.array([np.concatenate([p.x, p.z]) for p in gens], np.uint8)
    span = gf2._independent_rows(rows)
    reps = []
    for v in gf2.kernel_basis(stab._swap(rows, n)):
        w = gf2.reduce_rows(span, v)
        if w.any():
            span = np.vstack([span ^ np.outer(span[:, w.argmax()], w), w])
            reps.append(w)
    pool = np.array(reps, dtype=np.uint8).reshape(-1, 2 * n)
    xs, zs = [], []
    while len(pool):
        v, pool = pool[0], pool[1:]
        ipv = (pool @ stab._swap(v, n)) & 1
        j = int(ipv.argmax())
        w = pool[j]
        pool, ipv = np.delete(pool, j, axis=0), np.delete(ipv, j)
        ipw = (pool @ stab._swap(w, n)) & 1
        pool = pool ^ np.outer(ipw, v) ^ np.outer(ipv, w)
        xs.append(v)
        zs.append(w)
    return (n, n - len(gens), [str(p) for p in gens],
            [str(stab._vec(v, n)) for v in xs],
            [str(stab._vec(w, n)) for w in zs])


def _scrambled(seed):
    """A seeded graph-state prefix under random CNOT, H and P layers on the
    binary rows, with random signs: a stabilizer with dense logicals."""
    return _scramble(np.random.default_rng(1000 + seed), _graph_prefix(seed))


def _scramble(rng, gens):
    """gens under 3n random CNOT, H and P layers, with random signs."""
    n = gens[0].n
    x = np.array([p.x for p in gens])
    z = np.array([p.z for p in gens])
    for _ in range(3 * n):
        a, b = (int(q) for q in rng.choice(n, 2, replace=False)) \
            if n > 1 else (0, 0)
        kind = int(rng.integers(3))
        if kind == 0 and a != b:  # CNOT a -> b
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
        elif kind == 1:  # H a
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        else:  # P a
            z[:, a] ^= x[:, a]
    return [pauli.PauliVector(x=xr, z=zr, sign=int(rng.choice([-1, 1])))
            for xr, zr in zip(x, z)]


def test_stabilizer_completion_matches_per_row_reduce_path():
    """The one-pass Python-int reduction picks bit for bit the logicals of
    the per-row gf2.reduce_rows path, on the corpus and on seeded random
    stabilizers."""
    cases = _oracle_cases()
    for seed in range(40):
        cases[f"scrambled{seed}"] = _scrambled(seed)
    for name, gens in cases.items():
        want = _per_row_reduce_completion(list(gens))
        assert _dump(stab.stabilizer_from_generators(list(gens))) == want, name


def _fully_reduced_reps(span, rows):
    """The representatives loop that _least_reps replaced: span (an rref)
    kept fully reduced, so each basis row holds only its own pivot bit,
    and a row's pivot bits cleared in any order."""
    pivots = {x.bit_length(): x for x in span}
    mask = sum(1 << (lead - 1) for lead in pivots)
    reps = []
    for v in rows:
        hit = v & mask
        while hit:
            lead = hit.bit_length()
            v ^= pivots[lead]
            hit ^= 1 << (lead - 1)
        if v:
            lead = v.bit_length()
            for p, x in pivots.items():
                if x >> (lead - 1) & 1:
                    pivots[p] = x ^ v
            pivots[lead] = v
            mask |= 1 << (lead - 1)
            reps.append(v)
    return reps


def test_least_reps_matches_the_fully_reduced_loop():
    """Clearing pivot bits top-down against an echelon basis gives the
    representatives of the fully reduced loop: seeded stabilizers with
    n = 2..12 and k = 0..4 (normalizer rows, and random rows that are
    often dependent), and the [[64, 35]] enlargement."""
    rng = np.random.default_rng(32)
    rm36, rm46 = classical.reed_muller(3, 6), classical.reed_muller(4, 6)
    cases = [stab.enlarge_css(rm36, rm46).stab]
    for n in range(2, 13):
        for k in range(min(4, n - 1) + 1):
            for _ in range(3):  # n - k generators of a seeded graph state
                a = np.triu(rng.integers(0, 2, (n, n), np.uint8), 1)
                cases.append(_scramble(rng, [
                    pauli.PauliVector(x=np.eye(n, dtype=np.uint8)[i],
                                      z=(a | a.T)[i]) for i in range(n - k)]))
    seen = set()
    for gens in cases:
        n = gens[0].n
        rows = stab._xz_rows(n, gens)
        span = gf2._row_ints(gf2._independent_rows(rows))
        norm = gf2._row_ints(gf2.kernel_basis(stab._swap(rows, n)))
        noise = [int(v) for v in rng.integers(0, 1 << min(2 * n, 62), 8)]
        for vs in (norm, norm[::-1] + noise):
            assert stab._least_reps(span, vs) == \
                _fully_reduced_reps(span, vs), (n, len(gens))
        seen.add((n, n - len(gens)))
    assert seen == {(n, k) for n in range(2, 13)
                    for k in range(min(4, n - 1) + 1)} | {(64, 35)}


def test_parse_rejects_bad_logicals_with_named_item():
    with pytest.raises(ConstructionMismatch,
                       match="logical X0 and Z0 do not pair"):
        stab.parse_stabilizer("2 1\nS\nXX\nZ\nZZ\nX\nZI\n")
    with pytest.raises(ConstructionMismatch,
                       match="logical Z0 anticommutes with stabilizer 0"):
        stab.parse_stabilizer("2 1\nS\nXX\nZ\nZI\nX\nXI\n")
    good = stab.parse_stabilizer("2 1\nS\nXX\nZ\nZZ\nX\nXI\n")
    assert (good.n, good.k) == (2, 1)


def test_parse_checks_header_against_operators():
    with pytest.raises(LengthMismatch, match="'XX' in block S acts on 2"):
        stab.parse_stabilizer("3 1\nS\nXX\nZZ\n")
    with pytest.raises(BadParams, match="0 <= k < n"):
        stab.parse_stabilizer("3 3\nS\n")
    with pytest.raises(BadParams, match="empty"):
        stab.parse_stabilizer("# nothing\n")
    with pytest.raises(BadParams, match="at least one generator"):
        stab.stabilizer_from_generators([])


# sha256 prefixes of format_stabilizer's text for the codes of
# test_format_stabilizer_is_pinned, the graph states' texts concatenated
FORMAT_DIGESTS = {"enlarge_rm36_rm46": "3c899d1607831684",
                  "css_rm36_rm36": "2e5ba4a6d6b61ae6",
                  "graph_states": "a43b400c3e45f221"}


def _padded_graph_states():
    """60 seeded graph states on n qubits with 2n mod 8 != 0, so _row_ints
    pads the z half, edge density 0.5, 1..3 generators dropped (k = 1..3)."""
    rng = np.random.default_rng(36)
    for _ in range(60):
        n = int(rng.choice([5, 6, 7, 9, 10, 11, 13]))
        a = np.triu(rng.random((n, n)) < 0.5, 1)
        a = a | a.T
        gens = ["".join("X" if u == v else ("Z" if a[v, u] else "I")
                        for u in range(n)) for v in range(n)]
        yield _code(gens[:n - int(rng.integers(1, 4))])


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


def test_format_stabilizer_is_pinned():
    """The stabilizer files of the [[64, 35]] enlargement, css(RM(3,6),
    RM(3,6)) and padded graph states with k = 1..3 keep their bytes: the
    logicals' symplectic Gram-Schmidt pairs the same operators."""
    rm36, rm46 = classical.reed_muller(3, 6), classical.reed_muller(4, 6)
    enlarged = stab.enlarge_css(rm36, rm46)
    assert (enlarged.n, enlarged.k) == (64, 35)
    graphs = list(_padded_graph_states())
    assert {code.k for code in graphs} == {1, 2, 3}
    assert all(2 * code.n % 8 for code in graphs)
    got = {"enlarge_rm36_rm46": _digest([stab.format_stabilizer(enlarged)]),
           "css_rm36_rm36": _digest([stab.format_stabilizer(
               stab.css(rm36, rm36))]),
           "graph_states": _digest(map(stab.format_stabilizer, graphs))}
    assert got == FORMAT_DIGESTS

