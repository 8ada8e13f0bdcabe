from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import unionstab
from unionstab import classical, gf2, z4
from unionstab.errors import (
    BadParams,
    ConstructionMismatch,
    DuplicateCoset,
    NotAUnionOfCosets,
    NotNested,
    StrategyInfeasible,
)


def test_reed_muller_parameters():
    for r, m, k, d in [(1, 4, 5, 8), (2, 4, 11, 4), (3, 6, 42, 8),
                       (4, 6, 57, 4), (0, 3, 1, 8), (3, 3, 8, 1)]:
        code = classical.reed_muller(r, m)
        assert (code.n, code.k, code.known_distance) == (1 << m, k, d)
    with pytest.raises(BadParams):
        classical.reed_muller(5, 4)


def test_reed_muller_distance_brute():
    code = classical.reed_muller(1, 4)
    assert classical.min_distance(code, "brute") == 8


def test_reed_muller_nesting_chain():
    inner = classical.reed_muller(1, 4)
    outer = classical.reed_muller(2, 4)
    ok, cert = classical.nesting_check(inner, outer)
    assert ok and all(good for _, _, good in cert)
    ok, _ = classical.nesting_check(outer, inner)
    assert not ok


def test_nordstrom_robinson_words_and_cosets():
    nr = classical.nordstrom_robinson()
    assert nr.size == 256
    assert nr.num_cosets == 8
    assert classical.min_distance(nr, "brute") == 6


def test_nordstrom_robinson_between_reed_muller():
    nr = classical.nordstrom_robinson()
    ok_low, _ = classical.nesting_check(classical.reed_muller(1, 4), nr)
    ok_high, _ = classical.nesting_check(nr, classical.reed_muller(2, 4))
    assert ok_low and ok_high


def test_preparata_matches_gray_route_at_m4():
    direct = classical.preparata_like(4)
    gray = classical.preparata_like(4, route="gray")
    assert direct.num_cosets == gray.num_cosets == 8
    direct_keys = {t.tobytes() for t in direct.translations}
    assert {t.tobytes() for t in gray.translations} == direct_keys


def test_gray_route_fails_at_m6():
    """The length-64 Gray image has a 27-dim kernel and cannot be rebased."""
    with pytest.raises(ConstructionMismatch):
        classical.preparata_like(6, route="gray")


def test_preparata_m6_structure():
    p = classical.preparata_like(6)
    assert p.n == 64
    assert p.num_cosets == 1024
    assert p.log2_size() == 52
    rm36 = classical.reed_muller(3, 6)
    assert gf2.row_spaces_equal(p.base.generator, rm36.generator)
    # all words sit inside the next Reed-Muller layer
    rm46 = classical.reed_muller(4, 6)
    assert all(rm46.contains(t) for t in p.translations[:64])


def test_goethals_m6_structure():
    g = classical.goethals_binary(6)
    assert g.n == 64
    assert g.num_cosets == 32
    assert g.log2_size() == 47
    rm36 = classical.reed_muller(3, 6)
    assert gf2.row_spaces_equal(g.base.generator, rm36.generator)
    # Goethals nests inside the Preparata-like code
    p = classical.preparata_like(6)
    ok, _ = classical.nesting_check(g, p)
    assert ok


def test_goethals_m6_distance_enumerator():
    g = classical.goethals_binary(6)
    assert classical.min_distance(g, "enumerator") == 8


def test_coset_code_membership(rng):
    p = classical.preparata_like(4)
    words = []
    for i, w in enumerate(p.words()):
        if i >= 40:
            break
        words.append(w)
    for w in words:
        assert p.contains(w)
    for _ in range(40):
        v = rng.integers(0, 2, 16).astype(np.uint8)
        inside = p.contains(v)
        leader = min(int((w ^ v).sum()) for w in p.words())
        assert inside == (leader == 0)


def test_rebase_refine_and_coarsen():
    nr = classical.nordstrom_robinson()
    rm04 = classical.reed_muller(0, 4)
    fine = classical.rebase(nr, rm04)
    assert fine.num_cosets == 128
    assert fine.size == nr.size
    back = classical.rebase(fine, nr.base)
    assert back.num_cosets == 8
    with pytest.raises(NotNested):
        classical.rebase(nr, classical.reed_muller(1, 3))


def test_rebase_rejects_non_union():
    nr = classical.nordstrom_robinson()
    with pytest.raises(NotAUnionOfCosets):
        classical.rebase(nr, classical.reed_muller(2, 4))


def test_rebase_onto_whole_space():
    """Syndromes modulo the whole space have no bits, so every
    translation falls in one class."""
    whole = classical.linear_code(np.eye(16, dtype=np.uint8))
    with pytest.raises(NotAUnionOfCosets, match="size 8, expected 2048"):
        classical.rebase(classical.nordstrom_robinson(), whole)
    rm34 = classical.reed_muller(3, 4)
    ts = np.zeros((2, 16), dtype=np.uint8)
    ts[1, 0] = 1  # RM(3, 4) is the even-weight code: two cosets fill GF(2)^16
    space = classical.rebase(classical._make_coset_code(rm34, ts), whole)
    assert space.num_cosets == 1 and not space.translations.any()


def test_duplicate_translation_rejected():
    base = classical.reed_muller(1, 4)
    t = np.zeros(16, np.uint8)
    t2 = base.generator[0].copy()  # same coset as the zero translation
    with pytest.raises(DuplicateCoset):
        classical._make_coset_code(base, [t, t2])


def test_distance_enumerator_matches_brute():
    nr = classical.nordstrom_robinson()
    d, dist = classical.distance_enumerator(nr)
    assert d == 6
    assert classical.min_distance(nr, "coset-brute") == 6
    assert dist[0] == 1 and sum(dist) == nr.size
    assert [a * nr.size for a in dist] == _brute_pair_weights(nr)


def test_format_parse_round_trip():
    nr = classical.nordstrom_robinson()
    again = classical.parse_coset_code(classical.format_coset_code(nr))
    assert again.num_cosets == nr.num_cosets
    assert gf2.row_spaces_equal(again.base.generator, nr.base.generator)
    assert {t.tobytes() for t in again.translations} == \
        {t.tobytes() for t in nr.translations}


def _brute_pair_weights(c) -> list[int]:
    """Ordered codeword pairs of c at each distance, by enumeration."""
    words = gf2.pack_rows(np.array(list(c.words()), dtype=np.uint8))
    dist = np.bitwise_count(words[:, None] ^ words[None, :])
    return np.bincount(dist.ravel(), minlength=c.n + 1).tolist()


def _random_coset_code(seed: int, base, num: int):
    """base plus num - 1 uniformly random translations (and zero)."""
    ts = np.random.default_rng(seed).integers(0, 2, (num, base.n))
    ts[0] = 0
    return classical.CosetCode(base=base, translations=ts.astype(np.uint8))


def _lee_distribution(swe) -> list[int]:
    dist = [0] * (2 * swe.n4 + 1)
    for (ones, twos), count in swe.coeffs.items():
        dist[ones + 2 * twos] += count
    return dist


def test_distance_enumerator_matches_brute_weights():
    """A linear code's distance distribution is its weight distribution."""
    for r in range(4):
        rm = classical.reed_muller(r, 4)
        _, dist = classical.distance_enumerator(classical._as_coset(rm))
        weights = np.bitwise_count(gf2.pack_rows(rm.words()))
        assert dist == np.bincount(weights, minlength=17).tolist()


def test_pair_enumerator_matches_brute_on_random_coset_codes():
    g = np.random.default_rng(7).integers(0, 2, (4, 20)).astype(np.uint8)
    rm14, g20 = classical.reed_muller(1, 4), classical.linear_code(g)
    cases = [(rm14, 3), (rm14, 6), (g20, 4), (g20, 7),
             (classical.reed_muller(2, 4), 2)]
    for seed, (base, num) in enumerate(cases):
        c = _random_coset_code(seed, base, num)
        pairs = classical._pair_weights(c, gf2.DEFAULT_CAP)
        assert [p << base.k for p in pairs] == _brute_pair_weights(c)
        assert classical.min_distance(c, "enumerator") == \
            classical.min_distance(c, "coset-brute") == \
            classical.min_distance(c, "brute")


def test_enumerator_on_codes_longer_than_64():
    """RM(6,7) is the even-weight code of length 128."""
    _, dist = classical.distance_enumerator(
        classical._as_coset(classical.reed_muller(6, 7)))
    assert dist == [math.comb(128, w) if w % 2 == 0 else 0
                    for w in range(129)]
    assert classical.min_distance(classical.reed_muller(5, 7),
                                  "enumerator") == 4


def test_min_distance_enumerator_not_distance_invariant():
    base = classical.reed_muller(1, 4)
    words = classical.reed_muller(2, 4).words()
    pick = np.random.default_rng(0).choice(len(words), 2, replace=False)
    c = classical.CosetCode(
        base=base,
        translations=np.vstack([np.zeros((1, 16), np.uint8), words[pick]]))
    assert classical.min_distance(c, "brute") == 4
    assert classical.min_distance(c, "enumerator") == 4
    with pytest.raises(ConstructionMismatch, match="not distance-invariant"):
        classical.distance_enumerator(c)


def test_m6_distributions_match_lee_route():
    """Binary Walsh-Hadamard enumerators against Z4 Lee/MacWilliams."""
    ctx = z4.gr4_build(5)
    gd = z4.z4_dual(z4.goethals_z4(ctx))
    goethals_lee = _lee_distribution(
        z4.swe_macwilliams(z4.lee_swe(gd), gd.size, gd.n4))
    kerdock = z4.kerdock_z4(ctx)
    preparata_lee = _lee_distribution(
        z4.swe_macwilliams(z4.lee_swe(kerdock), kerdock.size, kerdock.n4))
    _, goethals = classical.distance_enumerator(classical.goethals_binary(6))
    _, preparata = classical.distance_enumerator(classical.preparata_like(6))
    assert goethals == goethals_lee
    assert preparata == preparata_lee


def test_distance_enumerator_cap_fires_before_allocation():
    c = classical._as_coset(classical.reed_muller(3, 6))  # dual dim 22
    c.base.parity_check
    tracemalloc.start()
    try:
        with pytest.raises(StrategyInfeasible):
            classical.distance_enumerator(c, cap=(1 << 22) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _fwht_oracle(a: np.ndarray) -> None:
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h <<= 1


def _full_dual_pair_weights(c) -> list[int]:
    """The pair enumerator by a Walsh-Hadamard transform over all 2^r
    syndromes, read at every dual word a H, then MacWilliams over 2^r."""
    h = c.base.parity_check
    r, n = h.shape
    syn = c.translations.astype(np.int64) @ h.T.astype(np.int64) % 2
    chi = np.bincount(gf2.pack_rows(syn).astype(np.int64), minlength=1 << r)
    _fwht_oracle(chi)
    chi *= chi
    acc = np.zeros(n + 1, dtype=np.int64)
    np.add.at(acc, gf2.span_weights(h), chi)
    poly = [0] * (n + 1)
    for w, a_w in enumerate(acc.tolist()):
        for i in range(n - w + 1):
            for j in range(w + 1):
                poly[i + j] += (a_w * math.comb(n - w, i) * math.comb(w, j)
                                * (-1) ** j)
    assert all(coeff % (1 << r) == 0 for coeff in poly)
    return [coeff >> r for coeff in poly]


def _syndrome_rank(c) -> int:
    h = c.base.parity_check
    return gf2.rank(c.translations.astype(np.int64) @ h.T.astype(np.int64)
                    % 2)


def _sub_union(seed: int):
    """Preparata(6)'s zero coset and 127 seeded others, as in the bench."""
    p = classical.preparata_like(6)
    rest = np.random.default_rng(seed).choice(np.arange(1, 1024), 127,
                                              replace=False)
    return classical.CosetCode(
        base=p.base, translations=p.translations[np.r_[0, np.sort(rest)]])


_G20 = classical.linear_code(
    np.random.default_rng(7).integers(0, 2, (4, 20)).astype(np.uint8))
# name -> (builder, rank s of the translation syndromes, or None); the
# power-sum codes reach s = C(m, 2), the dimension of RM(m-2,m)/RM(m-3,m)
_SPAN_CASES = {
    "goethals6": (lambda: classical.goethals_binary(6), 15),
    "preparata6": (lambda: classical.preparata_like(6), 15),
    "preparata6_sub1": (lambda: _sub_union(1), None),
    "preparata6_sub2": (lambda: _sub_union(2), None),
    "preparata6_sub3": (lambda: _sub_union(3), None),
    "nordstrom_robinson": (classical.nordstrom_robinson, 6),
    "preparata4": (lambda: classical.preparata_like(4), 6),
    **{f"rm{r}_4": (lambda r=r: classical._as_coset(
        classical.reed_muller(r, 4)), 0) for r in range(4)},
    "random_rm14_3": (lambda: _random_coset_code(
        10, classical.reed_muller(1, 4), 3), None),
    "random_rm14_6": (lambda: _random_coset_code(
        11, classical.reed_muller(1, 4), 6), None),
    "random_g20_4": (lambda: _random_coset_code(12, _G20, 4), None),
    "random_g20_7": (lambda: _random_coset_code(13, _G20, 7), None),
    # r = 5: twelve random translations span all of GF(2)^5
    "random_rm24_12": (lambda: _random_coset_code(
        14, classical.reed_muller(2, 4), 12), 5),
    # r - s = m + 1 as on the rank path, but D0, the dual words orthogonal
    # to every translation, has words of degree 2
    "random_rm14_7": (lambda: _random_coset_code(
        20, classical.reed_muller(1, 4), 7), 6),
    # D0 = RM(1, 4) as on the rank path, but P has words of degree 3
    "rm2_4_over_rm0_4": (lambda: classical.rebase(classical._as_coset(
        classical.reed_muller(2, 4)), classical.reed_muller(0, 4)), 10),
}


@pytest.mark.parametrize("name", list(_SPAN_CASES))
def test_span_enumerator_matches_full_dual_oracle(name):
    """The transform over the syndrome span equals the one over all 2^r."""
    build, s = _SPAN_CASES[name]
    c = build()
    if s is not None:
        assert _syndrome_rank(c) == s
    assert classical._pair_weights(c, gf2.DEFAULT_CAP) == \
        _full_dual_pair_weights(c)


# cases whose lift is P over D0 = RM(1, m) with P in RM(2, m)
_RANK_PATH_CASES = {"goethals6", "preparata6", "preparata6_sub1",
                    "preparata6_sub2", "preparata6_sub3",
                    "nordstrom_robinson", "preparata4"}


@pytest.mark.parametrize("name", list(_SPAN_CASES))
def test_enumerator_takes_expected_path(name, monkeypatch):
    """Power-sum codes and NR sum by Dickson rank; the rest span 2^r."""
    taken = []

    def spy(path):
        real = getattr(classical, path)

        def record(*args):
            taken.append(path)
            return real(*args)
        return record

    for path in ("_rank_weights", "_span_weights_by_chi"):
        monkeypatch.setattr(classical, path, spy(path))
    classical._pair_weights(_SPAN_CASES[name][0](), gf2.DEFAULT_CAP)
    assert taken == ["_rank_weights" if name in _RANK_PATH_CASES
                     else "_span_weights_by_chi"]


def _alternating_matrix(form: int, m: int) -> np.ndarray:
    a = np.zeros((m, m), dtype=np.uint8)
    for k, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        a[i, j] = a[j, i] = (form >> k) & 1
    return a


def test_alternating_ranks_match_gf2_rank():
    """All 64 alternating 4 x 4 forms and 500 seeded 6 x 6 ones."""
    sample = np.random.default_rng(5).integers(0, 1 << 15, 500)
    for m, forms, ranks in ((4, np.arange(64), {0, 2, 4}),
                            (6, sample, {0, 2, 4, 6})):
        got = classical._alternating_ranks(forms, m).tolist()
        assert got == [gf2.rank(_alternating_matrix(int(f), m))
                       for f in forms]
        assert set(got) == ranks


def test_rank_path_cap_bounds_its_table():
    """Goethals(6) allocates 2^15 rank-table words, not 2^22 dual words."""
    c = classical.goethals_binary(6)
    d, dist = classical.distance_enumerator(c, cap=1 << 16)
    assert d == 8
    assert dist == [p // c.num_cosets for p in _full_dual_pair_weights(c)]
    tracemalloc.start()
    try:
        with pytest.raises(StrategyInfeasible, match="rank table 2"):
            classical.distance_enumerator(c, cap=(1 << 15) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _oracle_coset_canonical(base, v):
    """Lexicographically least vector in v + base, pivot by pivot."""
    out = np.asarray(v, dtype=np.uint8) % 2
    col = 0
    for row in base.generator:
        while not row[col]:
            col += 1
        if out[col]:
            out = out ^ row
    return out


def _oracle_make_coset_code(base, ts):
    """Translations keyed by canonical bytes in a dict: duplicates first,
    then the zero coset, then zero first and the rest sorted."""
    canon = {}
    for t in ts:
        c = _oracle_coset_canonical(base, t)
        if c.tobytes() in canon:
            raise DuplicateCoset("two translations share a coset of the base")
        canon[c.tobytes()] = c
    zero = bytes(base.n)
    if zero not in canon:
        raise ConstructionMismatch("coset code must contain the zero coset")
    rest = sorted(k for k in canon if k != zero)
    return np.array([canon[zero]] + [canon[k] for k in rest], dtype=np.uint8)


def _oracle_refine(c, new_base):
    """Refinement by a breadth-first closure of canonical coset
    representatives of new_base inside the old base."""
    old = c.base
    reps = {bytes(old.n): np.zeros(old.n, dtype=np.uint8)}
    frontier = [np.zeros(old.n, dtype=np.uint8)]
    while frontier:
        cur = frontier.pop()
        for row in old.generator:
            cand = _oracle_coset_canonical(new_base, cur ^ row)
            if cand.tobytes() not in reps:
                reps[cand.tobytes()] = cand
                frontier.append(cand)
    return _oracle_make_coset_code(
        new_base, [t ^ r for t in c.translations for r in reps.values()])


def _make_or_error(make, base, ts):
    try:
        return make(base, ts)
    except (DuplicateCoset, ConstructionMismatch) as e:
        return type(e).__name__


def _scrambled(rng, base, ts):
    """ts shuffled, each shifted by a random word of base."""
    shift = rng.integers(0, 2, (len(ts), base.k)) @ base.generator % 2
    return (ts ^ shift.astype(np.uint8))[rng.permutation(len(ts))]


def _coset_code_cases():
    """(base, translations) pairs: the power-sum scans as found, the
    built codes scrambled within their cosets, random coset codes, and
    inputs with a duplicate coset, no zero coset, or both."""
    rng = np.random.default_rng(31)
    cases = [classical._power_sum_translations(4, "preparata"),
             classical._power_sum_translations(6, "preparata"),
             classical._power_sum_translations(6, "goethals")]
    for c in (classical.preparata_like(4), classical.goethals_binary(6),
              classical.nordstrom_robinson()):
        cases.append((c.base, _scrambled(rng, c.base, c.translations)))
    for seed in range(12):
        base = classical.linear_code(
            rng.integers(0, 2, (int(rng.integers(1, 8)), 20)))
        ts = rng.integers(0, 2, (int(rng.integers(1, 9)), 20)).astype(np.uint8)
        ts[0] = 0
        if seed % 4 == 1:    # a repeated coset
            ts = np.vstack([ts, ts[-1] ^ base.generator[0]])
        elif seed % 4 == 2:  # no zero coset
            ts[0] = 1
        elif seed % 4 == 3:  # both: the duplicate is reported
            ts = np.vstack([ts, ts[0]])
            ts[0] ^= 1
            ts[-1] ^= 1
        cases.append((base, _scrambled(rng, base, ts)))
    return cases


def test_make_coset_code_matches_dict_oracle():
    """One reduce_rows and gf2.distinct_rows give the translations, order
    and exception of the per-row canonicalisation with a dict."""
    errors = set()
    for base, ts in _coset_code_cases():
        got = _make_or_error(classical._make_coset_code, base, ts)
        want = _make_or_error(_oracle_make_coset_code, base, ts)
        if isinstance(want, str):
            errors.add(want)
            assert got == want
        else:
            assert got.translations.dtype == want.dtype
            assert np.array_equal(got.translations, want)
    assert errors == {"DuplicateCoset", "ConstructionMismatch"}


def test_built_codes_match_dict_oracle():
    for c in (classical.preparata_like(4), classical.preparata_like(6),
              classical.goethals_binary(6), classical.nordstrom_robinson(),
              classical.preparata_like(4, route="gray")):
        assert np.array_equal(
            c.translations, _oracle_make_coset_code(c.base, c.translations))


def test_rebase_refine_matches_bfs_oracle():
    rng = np.random.default_rng(5)
    nr, g6 = classical.nordstrom_robinson(), classical.goethals_binary(6)
    cases = [(nr, classical.reed_muller(0, 4)),
             (classical.preparata_like(4), classical.reed_muller(0, 4)),
             (nr, classical.linear_code(nr.base.generator[1:3]))]
    # Goethals(6) over a random codimension-3 subcode of RM(3, 6)
    keep = rng.integers(0, 2, (g6.base.k - 3, g6.base.k)) @ g6.base.generator
    cases.append((g6, classical.linear_code(keep % 2)))
    for c, new_base in cases:
        assert gf2.rank(new_base.generator) < c.base.k
        fine = classical.rebase(c, new_base)
        assert np.array_equal(fine.translations, _oracle_refine(c, new_base))
        assert fine.num_cosets << new_base.k == c.size
        back = classical.rebase(fine, c.base)
        assert np.array_equal(back.translations, c.translations)


IMPORT_PROBE = """
import sys
from unionstab import classical
goe, prep = classical.goethals_binary(6), classical.preparata_like(6)
classical.distance_enumerator(goe)
classical.distance_enumerator(classical.CosetCode(
    base=prep.base, translations=prep.translations[:128]))
nr = classical.nordstrom_robinson()
classical.rebase(classical.rebase(nr, classical.reed_muller(0, 4)), nr.base)
classical.min_distance(classical.preparata_like(4), "coset-brute")
assert "numpy.ma" not in sys.modules, "the coset layer imported numpy.ma"
"""


def test_coset_layer_does_not_import_numpy_ma():
    """Building, rebasing and certifying coset codes never loads numpy.ma,
    which any np.unique call imports on first use (6-10 ms a process)."""
    src = str(Path(unionstab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
