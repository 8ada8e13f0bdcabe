from __future__ import annotations

import hashlib
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
    CapExceeded,
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
    gray = classical._gray_route_code(4)
    assert direct.num_cosets == gray.num_cosets == 8
    direct_keys = {t.tobytes() for t in direct.translations}
    assert {t.tobytes() for t in gray.translations} == direct_keys


def test_gray_route_fails_at_m6():
    """The length-64 Gray image has a 27-dim kernel and cannot be rebased."""
    with pytest.raises(ConstructionMismatch):
        classical._gray_route_code(6)


class _OracleGF2m:
    """GF(2^m') by exp/log tables over a primitive polynomial (an int,
    bit i the coefficient of x^i); elements are ints of polynomial
    coefficients.  The power-sum scan used this field before it read
    the Teichmueller set."""

    def __init__(self, m: int, poly: int):
        self.q = 1 << m
        exp = [1] * (2 * (self.q - 1))
        x = 1
        for i in range(1, 2 * (self.q - 1)):
            x <<= 1
            if x & self.q:
                x ^= poly
            exp[i] = x
        self.exp = exp
        self.log = {exp[i]: i for i in range(self.q - 1)}

    def pw(self, a: int, e: int) -> int:
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]


def _oracle_field(m_prime: int) -> _OracleGF2m:
    poly = sum(c << i for i, c in enumerate(z4._BASE_POLYS[m_prime]))
    fld = _OracleGF2m(m_prime, poly)
    assert len(fld.log) == fld.q - 1  # the polynomial is primitive
    return fld


def _oracle_gray_permutation(ctx: z4.GaloisRingContext) -> np.ndarray:
    """gray_to_rm_permutation as the per-coordinate loop it was."""
    n4 = 1 << ctx.m_prime
    fieldidx = [0]
    for t in ctx.teichmuller[1:]:
        fieldidx.append(int(sum((int(c) % 2) << i for i, c in enumerate(t))))
    perm = np.zeros(2 * n4, dtype=np.int64)
    for p in range(2 * n4):
        h, c = divmod(p, n4)
        perm[p] = h * n4 + fieldidx[c]
    return perm


@pytest.mark.parametrize("m_prime", [3, 5, 7])
def test_residue_field_matches_exp_log_oracle(m_prime):
    """The Teichmueller set mod 2 lists 0, alpha^0, ... of the exp/log
    field; its power tables and the Gray permutation match the old ones."""
    ctx = z4.gr4_build(m_prime)
    res = classical._residues(ctx)
    fld = _oracle_field(m_prime)
    assert res.tolist() == [0] + fld.exp[:fld.q - 1]
    for e in (3, 5):
        assert classical._power_table(res, e).tolist() == [
            fld.pw(a, e) for a in range(fld.q)]
    perm = classical.gray_to_rm_permutation(ctx)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, _oracle_gray_permutation(ctx))


# sha256 prefixes of the translations as built over the exp/log field
_POWER_SUM_DIGESTS = {
    ("preparata", 4): ((8, 16), "70a745e7abae0b8a"),
    ("preparata", 6): ((1024, 64), "d20f428f28c3c481"),
    ("goethals", 4): ((1, 16), "374708fff7719dd5"),
    ("goethals", 6): ((32, 64), "5862b84ffcd85980"),
}


def test_power_sum_codes_keep_translations(monkeypatch):
    """Both power-sum codes at m = 4 and 6 keep their translations: the
    pinned digests, and the scan run on the oracle's power tables."""
    build = {"preparata": classical.preparata_like,
             "goethals": classical.goethals_binary}
    got = {(kind, m): build[kind](m).translations
           for kind, m in _POWER_SUM_DIGESTS}
    for key, (shape, digest) in _POWER_SUM_DIGESTS.items():
        t = got[key]
        assert t.shape == shape and t.dtype == np.uint8
        assert hashlib.sha256(t.tobytes()).hexdigest()[:16] == digest

    def oracle_table(res, e):
        fld = _oracle_field(res.size.bit_length() - 1)
        return np.array([fld.pw(a, e) for a in range(fld.q)])

    monkeypatch.setattr(classical, "_power_table", oracle_table)
    for kind, m in _POWER_SUM_DIGESTS:
        assert np.array_equal(build[kind](m).translations, got[kind, m])


def _oracle_class_scan(m: int, kind: str) -> np.ndarray:
    """The power-sum translations as the class scan found them: all
    2^C(m, 2) classes of RM(m-2, m)/RM(m-3, m) spanned as words of packed
    features (|X| mod 2 and s1, s3, s5 of X in the low bits, Y's above),
    then filtered by the power-sum conditions; one translation, the sum
    of its class's degree-(m-2) monomials, per class found."""
    t = math.comb(m, 2)
    res = classical._residues(z4.gr4_build(m - 1))
    q, b = res.size, m - 1
    pts = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    top = np.array([pts[:, list(comb)].all(axis=1)
                    for comb in itertools.combinations(range(m), m - 2)],
                   dtype=np.uint8)
    pw3, pw5 = classical._power_table(res, 3), classical._power_table(res, 5)
    vals = np.stack([np.arange(q), pw3, pw5], axis=1)
    bits = ((vals[:, :, None] >> np.arange(b)) & 1).reshape(q, 3 * b)
    feat = np.hstack([np.ones((q, 1), np.int64), bits])
    halves = [top[:, h * q:(h + 1) * q].astype(np.int64) @ feat % 2
              for h in (0, 1)]
    x = gf2.span_words(np.hstack(halves)).view(np.int64)
    y = x >> (1 + 3 * b)

    def s(half, k):  # power sums s1, s3, s5 for k = 0, 1, 2
        return (half >> (1 + k * b)) & (q - 1)

    s1 = s(x, 0)
    ok = (((x | y) & 1) == 0) & (s1 == s(y, 0))
    ok &= (s(x, 1) ^ s(y, 1)) == pw3[s1]
    if kind == "goethals":
        ok &= (s(x, 2) ^ s(y, 2)) == pw5[s1]
    msgs = (np.flatnonzero(ok)[:, None] >> np.arange(t)) & 1
    return (msgs @ top.astype(np.int64) % 2).astype(np.uint8)


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("kind", ["preparata", "goethals"])
def test_class_spans_match_class_scan(m, kind):
    """The affine class spans give exactly the classes the scan of all
    2^C(m, 2) classes finds, each once."""
    base, ts = classical._power_sum_translations(m, kind)
    want = _oracle_class_scan(m, kind)
    assert gf2.row_spaces_equal(base.generator,
                                classical.reed_muller(m - 3, m).generator)
    assert ts.dtype == np.uint8 and ts.shape == want.shape
    assert gf2.distinct_rows(ts)[0].size == len(ts)
    assert {r.tobytes() for r in ts} == {r.tobytes() for r in want}


def _power_sums(fld: _OracleGF2m, half: np.ndarray) -> list[int]:
    """[|Z| mod 2, s1, s3, s5] of the subset Z of the field that half
    holds, coordinate z at index z, summed in the exp/log field."""
    out = [int(half.sum()) % 2, 0, 0, 0]
    for z in np.flatnonzero(half).tolist():
        for i, e in enumerate((1, 3, 5), 1):
            out[i] ^= fld.pw(z, e)
    return out


def test_preparata_m8_refused_before_allocation():
    """Preparata(8)'s 2^21 translations of 256 bytes exceed the cap, and
    the builder says so before allocating them."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded,
                           match="K = 2,097,152 translations of n = 256 "):
            classical.preparata_like(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_goethals_m8_cosets_meet_power_sums():
    """Goethals(8) has 2^14 distinct cosets of RM(5, 8); 64 seeded words,
    each a translation plus a random word of the base, meet the power-sum
    conditions in the exp/log field."""
    g = classical.goethals_binary(8)
    assert (g.n, g.num_cosets, g.base.k) == (256, 1 << 14, 219)
    assert gf2.distinct_rows(g.translations)[0].size == 1 << 14
    fld = _oracle_field(7)
    rng = np.random.default_rng(8)
    picks = rng.choice(g.num_cosets, 64, replace=False)
    shift = rng.integers(0, 2, (64, g.base.k)) @ g.base.generator % 2
    for word in g.translations[picks] ^ shift.astype(np.uint8):
        px, x1, x3, x5 = _power_sums(fld, word[:fld.q])
        py, y1, y3, y5 = _power_sums(fld, word[fld.q:])
        assert px == py == 0 and x1 == y1
        assert x3 ^ y3 == fld.pw(x1, 3) and x5 ^ y5 == fld.pw(x1, 5)


@pytest.mark.parametrize("build", [classical.preparata_like,
                                   classical.goethals_binary])
def test_power_sum_builders_memory_is_bounded(traced_peak, build):
    """Building Preparata(6) or Goethals(6) peaks at or below 0.5 MiB:
    spans of the member classes, not a table of all 2^15 classes."""
    _, peak = traced_peak(build, 6)
    assert peak <= 1 << 19


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
    assert classical.min_distance(nr, "brute") == 6
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
            classical.min_distance(c, "brute")


@pytest.mark.parametrize("strategy", ["coset-brute", "analytic"])
def test_removed_distance_strategies_raise(strategy):
    """min_distance keeps "brute" and "enumerator"; other names raise."""
    for c in (classical.reed_muller(1, 4), classical.nordstrom_robinson()):
        with pytest.raises(StrategyInfeasible, match=repr(strategy)):
            classical.min_distance(c, strategy)


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


def test_distance_enumerator_cap_fires_before_allocation(traced_peak):
    c = classical._as_coset(classical.reed_muller(3, 6))  # dual dim 22
    c.base.parity_check
    err, peak = traced_peak(classical.distance_enumerator, c,
                            cap=(1 << 22) - 1)
    assert isinstance(err, StrategyInfeasible)
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
    """Power-sum codes and NR sum by Dickson rank; the rest span 2^r
    through the shared character sum."""
    taken = []

    def spy(module, path):
        real = getattr(module, path)

        def record(*args):
            taken.append(path)
            return real(*args)
        return record

    for module, path in ((classical, "_rank_weights"),
                         (gf2, "character_weights")):
        monkeypatch.setattr(module, path, spy(module, path))
    classical._pair_weights(_SPAN_CASES[name][0](), gf2.DEFAULT_CAP)
    assert taken == ["_rank_weights" if name in _RANK_PATH_CASES
                     else "character_weights"]


def _alternating_matrix(form: int, m: int) -> np.ndarray:
    a = np.zeros((m, m), dtype=np.uint8)
    for k, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        a[i, j] = a[j, i] = (form >> k) & 1
    return a


def test_form_ranks_match_gf2_rank():
    """All 64 alternating 4 x 4 forms, then seeded spans at m = 6 and 8
    (uint8 rows) and m = 11 (uint16 rows)."""
    got = classical._form_ranks(np.eye(6, dtype=np.uint8), 4).tolist()
    assert got == [gf2.rank(_alternating_matrix(f, 4)) for f in range(64)]
    assert set(got) == {0, 2, 4}
    rng = np.random.default_rng(5)
    for m, s in ((6, 9), (8, 8), (11, 7)):
        quad = rng.integers(0, 2, (s, math.comb(m, 2))).astype(np.uint8)
        got = classical._form_ranks(quad, m).tolist()
        assert got == [gf2.rank(_alternating_matrix(int(f), m))
                       for f in gf2.span_words(quad)]
        assert max(got) >= m - 1


def test_form_ranks_in_chunks_equal_one_chunk(monkeypatch):
    """2^10 forms ranked in 64 chunks equal one chunk, and Goethals(6)'s
    2^15 forms in 8 chunks give the same distribution."""
    quad = np.random.default_rng(6).integers(0, 2, (10, 28)).astype(np.uint8)
    whole = classical._form_ranks(quad, 8)
    c = classical.goethals_binary(6)
    dist = classical.distance_enumerator(c)
    monkeypatch.setattr(classical, "_RANK_CHUNK", 1 << 4)
    assert np.array_equal(classical._form_ranks(quad, 8), whole)
    monkeypatch.setattr(classical, "_RANK_CHUNK", 1 << 12)
    assert classical.distance_enumerator(c) == dist


def test_rank_path_memory_is_bounded(traced_peak):
    """The rank path holds 2^s rank bytes and one chunk of form rows, so
    Goethals(6)'s enumerator, s = 15, peaks below 1 MiB."""
    c = classical.goethals_binary(6)
    c.base.parity_check
    (d, _), peak = traced_peak(classical.distance_enumerator, c)
    assert d == 8
    assert peak < 1 << 20


def test_rank_path_cap_bounds_its_table():
    """Goethals(6)'s rank path is charged 143,712 words: 18 bytes for
    each of its 2^15 forms, one chunk of 17 form rows and the 2^8-word
    span of one coset, where the span path would hold 11 bytes for each
    of 2^22 dual words."""
    c = classical.goethals_binary(6)
    d, dist = classical.distance_enumerator(c, cap=143_712)
    assert d == 8
    assert dist == [p // c.num_cosets for p in _full_dual_pair_weights(c)]
    tracemalloc.start()
    try:
        with pytest.raises(StrategyInfeasible, match="rank table 2"):
            classical.distance_enumerator(c, cap=143_711)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rank_path_spans_within_the_callers_cap(monkeypatch):
    """Goethals(6)'s form rows are spanned in chunks that fit the cap the
    enumerator was given: the same distribution at caps 143,712, the
    least the rank path takes, and 2^26, and no xor_span_chunks call
    spans more bytes than its cap's 8-byte words hold."""
    calls = []
    real = gf2.xor_span_chunks

    def spy(basis, bits, cap=gf2.DEFAULT_CAP):
        k = basis.shape[-1]
        bits = min(bits, k)
        calls.append((basis.itemsize * basis.shape[0]
                      << max(bits, k - bits), cap))
        return real(basis, bits, cap)

    monkeypatch.setattr(gf2, "xor_span_chunks", spy)
    c = classical.goethals_binary(6)
    wide = classical.distance_enumerator(c, cap=1 << 26)
    assert calls == [(6 << 15, 1 << 26)]
    calls.clear()
    assert classical.distance_enumerator(c, cap=143_712) == wide
    assert calls and all(nbytes <= 8 * cap == 8 * 143_712
                         for nbytes, cap in calls)


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
              classical._gray_route_code(4)):
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
classical.min_distance(classical.preparata_like(4), "brute")
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
