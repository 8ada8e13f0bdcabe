from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from unionstab import gf2, z4
from unionstab.errors import (
    CapExceeded,
    ConstructionMismatch,
    NonIntegralTransform,
)


@pytest.fixture(scope="module")
def ctx3():
    return z4.gr4_build(3)


@pytest.fixture(scope="module")
def ctx5():
    return z4.gr4_build(5)


@pytest.fixture(scope="module")
def ctx7():
    return z4.gr4_build(7)


def test_kerdock_small_parameters(ctx3):
    k = z4.kerdock_z4(ctx3)
    assert k.n4 == 8
    assert k.size == 256
    swe = z4.lee_swe(k)
    assert swe.min_nonzero_lee_weight() == 6


def test_kerdock_m6_lee_weight(ctx5):
    k = z4.kerdock_z4(ctx5)
    assert k.n4 == 32
    assert k.size == 4096
    assert z4.lee_swe(k).min_nonzero_lee_weight() == 28


def test_dual_sizes_and_orthogonality(ctx3):
    k = z4.kerdock_z4(ctx3)
    d = z4.z4_dual(k)
    assert k.size * d.size == 4 ** k.n4
    prod = (k.generator.astype(np.int64) @ d.generator.T.astype(np.int64)) % 4
    assert not prod.any()


def test_preparata_distance_by_macwilliams(ctx5):
    k = z4.kerdock_z4(ctx5)
    dual_swe = z4.swe_macwilliams(z4.lee_swe(k), k.size, k.n4)
    assert dual_swe.min_nonzero_lee_weight() == 6


def test_goethals_distance_by_macwilliams(ctx5):
    g = z4.goethals_z4(ctx5)
    gd = z4.z4_dual(g)
    assert gd.size == 131072
    swe = z4.swe_macwilliams(z4.lee_swe(gd), gd.size, gd.n4)
    assert swe.min_nonzero_lee_weight() == 8


def test_macwilliams_is_an_involution(ctx3):
    k = z4.kerdock_z4(ctx3)
    swe = z4.lee_swe(k)
    dual = z4.swe_macwilliams(swe, k.size, k.n4)
    back = z4.swe_macwilliams(dual, 4 ** k.n4 // k.size, k.n4)
    assert back.coeffs == swe.coeffs


def test_macwilliams_rejects_bad_size(ctx3):
    swe = z4.lee_swe(z4.kerdock_z4(ctx3))
    with pytest.raises(NonIntegralTransform):
        z4.swe_macwilliams(swe, 255, swe.n4)


def test_gray_isometry(rng):
    for _ in range(500):
        v = rng.integers(0, 4, 9).astype(np.uint8)
        img = z4.gray_image(v)
        assert z4.lee_weight(v) == int(img.sum())
        assert np.array_equal(z4.gray_preimage(img), v)


def test_gray_image_of_matrix_is_row_by_row(rng):
    vs = rng.integers(0, 4, (50, 9)).astype(np.uint8)
    assert np.array_equal(z4.gray_image(vs),
                          np.array([z4.gray_image(v) for v in vs]))
    assert z4.gray_image(vs[:0]).shape == (0, 18)


def test_gray_addition_law(rng):
    for _ in range(500):
        u = rng.integers(0, 4, 7).astype(np.uint8)
        v = rng.integers(0, 4, 7).astype(np.uint8)
        lhs = z4.gray_image((u + v) % 4)
        rhs = (z4.gray_image(u) ^ z4.gray_image(v)
               ^ z4.gray_image((2 * u * v) % 4))
        assert np.array_equal(lhs, rhs)


def test_gray_image_kernel_small(ctx3):
    """At length 8 the Gray-image kernel of the Kerdock dual is 5-dim."""
    p = z4.z4_dual(z4.kerdock_z4(ctx3))
    kern = z4.phi_kernel(p)
    assert gf2.rank(kern) == 5


def test_gray_image_kernel_m6(ctx5):
    """At length 32 the Preparata Gray-image kernel is 27-dimensional.

    2^(m-1) - m + 1 = 27 for m' = 5: the kernel is strictly smaller than
    the 42-dimensional third-order Reed-Muller code, so the Gray image is
    not a union of its cosets.
    """
    p = z4.z4_dual(z4.kerdock_z4(ctx5))
    kern = z4.phi_kernel(p)
    assert gf2.rank(kern) == 27


def test_kernel_vectors_stabilize_gray_image(ctx3, rng):
    p = z4.z4_dual(z4.kerdock_z4(ctx3))
    kern = z4.phi_kernel(p)
    words = p.words()
    gray = np.array([z4.gray_image(w) for w in words], dtype=np.uint8)
    gray_set = {g.tobytes() for g in gray}
    for _ in range(50):
        comb = (rng.integers(0, 2, kern.shape[0]).astype(np.uint8)
                @ kern) % 2
        pick = gray[rng.integers(len(gray))]
        assert (pick ^ comb).astype(np.uint8).tobytes() in gray_set


def test_standard_form_preserves_code(ctx3):
    k = z4.kerdock_z4(ctx3)
    again = z4.z4_standard_form(k.generator)
    assert again.size == k.size
    for row in k.generator:
        assert again.contains(row)


def test_contains_matches_word_set_oracle(ctx3, ctx5):
    """contains agrees with the set of all codewords on codewords, on
    codewords shifted by 1 or 2 in one position and on random vectors,
    for codes with and without order-2 rows."""
    rng = np.random.default_rng(29)
    kerdock = z4.kerdock_z4(ctx3)
    mixed = z4.z4_standard_form(np.vstack([
        rng.integers(0, 4, (1, 6)), 2 * rng.integers(0, 2, (2, 6))]))
    assert (mixed.k1, mixed.k2) == (1, 2)
    for c in (kerdock, z4.z4_dual(kerdock), z4.goethals_check_z4(ctx5),
              mixed):
        words = c.words()
        oracle = {w.tobytes() for w in words}
        picks = words[rng.integers(0, len(words), 600)]
        shift = np.zeros_like(picks)
        shift[np.arange(400), rng.integers(0, c.n4, 400)] = \
            rng.integers(1, 3, 400)
        vs = np.vstack([(picks + shift) % 4,
                        rng.integers(0, 4, (200, c.n4)).astype(np.uint8)])
        got = [c.contains(v) for v in vs]
        assert got == [v.tobytes() in oracle for v in vs]
        assert len(set(got)) == 2


def _dense_words(c) -> np.ndarray:
    """Every codeword from one dense int64 product, in message order."""
    radices = [4] * c.k1 + [2] * c.k2
    msgs = np.indices(radices).reshape(len(radices), -1).T
    return msgs @ c.generator.astype(np.int64) % 4


def _lee_swe_oracle(c) -> dict:
    words = _dense_words(c)
    pairs, counts = np.unique(
        np.stack([(words % 2).sum(axis=1), (words == 2).sum(axis=1)], axis=1),
        axis=0, return_counts=True)
    return {(int(a), int(b)): int(n) for (a, b), n in zip(pairs, counts)}


def test_lee_swe_matches_unique_oracle(ctx3, ctx5):
    """Chunked key counting equals np.unique over the dense word matrix."""
    gd = z4.z4_dual(z4.goethals_z4(ctx5))
    assert gd.size > z4.WORD_CHUNK  # several chunks
    for c in (z4.kerdock_z4(ctx3), z4.kerdock_z4(ctx5), gd):
        assert np.array_equal(c.words(), _dense_words(c))
        coeffs = z4.lee_swe(c).coeffs
        assert list(coeffs.items()) == list(_lee_swe_oracle(c).items())


def test_lee_swe_memory_is_chunked(ctx5):
    gd = z4.z4_dual(z4.goethals_z4(ctx5))
    unchunked = gd.size * gd.n4 * 8  # the int64 word product: 32 MB
    tracemalloc.start()
    try:
        z4.lee_swe(gd)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CapExceeded):
            z4.lee_swe(gd, cap=gd.size - 1)
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < unchunked // 3
    assert refused < 1 << 20


# --------------------------------------------------------------------------
# Oracles: the per-element ring route, the dict-polynomial transform and
# the int64 message product that the closed forms replaced.

def _oracle_mul(ctx, a, b):
    """Product in GR(4, m'): convolve, then reduce by the monic modulus."""
    m = ctx.m_prime
    prod = np.convolve(a.astype(np.int64), b.astype(np.int64))
    for t in range(prod.size - 1, m - 1, -1):
        prod[t - m:t] -= prod[t] * ctx.modulus[:m].astype(np.int64)
    return (prod[:m] % 4).astype(np.uint8)


def _oracle_trace(ctx):
    """Trace by m' Frobenius steps, a + 2b -> a^2 + 2b^2, on the
    Teichmueller decomposition of each element."""
    by_residue = {(t % 2).tobytes(): t for t in ctx.teichmuller}

    def frobenius(e):
        a = by_residue[(e % 2).tobytes()]
        half = ((e.astype(np.int64) - a) % 4) // 2
        b = by_residue[(half % 2).astype(np.uint8).tobytes()]
        return (_oracle_mul(ctx, a, a).astype(np.int64)
                + 2 * _oracle_mul(ctx, b, b)) % 4

    def trace(e):
        acc = np.zeros(ctx.m_prime, dtype=np.int64)
        for _ in range(ctx.m_prime):
            acc = (acc + e) % 4
            e = frobenius(e).astype(np.uint8)
        assert not acc[1:].any()
        return int(acc[0])

    return trace


def _oracle_construction(ctx, goethals_check=False):
    """Kerdock (or Goethals check) rows from ring products and the
    per-element trace, in standard form."""
    trace = _oracle_trace(ctx)
    n = 2**ctx.m_prime - 1
    pts = ctx.teichmuller[1:]
    mul = lambda a, b: _oracle_mul(ctx, a, b)  # noqa: E731
    rows = [np.ones(n + 1, dtype=np.uint8)]
    for i in range(ctx.m_prime):
        rows.append([0] + [trace(mul(pts[i], x)) for x in pts])
    if goethals_check:
        cubes = [mul(x, mul(x, x)) for x in pts]
        for i in range(ctx.m_prime):
            rows.append([0] + [2 * trace(mul(pts[i], c)) % 4 for c in cubes])
    return z4.z4_standard_form(np.array(rows))


def test_teichmuller_powers_are_ring_powers():
    """xi^(k+1) = xi^k * xi by the convolution product, and xi^n = 1."""
    for m in (3, 5, 7):
        ctx = z4.gr4_build(m)
        pts = ctx.teichmuller[1:]
        for k in range(len(pts)):
            nxt = pts[(k + 1) % len(pts)]
            assert np.array_equal(_oracle_mul(ctx, pts[k], ctx.xi), nxt)


def _oracle_teichmuller(ctx) -> list[np.ndarray]:
    """0, then xi^0 .. xi^(n-1), stepped by one multiply-by-xi each."""
    m = ctx.m_prime
    top = -ctx.modulus[:m].astype(np.int64) % 4  # xi^m' in the basis
    powers = [np.eye(1, m, dtype=np.uint8)[0]]
    for _ in range(2**m - 2):
        e = powers[-1]
        shifted = np.concatenate([[0], e[:-1]]) + int(e[-1]) * top
        powers.append((shifted % 4).astype(np.uint8))
    return [np.zeros(m, dtype=np.uint8)] + powers


def test_teichmuller_matches_stepwise_oracle():
    """The doubled powers equal the one-step-per-power loop, element for
    element, at m' = 3, 5, 7 and 9."""
    for m in (3, 5, 7, 9):
        ctx = z4.gr4_build(m)
        want = _oracle_teichmuller(ctx)
        assert len(ctx.teichmuller) == len(want) == 2**m
        for got, exp in zip(ctx.teichmuller, want):
            assert got.dtype == np.uint8 and got.shape == (m,)
            assert np.array_equal(got, exp)
        assert np.array_equal(ctx.xi, want[2])


def test_krawtchouk_row_matches_binomial_sum():
    """The three-term recurrence equals sum_j (-1)^j (q-1)^(k-j) C(x, j)
    C(N - x, k - j) for every 0 <= x <= N, N <= 64 for q = 2 (the
    default) and N <= 16 for q = 2 and q = 4."""
    for q, top in ((None, 64), (2, 16), (4, 16)):
        for n in range(top + 1):
            for x in range(n + 1):
                row = z4._krawtchouk_row(x, n) if q is None else \
                    z4._krawtchouk_row(x, n, q)
                assert row == [
                    sum((-1) ** j * ((q or 2) - 1) ** (k - j)
                        * math.comb(x, j) * math.comb(n - x, k - j)
                        for j in range(min(x, k) + 1))
                    for k in range(n + 1)]


def _oracle_message_words(c, start, stop):
    """Codewords of the messages start .. stop - 1 (mixed radix 4, 2) by
    one int64 product."""
    rem = np.arange(start, stop, dtype=np.int64)
    msgs = np.empty((rem.size, c.k1 + c.k2), dtype=np.int64)
    for j in range(c.k1 + c.k2 - 1, -1, -1):
        radix = 4 if j < c.k1 else 2
        msgs[:, j] = rem % radix
        rem //= radix
    return (msgs @ c.generator.astype(np.int64) & 3).astype(np.uint8)


def _oracle_swe(c, block=1 << 12):
    """(ones, twos) counts over oracle words, in sorted key order."""
    counts = {}
    for start in range(0, c.size, block):
        w = _oracle_message_words(c, start, min(start + block, c.size))
        pairs, num = np.unique(np.stack([(w % 2).sum(axis=1),
                                         (w == 2).sum(axis=1)], axis=1),
                               axis=0, return_counts=True)
        for (a, b), k in zip(pairs.tolist(), num.tolist()):
            counts[a, b] = counts.get((a, b), 0) + k
    return dict(sorted(counts.items()))


def _poly_mul(p, q):
    out = {}
    for (y1, z1), c1 in p.items():
        for (y2, z2), c2 in q.items():
            key = (y1 + y2, z1 + z2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _poly_pow(base, e, cache):
    if e not in cache:
        cache[e] = {(0, 0): 1} if e == 0 else _poly_mul(
            _poly_pow(base, e - 1, cache), base)
    return cache[e]


def _oracle_macwilliams(coeffs, code_size, n4):
    """Dual coefficients by expanding (X+2Y+Z)^(n-a-b) (X-Z)^a
    (X-2Y+Z)^b as dict polynomials in (Y, Z), term by term."""
    p0 = {(0, 0): 1, (1, 0): 2, (0, 1): 1}
    p1 = {(0, 0): 1, (0, 1): -1}
    p2 = {(0, 0): 1, (1, 0): -2, (0, 1): 1}
    c0, c1, c2, acc = {}, {}, {}, {}
    for (a, b), coeff in coeffs.items():
        term = _poly_mul(_poly_pow(p0, n4 - a - b, c0),
                         _poly_mul(_poly_pow(p1, a, c1), _poly_pow(p2, b, c2)))
        for key, val in term.items():
            acc[key] = acc.get(key, 0) + coeff * val
    assert all(val % code_size == 0 for val in acc.values())
    return {key: val // code_size for key, val in acc.items() if val}


def _identity_holds_at_random_points(swe, dual, code_size, rng):
    """|C| W_dual(x, y, z) == W(x+2y+z, x-z, x-2y+z) at random integers."""
    n = swe.n4
    for _ in range(5):
        x, y, z = (int(v) for v in rng.integers(-2**40, 2**40, 3))
        lhs = sum(c * x**(n - a - b) * y**a * z**b
                  for (a, b), c in dual.coeffs.items())
        rhs = sum(c * (x + 2*y + z)**(n - a - b) * (x - z)**a
                  * (x - 2*y + z)**b for (a, b), c in swe.coeffs.items())
        if code_size * lhs != rhs:
            return False
    return True


def _random_z4_codes():
    """Ten seeded random codes: standard forms of k1 random 4-ary rows
    and k2 random doubled rows, n4 in {5, 33, 70}."""
    specs = [(5, 1, 0), (5, 2, 2), (5, 3, 2), (33, 3, 2), (33, 2, 4),
             (33, 4, 1), (70, 2, 1), (70, 5, 4), (70, 6, 3), (70, 3, 7)]
    for i, (n4, k1, k2) in enumerate(specs):
        rng = np.random.default_rng(100 + i)
        yield z4.z4_standard_form(np.vstack([
            rng.integers(0, 4, (k1, n4)), 2 * rng.integers(0, 2, (k2, n4))]))


def test_constructions_match_element_oracle(ctx3, ctx5, ctx7):
    """Trace-table rows give the generators and pivots of the per-element
    route: Kerdock at m' = 3, 5, 7 and the Goethals check code at 5."""
    pairs = [(z4.kerdock_z4(ctx), _oracle_construction(ctx))
             for ctx in (ctx3, ctx5, ctx7)]
    check = z4.goethals_check_z4(ctx5)
    oracle_check = _oracle_construction(ctx5, goethals_check=True)
    pairs += [(check, oracle_check),
              (z4.goethals_z4(ctx5), z4.z4_dual(oracle_check))]
    for got, want in pairs:
        assert (got.n4, got.k1, got.k2) == (want.n4, want.k1, want.k2)
        assert np.array_equal(got.generator, want.generator)
        assert got.pivots == want.pivots


def test_trace_table_rejects_corrupt_teichmuller():
    ctx = z4.gr4_build(3)
    assert np.array_equal(z4._trace_table(ctx),
                          [_oracle_trace(ctx)(t) for t in ctx.teichmuller[1:]])
    ctx.teichmuller[3] = (ctx.teichmuller[3] + [0, 1, 0]) % 4
    with pytest.raises(ConstructionMismatch, match="trace of xi"):
        z4._trace_table(ctx)
    with pytest.raises(ConstructionMismatch, match="trace of xi"):
        z4.kerdock_z4(ctx)


def test_enumerator_and_transform_match_oracles(ctx3, ctx5, rng):
    """Bit-plane words and SWEs equal the int64-product oracle, and the
    Krawtchouk transform equals the dict-polynomial one, keys in the same
    order.  At n4 = 70 that oracle takes 16-28 s per code, so there the
    dual is checked against the MacWilliams identity at random points."""
    codes = [z4.kerdock_z4(ctx3), z4.kerdock_z4(ctx5),
             z4.goethals_check_z4(ctx5), z4.z4_dual(z4.goethals_z4(ctx5))]
    codes += list(_random_z4_codes())
    assert max(c.size for c in codes) > z4.WORD_CHUNK
    assert {c.n4 for c in codes} == {8, 32, 5, 33, 70}
    for c in codes:
        if c.size <= 1 << 15:
            assert np.array_equal(c.words(), _oracle_message_words(c, 0, c.size))
        swe = z4.lee_swe(c)
        assert list(swe.coeffs.items()) == list(_oracle_swe(c).items())
        dual = z4.swe_macwilliams(swe, c.size, c.n4)
        if c.n4 <= 33:
            want = _oracle_macwilliams(swe.coeffs, c.size, c.n4)
            assert list(dual.coeffs.items()) == list(want.items())
        else:
            assert _identity_holds_at_random_points(swe, dual, c.size, rng)
        back = z4.swe_macwilliams(dual, 4**c.n4 // c.size, c.n4)
        assert back.coeffs == swe.coeffs


def test_macwilliams_rejects_terms_beyond_length(ctx3):
    swe = z4.lee_swe(z4.kerdock_z4(ctx3))
    with pytest.raises(NonIntegralTransform, match="does not fit"):
        z4.swe_macwilliams(swe, swe.total, swe.n4 - 1)


def test_preparata8_by_macwilliams(ctx7):
    """Kerdock(7): 65,536 words of length 128; the Preparata side has
    minimum Lee weight 6 and the transform is an involution."""
    k = z4.kerdock_z4(ctx7)
    assert (k.n4, k.size) == (128, 65536)
    swe = z4.lee_swe(k)
    dual = z4.swe_macwilliams(swe, k.size, k.n4)
    assert dual.min_nonzero_lee_weight() == 6
    assert dual.total == 4**128 // k.size
    assert z4.swe_macwilliams(dual, dual.total, k.n4).coeffs == swe.coeffs


def test_hensel_lift_rejects_non_monic_lift():
    with pytest.raises(ConstructionMismatch, match="leading coefficient 0"):
        z4._hensel_lift([1, 0, 2])
    assert z4._hensel_lift([1, 1, 0, 1])[-1] == 1


def _oracle_standard_form(g):
    """The two-pass reduction: unit pivots, then pivots 2, each pass
    copied out in full."""
    g = np.asarray(g, dtype=np.int64) % 4
    nrows, n4 = g.shape
    active = [g[i].copy() for i in range(nrows)]
    unit_rows = []
    for col in range(n4):
        pick = None
        for i, row in enumerate(active):
            if row[col] % 2 == 1:
                pick = i
                break
        if pick is None:
            continue
        row = active.pop(pick)
        if row[col] == 3:
            row = (3 * row) % 4
        for j in range(len(active)):
            c = active[j][col] % 4
            if c:
                active[j] = (active[j] - c * row) % 4
        for idx in range(len(unit_rows)):
            pcol, urow = unit_rows[idx]
            c = urow[col] % 4
            if c:
                unit_rows[idx] = (pcol, (urow - c * row) % 4)
        unit_rows.append((col, row))
    two_rows = []
    for col in range(n4):
        pick = None
        for i, row in enumerate(active):
            if row[col] % 4 == 2:
                pick = i
                break
        if pick is None:
            continue
        row = active.pop(pick)
        for j in range(len(active)):
            if active[j][col] % 4 == 2:
                active[j] = (active[j] - row) % 4
        for idx in range(len(two_rows)):
            pcol, trow = two_rows[idx]
            if trow[col] % 4 == 2:
                two_rows[idx] = (pcol, (trow - row) % 4)
        two_rows.append((col, row))
    assert not any((row % 4).any() for row in active)
    unit_rows.sort(key=lambda t: t[0])
    two_rows.sort(key=lambda t: t[0])
    rows = [r for _, r in unit_rows] + [r for _, r in two_rows]
    gen = (np.array(rows, dtype=np.uint8) if rows
           else np.zeros((0, n4), dtype=np.uint8))
    return (gen, [p for p, _ in unit_rows] + [p for p, _ in two_rows],
            len(unit_rows), len(two_rows))


def _random_standard_form_inputs(count):
    """Seeded matrices mixing random rows, all-even rows, zero rows,
    rows 3 times another (a pivot 3) and sums of earlier rows (rank
    deficient)."""
    rng = np.random.default_rng(41)
    for _ in range(count):
        nrows, n4 = int(rng.integers(0, 9)), int(rng.integers(1, 80))
        g = rng.integers(0, 4, (nrows, n4))
        kind = rng.integers(0, 5, nrows)
        g[kind == 1] = 2 * rng.integers(0, 2, (int((kind == 1).sum()), n4))
        g[kind == 2] = 0
        for i in np.flatnonzero(kind >= 3):
            j = int(rng.integers(0, nrows))
            g[i] = 3 * g[j] if kind[i] == 3 else g[j] + g[i - 1]
        yield g % 4


def _first_pivot_is_3(g):
    odd = g % 2 == 1
    if not odd.any():
        return False
    col = int(odd.any(axis=0).argmax())
    return g[int(odd[:, col].argmax()), col] == 3


def test_standard_form_matches_two_pass_oracle(ctx3, ctx5, ctx7, monkeypatch):
    """One elimination run twice gives the generator, pivots and type of
    the two-pass reduction: on the Kerdock and Goethals-check rows, on
    every matrix z4_dual reduces, and on seeded random matrices."""
    inputs = []
    for ctx in (ctx3, ctx5, ctx7):
        m = ctx.m_prime
        tr = z4._trace_table(ctx)
        kerdock = np.vstack([np.ones(tr.size + 1, dtype=np.int64),
                             z4._trace_rows(tr, m, 1)])
        inputs.append(kerdock)
        if m > 3:
            inputs.append(np.vstack([kerdock,
                                     2 * z4._trace_rows(tr, m, 3) % 4]))
    form = z4.z4_standard_form
    dual_inputs = []
    monkeypatch.setattr(z4, "z4_standard_form",
                        lambda g: dual_inputs.append(g) or form(g))
    for c in [z4.kerdock_z4(ctx) for ctx in (ctx3, ctx5, ctx7)] + [
            z4.goethals_check_z4(ctx5), z4.goethals_check_z4(ctx7),
            z4.goethals_z4(ctx5)] + list(_random_z4_codes()):
        dual_inputs.clear()
        z4.z4_dual(c)
        inputs += dual_inputs
    monkeypatch.undo()
    random_inputs = list(_random_standard_form_inputs(400))
    assert any(g.shape[0] and not (g % 2).any() for g in random_inputs)
    assert any(not g.any(axis=1).all() for g in random_inputs)
    assert sum(_first_pivot_is_3(g) for g in random_inputs) > 50
    deficient = 0
    for g in inputs + random_inputs:
        got = z4.z4_standard_form(g)
        gen, pivots, k1, k2 = _oracle_standard_form(g)
        assert got.generator.dtype == gen.dtype
        assert np.array_equal(got.generator, gen)
        assert (got.pivots, got.k1, got.k2) == (pivots, k1, k2)
        assert got.n4 == g.shape[1]
        deficient += k1 + k2 < g.shape[0]
    assert deficient > 50

