from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from unionstab import gf2, z4
from unionstab.errors import CapExceeded, NonIntegralTransform


@pytest.fixture(scope="module")
def ctx3():
    return z4.gr4_build(3)


@pytest.fixture(scope="module")
def ctx5():
    return z4.gr4_build(5)


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


def test_format_parse_round_trip(ctx3):
    k = z4.kerdock_z4(ctx3)
    again = z4.parse_z4_code(z4.format_z4_code(k))
    assert np.array_equal(again.generator, k.generator)
    assert (again.k1, again.k2) == (k.k1, k.k2)


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
