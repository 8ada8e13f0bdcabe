from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from unionstab import gf2
from unionstab.errors import CapExceeded


def test_rref_rank_and_pivots():
    m = gf2.as_matrix(["1101", "1011", "0110"])
    red, pivots, rank = gf2.rref(m)
    assert rank == 2
    assert pivots == [0, 1]
    # reduced rows stay in the original row space
    for row in red[:rank]:
        assert gf2.row_space_contains(m, row)


def test_kernel_basis_annihilates():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.integers(0, 2, (5, 9)).astype(np.uint8)
        k = gf2.kernel_basis(m)
        assert k.shape[0] == 9 - gf2.rank(m)
        assert not ((k @ m.T) % 2).any()


def test_solve_consistent_and_inconsistent():
    m = gf2.as_matrix(["110", "011"])
    y = (m @ np.array([1, 0, 1], np.uint8)) % 2
    x = gf2.solve(m, y)
    assert x is not None and not ((m @ x + y) % 2).any()
    # a right-hand side outside the column space yields None
    m2 = gf2.as_matrix(["10", "10"])
    assert gf2.solve(m2, np.array([1, 0], np.uint8)) is None


def test_word_matrix_matches_enumeration():
    g = gf2.as_matrix(["1100", "0011", "1010"])
    packed = gf2.pack_rows(gf2.word_matrix(g)).tolist()
    assert len(set(packed)) == len(packed) == 1 << gf2.rank(g)
    assert set(packed) == set(gf2.span_words(g).tolist())


def test_word_matrix_cap():
    g = np.eye(30, dtype=np.uint8)
    with pytest.raises(CapExceeded):
        gf2.word_matrix(g, cap=1 << 10)


def test_min_weight_nonzero():
    g = gf2.as_matrix(["1110000", "0011100", "0000111"])
    weights = gf2.span_weights(g)
    assert weights.tolist() == np.bitwise_count(gf2.span_words(g)).tolist()
    assert weights[1:].min() == 3


def test_span_weights_wide_rows():
    rng = np.random.default_rng(5)
    m = rng.integers(0, 2, (5, 150)).astype(np.uint8)
    weights = gf2.span_weights(m)
    for a in range(32):
        combo = np.zeros(150, np.uint8)
        for i in range(5):
            if a >> i & 1:
                combo ^= m[i]
        assert weights[a] == combo.sum()
    with pytest.raises(CapExceeded):
        gf2.span_weights(m, cap=16)


def test_row_spaces_equal_under_row_ops():
    a = gf2.as_matrix(["1100", "0110"])
    b = gf2.as_matrix(["1010", "0110"])
    assert gf2.row_spaces_equal(a, b)
    c = gf2.as_matrix(["1100", "0001"])
    assert not gf2.row_spaces_equal(a, c)


def test_format_parse_round_trip():
    m = gf2.as_matrix(["10110", "01011"])
    again = gf2.parse_matrix(gf2.format_matrix(m))
    assert np.array_equal(m, again)


def test_pack_rows_bit_order():
    m = gf2.as_matrix(["1000", "0101", "0011"])
    assert gf2.pack_rows(m).tolist() == [1, 10, 12]
    wide = np.zeros((1, 64), np.uint8)
    wide[0, 63] = 1
    assert gf2.pack_rows(wide).tolist() == [1 << 63]
    with pytest.raises(ValueError):
        gf2.pack_rows(np.zeros((1, 65), np.uint8))


def test_span_words_matches_xor_combinations():
    rng = np.random.default_rng(4)
    m = rng.integers(0, 2, (6, 40)).astype(np.uint8)
    m[5] = m[0] ^ m[2]  # dependent rows are spanned as given
    span = gf2.span_words(m)
    assert span.shape == (64,)
    for a in range(64):
        combo = np.zeros(40, np.uint8)
        for i in range(6):
            if a >> i & 1:
                combo ^= m[i]
        assert span[a] == gf2.pack_rows(combo[None])[0]
    g = gf2.as_matrix(["1100", "0011", "1010"])
    assert set(gf2.span_words(g).tolist()) == \
        set(gf2.pack_rows(gf2.word_matrix(g)).tolist())


def test_span_words_cap_fires_before_allocation():
    m = np.eye(40, 64, dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            gf2.span_words(m, cap=1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
