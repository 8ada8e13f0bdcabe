from __future__ import annotations

import collections
import tracemalloc

import numpy as np
import pytest

from unionstab import gf2
from unionstab.errors import CapExceeded, StrategyInfeasible


def test_rref_rank_and_pivots():
    m = gf2.as_matrix(["1101", "1011", "0110"])
    red, pivots, rank = gf2.rref(m)
    assert rank == 2
    assert pivots == [0, 1]
    # reduced rows stay in the original row space
    for row in red[:rank]:
        assert gf2.row_space_contains(m, row)


def _rref_oracle(m):
    """Column-by-column Gauss-Jordan elimination on uint8 rows."""
    r = (np.asarray(m, dtype=np.uint8) % 2).copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sub = np.nonzero(r[row:, col])[0]
        if sub.size == 0:
            continue
        pr = row + sub[0]
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        for h in np.nonzero(r[:, col])[0]:
            if h != row:
                r[h] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots, len(pivots)


def test_rref_matches_column_loop_oracle():
    """Seeded matrices up to 20 x 20, sparse to dense, entries 0..3 taken
    mod 2, with empty shapes and zero rows; then 64 x 128 ones."""
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(3000):
        nrows, ncols = rng.integers(0, 21, 2)
        mats.append(rng.integers(0, 4, (nrows, ncols))
                    * (rng.random((nrows, ncols)) < rng.random()))
    mats += [rng.integers(0, 2, (64, 128)).astype(np.uint8) for _ in range(5)]
    mats.append(np.vstack([mats[-1][:40], mats[-1][:40] ^ mats[-2][:40]]))
    for m in mats:
        red, pivots, rank = gf2.rref(m)
        want = _rref_oracle(m)
        assert red.dtype == np.uint8 and np.array_equal(red, want[0])
        assert (pivots, rank) == want[1:]
    for bad in ([1, 0, 1], np.zeros((2, 2, 2)), 5):
        with pytest.raises(ValueError):
            gf2.rref(bad)



def _reduced(m):
    """Whether m has rows, each row's first 1 being 0 in every other row."""
    return bool(m.size) and np.array_equal(m[:, m.argmax(axis=1)],
                                           np.eye(len(m)))


def _elimination_cases():
    """2,100 seeded matrices up to 23 x 23, sparse to dense: most widths
    are not a multiple of 8, some have rows that combine earlier ones,
    and a quarter are fully reduced already (rref rows, shuffled)."""
    rng = np.random.default_rng(36)
    for _ in range(2100):
        nrows, ncols = (int(x) for x in rng.integers(0, 24, 2))
        m = rng.integers(0, 2, (nrows, ncols)) * (
            rng.random((nrows, ncols)) < rng.random())
        if nrows and rng.random() < 0.4:
            m = np.vstack([m, rng.integers(0, 2, (3, nrows)) @ m % 2])
        if rng.random() < 0.25:
            red, _, rk = _rref_oracle(m)
            m = red[:rk][rng.permutation(rk)]
        yield rng, m.astype(np.uint8)


def test_rank_coset_reps_and_kernel_match_rref_oracle(monkeypatch):
    """rank, coset_rep_rows and kernel_basis give the _rref_oracle route's
    answers; the first two never back-substitute (call rref), nor does
    kernel_basis on an input that is reduced already."""
    calls = []
    monkeypatch.setattr(gf2, "rref", lambda m: calls.append(1) or
                        _rref_oracle(m))
    reduced = 0
    for rng, m in _elimination_cases():
        red, pivots, rk = _rref_oracle(m)
        calls.clear()
        assert gf2.rank(m) == rk
        cut = int(rng.integers(0, len(m) + 1))
        small, big = m[:cut], m[cut:]
        keep = [p - cut for p in _rref_oracle(m.T)[1] if p >= cut]
        got = gf2.coset_rep_rows(big, small)
        assert got.dtype == np.uint8 and np.array_equal(got, big[keep])
        assert not calls
        free = np.setdiff1d(np.arange(m.shape[1]), pivots)
        want = np.zeros((free.size, m.shape[1]), dtype=np.uint8)
        want[np.arange(free.size), free] = 1
        want[:, pivots] = red[:rk, free].T
        got = gf2.kernel_basis(m)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert not calls or not _reduced(m)
        reduced += _reduced(m)
    assert reduced >= 400
    with pytest.raises(ValueError):
        gf2.rank([1, 0, 1])

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


def test_solve_matrix_matches_column_solves():
    """600 seeded systems, tall, wide, rank-deficient, with all-zero
    right-hand sides or with one outside the column space: solving every
    column in one call gives the per-column solutions side by side, or
    None exactly when some column raises the rank of m beside it."""
    rng = np.random.default_rng(38)
    kinds = collections.Counter()
    for i in range(600):
        kind = ("full", "deficient", "zeros", "inconsistent")[i % 4]
        rows, cols = (int(v) for v in rng.integers(1, 12, 2))
        if kind == "inconsistent":
            rows = cols + int(rng.integers(1, 4))  # tall: rank < rows
        m = rng.integers(0, 2, (rows, cols), np.uint8)
        if kind == "deficient":
            inner = int(rng.integers(0, min(rows, cols)))
            m = rng.integers(0, 2, (rows, inner)) @ \
                rng.integers(0, 2, (inner, cols)) % 2
        y = m @ rng.integers(0, 2, (cols, int(rng.integers(1, 6)))) % 2
        if kind == "zeros":
            y[:, ::2] = 0
        if kind == "inconsistent":
            j = int(rng.integers(y.shape[1]))
            while gf2.rank(np.column_stack([m, y[:, j]])) == gf2.rank(m):
                y[:, j] = rng.integers(0, 2, rows)
        got = gf2.solve(m, y)
        each = [gf2.solve(m, col) for col in y.T]
        bad = [gf2.rank(np.column_stack([m, col])) > gf2.rank(m)
               for col in y.T]
        assert [x is None for x in each] == bad
        if any(bad):
            assert got is None
        else:
            assert np.array_equal(got, np.column_stack(each))
            assert np.array_equal(m.astype(np.int64) @ got % 2, y)
        kinds[kind, any(bad)] += 1
    assert kinds == {("full", False): 150, ("deficient", False): 150,
                     ("zeros", False): 150, ("inconsistent", True): 150}
    m = gf2.as_matrix(["110", "011"])
    assert gf2.solve(m, np.zeros((2, 0), np.uint8)).shape == (3, 0)
    assert gf2.solve(m, "11").shape == (3,)


def test_word_matrix_matches_enumeration():
    g = gf2.as_matrix(["1100", "0011", "1010"])
    packed = gf2.pack_rows(gf2.word_matrix(g)).tolist()
    assert len(set(packed)) == len(packed) == 1 << gf2.rank(g)
    assert set(packed) == set(gf2.span_words(g).tolist())


def _oracle_word_matrix(g):
    """All words from one int64 product of the Gray-order messages with
    the rref basis."""
    basis = gf2._independent_rows(np.asarray(g, dtype=np.uint8))
    k = basis.shape[0]
    if k == 0:
        return np.zeros((1, g.shape[1]), dtype=np.uint8)
    idx = np.arange(2**k, dtype=np.uint64)
    gray = idx ^ (idx >> np.uint64(1))
    msgs = ((gray[:, None] >> np.arange(k, dtype=np.uint64))
            & np.uint64(1)).astype(np.uint8)
    return (msgs.astype(np.int64) @ basis.astype(np.int64) % 2
            ).astype(np.uint8)


def test_word_matrix_matches_int64_gray_oracle():
    """Same rows in the same order as the int64 message product: no rows,
    zero rows (k = 0), dependent rows, and widths 64 and 150."""
    rng = np.random.default_rng(17)
    indep = rng.integers(0, 2, (6, 150)).astype(np.uint8)
    dependent = np.vstack([indep[:4], indep[0] ^ indep[3], indep[:2]])
    cases = [np.zeros((0, 9), np.uint8), np.zeros((3, 9), np.uint8),
             dependent[:, :64], dependent, indep[:, :64], indep,
             rng.integers(0, 2, (9, 7)).astype(np.uint8)]
    for g in cases:
        got = gf2.word_matrix(g)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _oracle_word_matrix(g))


def test_syndrome_of_matrix_matches_rows():
    """One product over a matrix gives each row's syndrome, past 255
    ones per dot product too; a width mismatch still raises."""
    rng = np.random.default_rng(19)
    cases = [(0, 5), (3, 7), (22, 64), (9, 150)]
    for r, n in cases:
        h = rng.integers(0, 2, (r, n)).astype(np.uint8)
        v = rng.integers(0, 2, (40, n)).astype(np.uint8)
        syn = gf2.syndrome(h, v)
        assert syn.dtype == np.uint8 and syn.shape == (40, r)
        rows = np.array([gf2.syndrome(h, row) for row in v]).reshape(40, r)
        assert np.array_equal(syn, rows)
        assert np.array_equal(syn, v.astype(np.int64) @ h.T % 2)
        with pytest.raises(ValueError):
            gf2.syndrome(h, v[:, 1:])
        with pytest.raises(ValueError):
            gf2.syndrome(h, v[0, 1:])
    ones = np.ones((1, 301), np.uint8)
    assert gf2.syndrome(ones, ones).tolist() == [[1]]
    assert gf2.syndrome(ones, ones[0]).tolist() == [1]


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


@pytest.mark.parametrize("text, message", [
    ("", "empty matrix text"),
    ("# c\n2 x\n10\n", "line 2: expected a 'rows cols' header, found '2 x'"),
    ("2 3\n101\n", "truncated: the header on line 1 says 2 rows, found 1"),
    ("2 3\n\n101\n# c\n1#1\n", "row 1 '1#1' on line 5 is not a 0/1"),
    ("1 3\n1012\n", "row 0 '1012' on line 2 is not a 0/1 string of length 3"),
    ("1 2\n12\n", "row 0 '12' on line 2"),
])
def test_parse_matrix_errors_name_the_line(text, message):
    """Line numbers count blank and comment lines; every character of a
    row must be 0 or 1."""
    with pytest.raises(ValueError, match=message):
        gf2.parse_matrix(text)
    lines = gf2.numbered_lines("3 1\n\n# c\n 1 \n0\n1\ntail\n")
    m, rest = gf2.read_matrix(lines)
    assert m.tolist() == [[1], [0], [1]] and rest == [(7, "tail")]


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


def test_span_words_cap_fires_before_allocation(traced_peak):
    m = np.eye(40, 64, dtype=np.uint8)
    err, peak = traced_peak(gf2.span_words, m, cap=1 << 20)
    assert isinstance(err, CapExceeded)
    assert peak < 1 << 20


def _xor_span_oracle(words: list[int]) -> list[int]:
    """Entry a XORs the words i with bit i of a set, as Python ints."""
    out = []
    for a in range(1 << len(words)):
        x = 0
        for i, w in enumerate(words):
            if a >> i & 1:
                x ^= w
        out.append(x)
    return out


_SPAN_SHAPES = [(0,), (1,), (5,), (3, 0), (3, 4), (2, 3, 5)]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
@pytest.mark.parametrize("shape", _SPAN_SHAPES)
def test_xor_span_matches_int_oracle(dtype, shape):
    """Every entry of every leading index against the Python-int XOR."""
    rng = np.random.default_rng(sum(shape) + np.dtype(dtype).itemsize)
    basis = rng.integers(0, np.iinfo(dtype).max, shape, dtype=dtype,
                         endpoint=True)
    span = gf2.xor_span(basis)
    assert span.dtype == dtype
    assert span.shape == shape[:-1] + (1 << shape[-1],)
    for idx in np.ndindex(shape[:-1]):
        assert span[idx].tolist() == _xor_span_oracle(basis[idx].tolist())


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
@pytest.mark.parametrize("shape", _SPAN_SHAPES)
def test_xor_span_chunks_tile_the_span(dtype, shape):
    """Chunks of 2^bits entries, bits = 0, 1, k and past k, laid end to
    end in h order give the whole span, also when one chunk is all of it;
    every chunk comes in the same buffer."""
    rng = np.random.default_rng(sum(shape))
    basis = rng.integers(0, np.iinfo(dtype).max, shape, dtype=dtype,
                         endpoint=True)
    k = shape[-1]
    want = np.array([_xor_span_oracle(basis[idx].tolist())
                     for idx in np.ndindex(shape[:-1])], dtype=dtype
                    ).reshape(shape[:-1] + (1 << k,))
    for bits in sorted({0, 1, k, k + 3}):
        got, buffers = [], []
        for h, chunk in gf2.xor_span_chunks(basis, bits):
            assert h == len(got)
            assert chunk.shape == shape[:-1] + (1 << min(bits, k),)
            buffers.append(chunk)
            got.append(chunk.copy())
        assert len(got) == 1 << (k - min(bits, k))
        assert all(chunk is buffers[0] for chunk in buffers)
        assert np.array_equal(np.concatenate(got, axis=-1), want)


@pytest.mark.parametrize("ncols", [0, 1, 63, 64, 65, 128, 150])
def test_unpack_rows_inverts_pack_words(ncols):
    rng = np.random.default_rng(ncols)
    m = rng.integers(0, 2, (7, ncols)).astype(np.uint8)
    words = gf2.pack_words(m)
    assert words.dtype == np.uint64
    assert words.shape == (7, max(1, -(-ncols // 64)))
    assert np.array_equal(gf2.unpack_rows(words, ncols), m)
    if ncols <= 64:
        assert words[:, 0].tolist() == gf2.pack_rows(m).tolist()


def test_xor_span_cap_counts_leading_axes_before_allocation():
    """A (3, k) basis holds 3 * 2^k words: 2^k <= cap < 3 * 2^k raises,
    whole or in chunks, with a traced peak far below the 3 * 2^k words."""
    k = 22
    basis = np.ones((3, k), dtype=np.uint64)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            gf2.xor_span(basis, cap=2 << k)
        for bits in (0, k):  # the high span, then the low span
            with pytest.raises(CapExceeded):
                next(gf2.xor_span_chunks(basis, bits, cap=2 << k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert gf2.xor_span(basis[:, :4], cap=3 << 4).shape == (3, 16)


def _oracle_kernel_basis(m):
    """The nested loop: free column i set, pivot columns read from rref."""
    red, pivots, _ = gf2.rref(m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for prow, pcol in enumerate(pivots):
            basis[i, pcol] = red[prow, fc]
    return basis


def test_kernel_basis_matches_loop_oracle():
    rng = np.random.default_rng(2)
    cases = [np.zeros((0, 5), np.uint8), np.zeros((3, 4), np.uint8),
             np.eye(6, dtype=np.uint8)]
    cases += [rng.integers(0, 2, (int(rng.integers(1, 12)),
                                  int(rng.integers(1, 20)))).astype(np.uint8)
              for _ in range(40)]
    for m in cases:
        got, want = gf2.kernel_basis(m), _oracle_kernel_basis(m)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _oracle_reduce(basis, v):
    """Sequential pivot clearing, one basis row at a time."""
    out = v.copy()
    for row in basis:
        piv = int(np.argmax(row))
        if out[piv]:
            out ^= row
    return out


def _random_basis(rng, n):
    m = rng.integers(0, 2, (int(rng.integers(0, n + 2)), n)).astype(np.uint8)
    return gf2._independent_rows(m)


def test_reduce_rows_is_least_coset_vector():
    """reduce_rows against rank and brute-force oracles: the result lies
    in v + span, is zero on every pivot, and is the least such vector."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        basis = _random_basis(rng, n)
        rows = rng.integers(0, 2, (int(rng.integers(0, 9)), n))
        rows = rows.astype(np.uint8)
        got = gf2.reduce_rows(basis, rows)
        assert got.shape == rows.shape and got.dtype == np.uint8
        # row order of the basis does not matter
        perm = rng.permutation(len(basis))
        assert np.array_equal(gf2.reduce_rows(basis[perm], rows), got)
        words = gf2.span_words(basis).tolist()
        for v, r in zip(rows, got):
            assert np.array_equal(gf2.reduce_rows(basis, v), r)
            assert np.array_equal(_oracle_reduce(basis, v), r)
            assert gf2.rank(np.vstack([basis, (v ^ r)[None]])) == len(basis)
            assert not r[basis.argmax(axis=1)].any()
            coset = [gf2.to_string(v ^ gf2.as_bits(
                [(w >> j) & 1 for j in range(n)])) for w in words]
            assert gf2.to_string(r) == min(coset)


def test_reduce_rows_matches_uint8_product():
    """The einsum product equals the uint8 mod-2 product on random
    shapes: a single vector, no rows, an inner dimension above 255 and a
    basis given in any row order."""
    rng = np.random.default_rng(17)
    for n, nrows in ((1, 1), (7, 0), (40, 1), (64, 300), (300, 5),
                     (300, 40)):
        basis = _random_basis(rng, n)
        if n == 300:  # pivots in 270 rows: the inner dimension tops 255
            basis = gf2._independent_rows(
                rng.integers(0, 2, (270, n)).astype(np.uint8))
            assert len(basis) > 255
        basis = basis[rng.permutation(len(basis))]
        rows = rng.integers(0, 2, (nrows, n)).astype(np.uint8)
        piv = basis.argmax(axis=1)
        want = rows ^ ((rows[:, piv] @ basis) & 1)
        got = gf2.reduce_rows(basis, rows)
        assert got.dtype == np.uint8 and np.array_equal(got, want), n
        for v, w in zip(rows[:3], want):
            assert np.array_equal(gf2.reduce_rows(basis, v), w), n


def test_row_space_contains_matrix_matches_rank_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 14))
        m = rng.integers(0, 2, (int(rng.integers(0, n + 1)), n))
        m = m.astype(np.uint8)
        if len(m) and rng.random() < 0.5:  # rows of the span
            v = rng.integers(0, 2, (int(rng.integers(1, 6)), len(m))) @ m % 2
        else:
            v = rng.integers(0, 2, (int(rng.integers(1, 6)), n))
        v = v.astype(np.uint8)
        want = gf2.rank(np.vstack([m, v])) == gf2.rank(m)
        assert gf2.row_space_contains(m, v) == want
        assert all(gf2.row_space_contains(m, row) ==
                   (gf2.rank(np.vstack([m, row[None]])) == gf2.rank(m))
                   for row in v)


def test_row_space_contains_on_reduced_basis_matches_rref_route(monkeypatch):
    """A basis in RREF, as every LinearCode generator is, is reduced
    against without rref, with the answer of the route through rref."""
    from unionstab.classical import reed_muller

    def rref_route(m, v):
        basis = gf2.rref(m)[0][:gf2.rank(m)]
        return not gf2.reduce_rows(basis, np.atleast_2d(v)).any()

    rng = np.random.default_rng(21)
    cases = []  # (m, v, whether m is in RREF already)
    for r in range(7):
        g = reed_muller(r, 6).generator
        cases += [(g, g, True),
                  (g, rng.integers(0, 2, (5, 64)).astype(np.uint8), True)]
        if r < 6:
            cases.append((g, reed_muller(r + 1, 6).generator, True))
    for _ in range(40):
        n = int(rng.integers(1, 20))
        m = rng.integers(0, 2, (int(rng.integers(1, n + 2)), n))
        m = m.astype(np.uint8)
        cases += [(m, rng.integers(0, 2, (4, n)).astype(np.uint8), False),
                  (gf2.rref(m)[0][:gf2.rank(m)], m, True)]
    want = [rref_route(m, v) for m, v, _ in cases]
    rrefs = []
    monkeypatch.setattr(gf2, "rref", lambda m: rrefs.append(1) or
                        _rref_oracle(m))
    for (m, v, reduced), ok in zip(cases, want):
        rrefs.clear()
        assert gf2.row_space_contains(m, v) == ok
        if reduced:
            assert not rrefs, m


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_distinct_rows_matches_np_unique(width):
    """First indices and counts, in lexicographic row order, equal those
    of np.unique(axis=0) on 0/1 rows with repeats, a single distinct row
    repeated, and no rows at all."""
    rng = np.random.default_rng(width)
    cases = [np.zeros((0, width), np.uint8),
             np.tile(rng.integers(0, 2, (1, width), np.uint8), (5, 1)),
             rng.integers(0, 2, (1, width), np.uint8)]
    for n in (2, 17, 300):
        pool = rng.integers(0, 2, (max(1, n // 3), width), np.uint8)
        cases.append(pool[rng.integers(0, len(pool), n)])  # repeated rows
        cases.append(rng.integers(0, 2, (n, width), np.uint8))
    for rows in cases:
        _, want_first, want_counts = np.unique(
            rows, axis=0, return_index=True, return_counts=True)
        first, counts = gf2.distinct_rows(rows)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(counts, want_counts)


def _oracle_character_weights(rows, syndromes):
    """acc[x] = sum of chi(u)^2 over the span words u of Hamming weight x,
    chi(u) summed translation by translation for each of the 2^r words."""
    r, c = len(rows), syndromes.shape[1]
    acc = np.zeros(rows.shape[1] + 1, dtype=np.int64)
    for a in range(1 << r):
        bits = (a >> np.arange(r)) & 1
        chi = sum((-1) ** int(bits[:c] @ t) for t in syndromes)
        acc[int((bits @ rows % 2).sum())] += chi * chi
    return acc


def test_character_weights_match_per_word_oracle():
    """Seeded rows and syndromes with c = 0..r: the sum read off one
    histogram transform and the weights' table equals the per-word sum,
    and totals K 2^r when the syndromes are distinct."""
    rng = np.random.default_rng(35)
    for trial in range(40):
        r = int(rng.integers(1, 8))
        c = int(rng.integers(0, r + 1))
        rows = rng.integers(0, 2, (r, int(rng.integers(1, 20)))).astype(
            np.uint8)
        K = int(rng.integers(1, (1 << c) + 1))
        syndromes = gf2.unpack_rows(rng.permutation(1 << c)[:K].astype(
            np.uint64)[:, None], c)
        got = gf2.character_weights(rows, syndromes, gf2.span_weights)
        assert np.array_equal(got, _oracle_character_weights(rows, syndromes))
        assert int(got.sum()) == K << r



def _fwht_oracle(a):
    """The per-bit butterfly, in place: runs of h entries paired through
    a temporary, h = 1, 2, 4, ..."""
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h <<= 1


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_fwht_matches_per_bit_butterfly(dtype):
    """At every size from 2^0 to 2^18, small entries and full-range ones,
    whose sums and -2 hi steps wrap, transform as the per-bit loop."""
    rng = np.random.default_rng(36)
    info = np.iinfo(dtype)
    for r in range(19):
        for low, high in ((-3, 3), (info.min, info.max)):
            a = rng.integers(low, high, 1 << r, dtype=dtype, endpoint=True)
            want = a.copy()
            _fwht_oracle(want)
            gf2.fwht(a)
            assert a.dtype == dtype and np.array_equal(a, want), (r, high)


def test_fwht_traced_peak_within_the_per_bit_loop(traced_peak):
    """On 2^16 int64 entries fwht peaks no higher than the per-bit loop,
    whose temporaries come to about 1.25 tables, plus numpy's 64 KiB
    copy buffer: the transposed copy is live alone."""
    a = np.random.default_rng(16).integers(-9, 9, 1 << 16)
    want, loop = traced_peak(_fwht_oracle, a.copy())
    got, peak = traced_peak(gf2.fwht, a)
    assert want is None and got is None
    assert peak <= loop + (64 << 10), (peak, loop)


def test_character_squares_index_in_pack_rows_order():
    """The histogram bins each syndrome at its pack_rows word, at widths
    on and off a byte: chi^2 equals the per-bit transform's of the
    pack_rows histogram."""
    rng = np.random.default_rng(8)
    for c in (0, 1, 7, 8, 9, 15, 16, 17):
        syndromes = rng.integers(0, 2, (300, c), dtype=np.uint8)
        want = np.bincount(gf2.pack_rows(syndromes).astype(np.int64),
                           minlength=1 << c)
        _fwht_oracle(want)
        got = gf2.character_squares(syndromes, c)
        assert np.array_equal(got, want * want), c

def test_character_squares_guard_is_parseval_bound():
    """K = 2^14 syndromes against r dual rows: the squares are summed in
    int64 while K 2^r < 2^63, as Goethals(8)'s 2^51 is, and refused
    from 2^63 on."""
    syndromes = np.zeros((1 << 14, 0), dtype=np.uint8)
    assert gf2.character_squares(syndromes, 37).tolist() == [1 << 28]
    assert gf2.character_squares(syndromes, 48).tolist() == [1 << 28]
    with pytest.raises(StrategyInfeasible,
                       match=r"^16384 \* 2\^49 overflows int64 sums$"):
        gf2.character_squares(syndromes, 49)
