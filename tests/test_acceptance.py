"""End-to-end acceptance checks, one per headline capability.

Each test prints a single ``CRITERION n: PASS``/``FAIL`` line (with its
wall-clock time) in addition to the usual pytest verdict, and enforces
its own time budget.
"""
from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from unionstab import circuits, classical, gf2, pauli, stab, unioncode, z4

from conftest import (
    CANONICAL_LABELS,
    FIVE_QUBIT_TRANSLATIONS,
    GRAPH_STATE_STABILIZER,
)


@contextmanager
def criterion(num: int, limit_s: float, capfd):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"CRITERION {num}: FAIL "
                  f"({time.monotonic() - start:.2f}s)", flush=True)
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    with capfd.disabled():
        print(f"CRITERION {num}: {verdict} ({elapsed:.2f}s)", flush=True)
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_1_five_qubit_union(five_union, capfd):
    with criterion(1, 1.0, capfd):
        assert five_union.params.log2_dim == pytest.approx(np.log2(6))
        for i in range(6):
            for j in range(i + 1, 6):
                assert unioncode.coset_distance(five_union, i, j) >= 2
        assert unioncode.true_distance(five_union) == 2
        report = circuits.kl_verify(circuits.code_basis(five_union), 2)
        assert report.num_checked == 15
        assert report.ok and report.worst_deviation < 1e-8


def test_criterion_2_clique_search(graph_state_code, capfd):
    with criterion(2, 1.0, capfd):
        g2 = unioncode.build_search_graph(graph_state_code, 2)
        assert g2.num_vertices == 32
        r2 = unioncode.max_clique(g2, mode="exact")
        assert r2.size >= 6 and r2.optimal
        g3 = unioncode.build_search_graph(graph_state_code, 3)
        r3 = unioncode.max_clique(g3, mode="exact")
        assert r3.size == 2 and r3.optimal


def test_criterion_3_encoder_synthesis(five_union, capfd):
    with criterion(3, 60.0, capfd):
        q1 = circuits.synth_q1(five_union.base)
        # the stabilizer lands in the +1 single-qubit Z group, full rank
        aligned = circuits.align_labels(five_union, q1, CANONICAL_LABELS)
        imgs = [circuits.conjugate(aligned, s) for s in five_union.base.stab]
        assert all(img.sign == 1 and not img.x.any() for img in imgs)
        assert gf2.rank(np.array([img.z for img in imgs], np.uint8)) == 5
        labels = circuits.canonicalize_translations(five_union, aligned)
        assert labels == CANONICAL_LABELS
        qc, order = circuits.synth_qc_any_order(labels, max_gates=7)
        assert len(qc) <= 7
        ts = [pauli.pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS]
        code = unioncode.union_code(five_union.base, [ts[o] for o in order])
        enc = circuits.full_encoder_check(code, aligned, qc)
        assert enc.ok and enc.worst_overlap > 1 - 1e-8


def test_criterion_4_nordstrom_robinson(capfd):
    with criterion(4, 10.0, capfd):
        nr = classical.nordstrom_robinson()
        assert nr.size == 256
        assert nr.num_cosets == 8
        rm14 = classical.reed_muller(1, 4)
        assert gf2.row_spaces_equal(nr.base.generator, rm14.generator)
        assert classical.min_distance(nr, "brute") == 6
        ok_low, _ = classical.nesting_check(rm14, nr)
        ok_high, _ = classical.nesting_check(nr, classical.reed_muller(2, 4))
        assert ok_low and ok_high


def test_criterion_5_quaternary_certificates(capfd):
    with criterion(5, 300.0, capfd):
        ctx = z4.gr4_build(5)
        kerdock = z4.kerdock_z4(ctx)
        assert kerdock.size == 4096
        assert z4.lee_swe(kerdock).min_nonzero_lee_weight() == 28
        # Preparata distance through the MacWilliams transform
        dual_swe = z4.swe_macwilliams(z4.lee_swe(kerdock), kerdock.size,
                                      kerdock.n4)
        assert dual_swe.min_nonzero_lee_weight() == 6
        # Goethals distance through its enumerable quaternary dual
        gd = z4.z4_dual(z4.goethals_z4(ctx))
        assert gd.size == 131072
        swe = z4.swe_macwilliams(z4.lee_swe(gd), gd.size, gd.n4)
        assert swe.min_nonzero_lee_weight() == 8
        # binary coset structure over RM(3,6)
        prep = classical.preparata_like(6)
        goe = classical.goethals_binary(6)
        rm36 = classical.reed_muller(3, 6)
        assert prep.num_cosets == 1024
        assert goe.num_cosets == 32
        assert gf2.row_spaces_equal(prep.base.generator, rm36.generator)
        assert gf2.row_spaces_equal(goe.base.generator, rm36.generator)


def test_criterion_6_length_64_families(capfd):
    with criterion(6, 120.0, capfd):
        goe = unioncode.family_build("goethals", 6)
        assert (goe.params.n, goe.params.log2_dim, goe.params.d) == (64, 30, 8)
        prep = unioncode.family_build("preparata", 6)
        assert (prep.params.n, prep.params.log2_dim, prep.params.d) == \
            (64, 40, 6)
        # larger family members, symbolic parameters only
        for kind, m, log2k, d in [("goethals", 8, 210, 8),
                                  ("preparata", 8, 224, 6),
                                  ("goethals", 10, 966, 8),
                                  ("preparata", 10, 984, 6)]:
            p = unioncode.family_params(kind, m)
            assert (p.n, p.log2_dim, p.d) == (1 << m, log2k, d)
        # Steane enlargement of the Reed-Muller chain at length 64
        rm36 = classical.reed_muller(3, 6)
        rm46 = classical.reed_muller(4, 6)
        code = stab.enlarge_css(rm36, rm46)
        assert (code.n, code.k) == (64, 35)
        assert stab.enlargement_weight_check(rm36, rm46) >= 4


def test_criterion_7_property_suites(rng, capfd):
    with criterion(7, 120.0, capfd):
        # symplectic product = commutation, exhaustively on two qubits
        for xb in itertools.product([0, 1], repeat=4):
            for zb in itertools.product([0, 1], repeat=4):
                p = pauli.pauli_from_parts(np.array(xb[:2], np.uint8),
                                           np.array(zb[:2], np.uint8))
                q = pauli.pauli_from_parts(np.array(xb[2:], np.uint8),
                                           np.array(zb[2:], np.uint8))
                a, b = pauli.pauli_matrix(p), pauli.pauli_matrix(q)
                commute = np.allclose(a @ b, b @ a)
                assert commute == (pauli.symplectic_ip(p, q) == 0)
        # and on 10^4 random four-qubit pairs
        bits = rng.integers(0, 2, (10_000, 4, 4)).astype(np.uint8)
        for row in bits:
            p = pauli.pauli_from_parts(row[0], row[1])
            q = pauli.pauli_from_parts(row[2], row[3])
            a, b = pauli.pauli_matrix(p), pauli.pauli_matrix(q)
            assert np.allclose(a @ b, b @ a) == \
                (pauli.symplectic_ip(p, q) == 0)
        # weight identity on 10^5 random vectors
        x = rng.integers(0, 2, (100_000, 8)).astype(np.uint8)
        z = rng.integers(0, 2, (100_000, 8)).astype(np.uint8)
        lhs = (x | z).sum(axis=1)
        rhs = x.sum(axis=1) + z.sum(axis=1) - (x & z).sum(axis=1)
        assert np.array_equal(lhs, rhs)
        for i in range(0, 100_000, 9973):
            p = pauli.pauli_from_parts(x[i], z[i])
            assert pauli.pauli_weight(p) == lhs[i]
        # Gray isometry and the mixed-addition law on 10^4 samples
        u = rng.integers(0, 4, (10_000, 12)).astype(np.int64)
        v = rng.integers(0, 4, (10_000, 12)).astype(np.int64)
        for i in range(10_000):
            gi = z4.gray_image(u[i])
            assert z4.lee_weight(u[i]) == int(gi.sum())
            assert np.array_equal(z4.gray_preimage(gi), u[i])
            lhs_g = z4.gray_image((u[i] + v[i]) % 4)
            rhs_g = gi ^ z4.gray_image(v[i]) ^ z4.gray_image(
                (2 * u[i] * v[i]) % 4)
            assert np.array_equal(lhs_g, rhs_g)
        # MacWilliams transform is an exact involution
        small = z4.kerdock_z4(z4.gr4_build(3))
        swe = z4.lee_swe(small)
        dual = z4.swe_macwilliams(swe, small.size, small.n4)
        back = z4.swe_macwilliams(dual, 4 ** small.n4 // small.size,
                                  small.n4)
        assert back.coeffs == swe.coeffs
        # the Pauli group partitions into normalizer cosets of equal size
        for gens, n, k in [
            (GRAPH_STATE_STABILIZER, 5, 0),
            (["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], 5, 1),
            (["XX", "ZZ"], 2, 0),
        ]:
            code = stab.stabilizer_from_generators(
                [pauli.pauli_parse(s) for s in gens])
            # bit 2q of word is x_q and bit 2q + 1 is z_q
            bits = np.arange(4 ** n)[:, None] >> np.arange(2 * n) & 1
            rows = np.hstack([bits[:, 0::2], bits[:, 1::2]]).astype(np.uint8)
            counts: dict[bytes, int] = {}
            for syn in stab._ip_rows(rows, code.stab_binary(), n):
                counts[syn.tobytes()] = counts.get(syn.tobytes(), 0) + 1
            assert len(counts) == 1 << (n - k)
            assert set(counts.values()) == {1 << (n + k)}


def test_criterion_8_negative_controls(full_space_union, five_union, capfd):
    with criterion(8, 60.0, capfd):
        # a dimension-4 union of distance 1 must fail the distance-2 check
        report = circuits.kl_verify(circuits.code_basis(full_space_union), 2)
        assert not report.ok and report.violations
        # a corrupted reversible stage must fail the encoder check
        q1 = circuits.align_labels(five_union,
                                   circuits.synth_q1(five_union.base),
                                   CANONICAL_LABELS)
        qc, order = circuits.synth_qc_any_order(CANONICAL_LABELS,
                                                max_gates=7)
        ts = [pauli.pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS]
        code = unioncode.union_code(five_union.base, [ts[o] for o in order])
        bad = circuits.Circuit(n=qc.n, gates=qc.gates + (("X", 0),))
        assert not circuits.full_encoder_check(code, q1, bad).ok
        # a nesting claim in the wrong direction must be rejected
        ok, cert = classical.nesting_check(classical.reed_muller(2, 4),
                                           classical.reed_muller(1, 4))
        assert not ok
        assert any(not good for _, _, good in cert)
