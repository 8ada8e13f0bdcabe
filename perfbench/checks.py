"""Output checks that run after the clock stops.

Each check returns a list of failure messages (empty when the output is
right).  They compare against independent routes, known answers from the
paper, or properties every correct output has; none holds a stored copy of
a previous run's output.  ``selftest.py`` shows that each one rejects a
corrupted output.
"""
from __future__ import annotations

import math

import numpy as np

_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


# ---------------------------------------------------------------------------
# encode

def simulate_bits(gates, label: str) -> str:
    """Runs X / CNOT / CCX gates on a bit string; qubit 0 is the leftmost."""
    bits = [int(c) for c in label]
    for gate in gates:
        kind, qs = gate[0], gate[1:]
        if kind == "X":
            bits[qs[0]] ^= 1
        elif kind == "CNOT":
            bits[qs[1]] ^= bits[qs[0]]
        elif kind == "CCX":
            bits[qs[2]] ^= bits[qs[0]] & bits[qs[1]]
        else:
            raise ValueError(f"gate {kind} is not reversible-classical")
    return "".join(map(str, bits))


def check_counting_order(gates, labels: list[str], order) -> list[str]:
    """The i-th label of the order must be sent to binary(i)."""
    w = len(labels[0])
    errs = []
    for i, j in enumerate(order):
        got = simulate_bits(gates, labels[j])
        want = format(i, f"0{w}b")
        if got != want:
            errs.append(f"label {labels[j]} (index {i}) -> {got}, want {want}")
    return errs


def check_encode(out: dict) -> list[str]:
    errs = []
    labels = out["labels"]
    if labels != out["target_labels"]:
        errs.append(f"aligned labels {labels} != {out['target_labels']}")
    if len(out["fixed"]) != 8:
        errs.append(f"fixed-order circuit has {len(out['fixed'])} gates, not 8")
    if len(out["qc"]) != 7:
        errs.append(f"any-order circuit has {len(out['qc'])} gates, not 7")
    if sorted(out["order"]) != list(range(len(labels))):
        errs.append(f"order {out['order']} is not a permutation")
    else:
        errs += ["fixed: " + e for e in check_counting_order(
            out["fixed"].gates, labels, range(len(labels)))]
        errs += ["any-order: " + e for e in check_counting_order(
            out["qc"].gates, labels, out["order"])]
    enc = out["encoder"]
    if not (enc.ok and enc.worst_overlap > 1 - 1e-8):
        errs.append(f"encoder check ok={enc.ok} worst={enc.worst_overlap}")
    kl = out["kl"]
    if not (kl.ok and kl.num_checked == 15):
        errs.append(f"KL ok={kl.ok} after {kl.num_checked} Paulis (want 15)")
    return errs


# ---------------------------------------------------------------------------
# certify

def lee_distribution(swe) -> list[int]:
    """Lee-weight distribution summed from a symmetrized enumerator."""
    dist = [0] * (2 * swe.n4 + 1)
    for (ones, twos), c in swe.coeffs.items():
        dist[ones + 2 * twos] += c
    return dist


def binary_macwilliams(dist: list[int]) -> list[int]:
    """|C| times the MacWilliams transform, in exact integers."""
    n = len(dist) - 1
    out = []
    for j in range(n + 1):
        acc = 0
        for w, a in enumerate(dist):
            if a:
                acc += a * sum((-1) ** s * math.comb(w, s)
                               * math.comb(n - w, j - s)
                               for s in range(max(0, j - n + w),
                                              min(w, j) + 1))
        out.append(acc)
    return out


def check_coset_union_distribution(dist: list[int], size: int,
                                   min_d: int) -> list[str]:
    """Properties every union of cosets of RM(3,6) with distance min_d has."""
    n = len(dist) - 1
    errs = []
    if sum(dist) != size:
        errs.append(f"distribution sums to {sum(dist)}, want {size}")
    if dist[0] != 1:
        errs.append(f"A_0 = {dist[0]}, want 1")
    bad = [w for w in range(1, n + 1) if dist[w] and (w % 2 or w < min_d)]
    if bad:
        errs.append(f"nonzero A_w at odd or sub-distance weights {bad}")
    asym = [w for w in range(n + 1) if dist[w] != dist[n - w]]
    if asym:
        errs.append(f"A_w != A_(n-w) at {asym}")
    neg = [j for j, b in enumerate(binary_macwilliams(dist)) if b < 0]
    if neg:
        errs.append(f"MacWilliams transform negative at {neg}")
    return errs


def check_certify(out: dict) -> list[str]:
    errs = []
    goe_lee = lee_distribution(out["goethals_dual_swe"])
    if out["goethals_dist"] != goe_lee:
        diff = [w for w, (a, b) in enumerate(zip(out["goethals_dist"], goe_lee))
                if a != b]
        errs.append(f"Goethals binary and Z4 distributions differ at {diff}")
    errs += ["goethals: " + e for e in check_coset_union_distribution(
        out["goethals_dist"], 32 << 42, 8)]
    for name, swe, want in (("kerdock", out["kerdock_swe"], 28),
                            ("preparata", out["kerdock_dual_swe"], 6),
                            ("goethals", out["goethals_dual_swe"], 8)):
        got = swe.min_nonzero_lee_weight()
        if got != want:
            errs.append(f"{name} minimum Lee weight {got}, want {want}")
    p = out["union"].params
    if (p.n, p.log2_dim, p.d) != (64, 30, 8):
        errs.append(f"union is ({p.n}, {p.log2_dim}, {p.d}), want (64, 30, 8)")
    enl = out["enlarged"]
    if (enl.n, enl.k) != (64, 35):
        errs.append(f"enlarged code is ({enl.n}, {enl.k}), want (64, 35)")
    if out["weight_floor"] < 4:
        errs.append(f"enlargement weight floor {out['weight_floor']} < 4")
    k = out["sub_cosets"]
    errs += ["preparata sub-union: " + e for e in check_coset_union_distribution(
        out["sub_dist"], k << 42, 6)]
    return errs


# ---------------------------------------------------------------------------
# search

def parse_report(text: str) -> dict[str, str]:
    rows = {}
    for ln in text.splitlines():
        key, sep, val = ln.partition(": ")
        if sep:
            rows[key] = val
    return rows


def leader_weights(gens: list[str]) -> np.ndarray:
    """Minimum Pauli weight per stabilizer syndrome, by a full 4^n scan.

    Syndrome bit i (most significant first) is the commutation of the
    Pauli with generator i, as in the search graph's vertex labels.
    """
    n, r = len(gens[0].lstrip("+-")), len(gens)
    sx = np.array([[_PAULI_BITS[c][0] for c in g.lstrip("+-")] for g in gens])
    sz = np.array([[_PAULI_BITS[c][1] for c in g.lstrip("+-")] for g in gens])
    idx = np.arange(4 ** n, dtype=np.int64)
    x = (idx[:, None] >> np.arange(n)) & 1
    z = (idx[:, None] >> np.arange(n, 2 * n)) & 1
    syn = ((x @ sz.T + z @ sx.T) % 2) @ (1 << np.arange(r - 1, -1, -1))
    leaders = np.full(1 << r, 2 * n + 1, dtype=np.int64)
    np.minimum.at(leaders, syn, (x | z).sum(axis=1))
    return leaders


def check_clique(vertices: list[str], leaders: np.ndarray, d: int) -> list[str]:
    """Every pair of cosets in the clique must be at distance at least d."""
    errs = []
    if not vertices or int(vertices[0], 2) != 0:
        errs.append("clique does not start at the identity coset")
    ids = [int(v, 2) for v in vertices]
    if len(set(ids)) != len(ids):
        errs.append("clique repeats a vertex")
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if leaders[ids[a] ^ ids[b]] < d:
                errs.append(f"cosets {vertices[a]} and {vertices[b]} are "
                            f"at distance {leaders[ids[a] ^ ids[b]]} < {d}")
    return errs


def check_search_base(rec: dict) -> list[str]:
    """Checks one base's search and verify invocations."""
    errs = []
    d = rec["d"]
    if rec["search_rc"] != 0 or rec["verify_rc"] != 0:
        return [f"exit codes search={rec['search_rc']} "
                f"verify={rec['verify_rc']}"]
    s, v = rec["search_report"], rec["verify_report"]
    size = int(s["clique.size"])
    if s.get("clique.optimal") != "True":
        errs.append("exact search did not report clique.optimal: True")
    if rec.get("expect_size") is not None and size != rec["expect_size"]:
        errs.append(f"clique size {size}, want {rec['expect_size']}")
    if size < rec["greedy_size"]:
        errs.append(f"exact clique {size} < greedy clique {rec['greedy_size']}")
    vertices = s["clique.vertices"].split()
    if len(vertices) != size:
        errs.append(f"{len(vertices)} vertices listed for size {size}")
    errs += check_clique(vertices, rec["leaders"], d)
    if v.get("cosets.distinct") != "True":
        errs.append("verify did not report cosets.distinct: True")
    if int(v.get("distance.exact", -1)) < d:
        errs.append(f"distance.exact {v.get('distance.exact')} < {d}")
    if not rec["kl_ok"]:
        errs.append(f"dense Knill-Laflamme check failed at d = {d}")
    return errs
