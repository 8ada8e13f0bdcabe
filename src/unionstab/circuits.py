"""Encoder circuits, reversible synthesis, and dense verification.

Inverse encoders for union stabilizer codes come in two layers: a
Clifford circuit that conjugates the stabilizer to single-qubit Z
operators (turning translations into X-patterns on the label qubits),
followed by a classical reversible circuit over {X, CNOT, CCX} that
maps the coset labels to counting order.  Dense simulation up to 12
qubits backs Knill-Laflamme and end-to-end encoder checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gf2, reversible
from .errors import (
    BadParams,
    CollisionAfterReduction,
    ConstructionMismatch,
    NonCliffordGate,
    TooManyQubits,
)
from .pauli import PauliVector, pauli_str
from .stab import StabilizerCode, _xz_rows
from .unioncode import UnionStabilizerCode

__all__ = [
    "Circuit",
    "KLReport",
    "EncoderReport",
    "conjugate",
    "synth_q1",
    "canonicalize_translations",
    "align_labels",
    "synth_qc",
    "synth_qc_any_order",
    "simulate",
    "apply_pauli",
    "code_basis",
    "kl_verify",
    "full_encoder_check",
    "format_circuit",
    "parse_circuit",
]

_GATE_ARITY = {"H": 1, "P": 1, "X": 1, "Z": 1, "CNOT": 2, "CZ": 2, "CCX": 3}
_CLIFFORD = ("H", "P", "X", "Z", "CNOT", "CZ")
MAX_SIM_QUBITS = 12


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; gates apply leftmost first, qubits 0-indexed."""

    n: int
    gates: tuple = ()

    def __post_init__(self):
        for g in self.gates:
            name, qubits = g[0], g[1:]
            if name not in _GATE_ARITY or len(qubits) != _GATE_ARITY[name]:
                raise BadParams(f"malformed gate {g!r}")
            if len(set(qubits)) != len(qubits):
                raise BadParams(f"repeated qubit in gate {g!r}")
            if not all(0 <= q < self.n for q in qubits):
                raise BadParams(f"qubit out of range in gate {g!r}")

    def __len__(self) -> int:
        return len(self.gates)


# ---------------------------------------------------------------------------
# Clifford conjugation on binary symplectic rows with sign tracking

def _gate_on_rows(x: np.ndarray, z: np.ndarray, signs: np.ndarray,
                  gate: tuple) -> None:
    """Applies U . U^dagger in place to rows (x|z) of Hermitian Paulis."""
    name = gate[0]
    if name == "H":
        q = gate[1]
        signs *= 1 - 2 * (x[:, q] & z[:, q]).astype(np.int64)
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif name == "P":
        q = gate[1]
        signs *= 1 - 2 * (x[:, q] & z[:, q]).astype(np.int64)
        z[:, q] ^= x[:, q]
    elif name == "X":
        q = gate[1]
        signs *= 1 - 2 * z[:, q].astype(np.int64)
    elif name == "Z":
        q = gate[1]
        signs *= 1 - 2 * x[:, q].astype(np.int64)
    elif name == "CNOT":
        c, t = gate[1], gate[2]
        signs *= 1 - 2 * (x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
                          ).astype(np.int64)
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif name == "CZ":
        a, b = gate[1], gate[2]
        signs *= 1 - 2 * (x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
                          ).astype(np.int64)
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    else:
        raise NonCliffordGate(f"cannot conjugate through {name}")


def _conjugate_all(circ: Circuit, ps) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """(x, z, signs) of U p U^dagger for every Pauli p of ps, one row each,
    in one pass over the gates."""
    rows = _xz_rows(circ.n, ps)
    x, z = rows[:, :circ.n], rows[:, circ.n:]
    signs = np.array([p.sign for p in ps], dtype=np.int64)
    for gate in circ.gates:
        _gate_on_rows(x, z, signs, gate)
    return x, z, signs


def conjugate(circ: Circuit, p: PauliVector) -> PauliVector:
    """Returns U p U^dagger for the Clifford circuit U, sign included."""
    x, z, signs = _conjugate_all(circ, [p])
    return PauliVector(x=x[0], z=z[0], sign=int(signs[0]))


# ---------------------------------------------------------------------------
# Inverse-encoder Clifford synthesis

class _Tableau:
    def __init__(self, ps: list[PauliVector], n: int):
        # the empty circuit: the rows (x|z) and signs of ps as they are
        self.x, self.z, self.signs = _conjugate_all(Circuit(n=n), ps)
        self.gates: list[tuple] = []

    def apply(self, *gates: tuple) -> None:
        for g in gates:
            _gate_on_rows(self.x, self.z, self.signs, g)
            self.gates.append(g)

    def swap(self, a: int, b: int) -> None:
        if a != b:
            self.apply(("CNOT", a, b), ("CNOT", b, a), ("CNOT", a, b))


def _clear_row_to_x(tab: _Tableau, row: int, q: int, n: int, r: int) -> None:
    """Gate moves turning tableau row into X on qubit q (Z-junk below r)."""
    supp_x = [c for c in range(q, n) if tab.x[row, c]]
    supp_z = [c for c in range(q, n) if tab.z[row, c]]
    if not supp_x and not supp_z:
        raise ConstructionMismatch(
            f"tableau row {row} has no support left on qubits {q}..{n - 1}")
    if supp_x:
        pivot = supp_x[0]
    else:
        pivot = supp_z[0]
        tab.apply(("H", pivot))
    tab.swap(q, pivot)
    for c in range(q + 1, n):
        if tab.z[row, c]:
            tab.apply(("CZ", q, c))
        if tab.x[row, c]:
            tab.apply(("CNOT", q, c))
    if tab.z[row, q]:
        tab.apply(("P", q))


def synth_q1(code: StabilizerCode) -> Circuit:
    """Clifford circuit conjugating the stabilizer to Z_1..Z_(n-k).

    Symplectic Gaussian elimination: generator i becomes +Z on qubit i,
    logical X/Z pairs become single-qubit X/Z on the last k qubits, with
    a trailing Pauli layer fixing all signs to +1.
    """
    n, k, r = code.n, code.k, code.n - code.k
    # stabilizer rows, then logical X, then logical Z, signs included
    tab = _Tableau([*code.stab, *code.logical_x, *code.logical_z], n)

    for i in range(r):
        _clear_row_to_x(tab, i, i, n, r)
        tab.apply(("H", i))
        for j in range(i):
            if tab.z[i, j]:
                tab.apply(("CNOT", j, i))

    for a in range(k):
        q = r + a
        xrow, zrow = r + a, r + k + a
        _clear_row_to_x(tab, xrow, q, n, r)
        for j in range(r):
            if tab.z[xrow, j]:
                tab.apply(("CZ", j, q))
        # paired logical Z -> Z on the same qubit
        if tab.x[zrow, q]:
            tab.apply(("H", q), ("P", q), ("H", q))
        for c in range(q + 1, n):
            if tab.x[zrow, c] and tab.z[zrow, c]:
                tab.apply(("P", c))
            if tab.x[zrow, c]:
                tab.apply(("H", c))
            if tab.z[zrow, c]:
                tab.apply(("CNOT", c, q))
        for j in range(r):
            if tab.z[zrow, j]:
                tab.apply(("CNOT", j, q))

    for i in range(r):
        if tab.signs[i] < 0:
            tab.apply(("X", i))
    for a in range(k):
        if tab.signs[r + a] < 0:
            tab.apply(("Z", r + a))
        if tab.signs[r + k + a] < 0:
            tab.apply(("X", r + a))

    # verify the target pattern before returning
    for i in range(r):
        if not (tab.signs[i] == 1 and not tab.x[i].any()
                and tab.z[i].sum() == 1 and tab.z[i, i] == 1):
            raise ConstructionMismatch(f"stabilizer row {i} not reduced to +Z")
    for a in range(k):
        if not (tab.x[r + a].sum() == 1 and tab.x[r + a, r + a] == 1
                and not tab.z[r + a].any()):
            raise ConstructionMismatch(f"logical X {a} not reduced")
        if not (tab.z[r + k + a].sum() == 1 and tab.z[r + k + a, r + a] == 1
                and not tab.x[r + k + a].any()):
            raise ConstructionMismatch(f"logical Z {a} not reduced")
    return Circuit(n=n, gates=tuple(tab.gates))


def canonicalize_translations(code: UnionStabilizerCode,
                              q1: Circuit) -> list[str]:
    """Coset labels: X-pattern of each translation after conjugation by q1.

    All translations are conjugated together, one row each.  They are
    reduced modulo the trivial code's normalizer — Z-parts and X on the
    last k logical qubits are dropped — leaving one (n-k)-bit string per
    translation, the identity first.
    """
    r = code.base.n - code.base.k
    x = _conjugate_all(q1, code.translations)[0]
    labels = ["".join(map(str, row)) for row in x[:, :r].tolist()]
    if len(set(labels)) != len(labels):
        raise CollisionAfterReduction(
            "translations reduced to identical labels")
    return labels


def align_labels(code: UnionStabilizerCode, q1: Circuit,
                 targets: list[str]) -> Circuit:
    """Extends q1 with a CNOT layer mapping coset labels to given targets.

    CNOTs among the label qubits act as an invertible linear map on the
    X-patterns while keeping the stabilizer inside the single-qubit Z
    group, so the extended circuit still trivializes the code.  The i-th
    translation's label is sent to targets[i]; the identity must map to
    the zero string.
    """
    raw = canonicalize_translations(code, q1)
    if len(targets) != len(raw):
        raise BadParams("one target label per translation required")
    r = len(raw[0])
    pairs = [(s, t) for s, t in zip(raw, targets) if int(s, 2)]
    for s, t in zip(raw, targets):
        if not int(s, 2) and int(t, 2):
            raise BadParams("the identity translation must map to zero")
    L = np.array([[int(c) for c in s] for s, _ in pairs], np.uint8)
    P = np.array([[int(c) for c in t] for _, t in pairs], np.uint8)
    if gf2.rank(L) != r:
        raise BadParams("raw labels do not span the label space")
    m = gf2.solve(L, P)
    if m is None:
        raise BadParams("target labels are not a linear image of raw ones")
    if gf2.rank(m) != r:
        raise BadParams("label map is singular")
    # decompose m into elementary row additions = CNOT gates
    gates = []
    work = m.copy()
    for j in range(r):
        if not work[j, j]:
            i = next(i for i in range(j + 1, r) if work[i, j])
            work[j] ^= work[i]
            gates.append(("CNOT", j, i))
        for i in range(r):
            if i != j and work[i, j]:
                work[i] ^= work[j]
                gates.append(("CNOT", i, j))
    bad = np.flatnonzero((work != np.eye(r, dtype=np.uint8)).any(axis=1))
    if bad.size:
        raise ConstructionMismatch(
            f"CNOT layer leaves label row {bad[0]} unreduced")
    aligned = Circuit(n=q1.n, gates=q1.gates + tuple(gates))
    got = canonicalize_translations(code, aligned)
    for i, (label, target) in enumerate(zip(got, targets)):
        if label != target:
            raise ConstructionMismatch(
                f"translation {i} aligned to {label}, not {target}")
    return aligned


# ---------------------------------------------------------------------------
# Reversible synthesis over {X, CNOT, CCX}

def synth_qc(inputs: list[str], gate_set: tuple = ("X", "CNOT", "CCX"),
             max_gates: int = 10, cap: int = gf2.DEFAULT_CAP) -> Circuit:
    """Minimum-gate reversible circuit mapping input i to binary(i).

    Runs the meet-in-the-middle search of reversible._search with the
    identity canonicaliser.  Among minimum-gate circuits it returns the
    lexicographically smallest gate sequence, gates compared as tuples.
    A max_gates close to the optimum is what bounds the search: levels
    within w gates of it keep only the states whose plane bound leaves
    room for a circuit of max_gates gates.  Raises NotFound when none
    exists, and CapExceeded before a level expansion or a search key
    table would hold more than cap words.
    """
    gates, _ = reversible._search(inputs, gate_set, max_gates,
                                  any_order=False, cap=cap)
    return Circuit(n=len(inputs[0]), gates=tuple(gates))


def synth_qc_any_order(inputs: list[str],
                       gate_set: tuple = ("X", "CNOT", "CCX"),
                       max_gates: int = 10,
                       cap: int = gf2.DEFAULT_CAP) -> tuple[Circuit, tuple]:
    """Minimum-gate circuit over all input-to-index assignments.

    Any bijection of the inputs onto 0..K-1 is allowed, the all-zero
    input, if present, staying at index 0.  Gates commute with
    permutations of the packed fields, so one search runs modulo them:
    the canonicaliser sorts all fields, or all but field 0 holding the
    all-zero input.  Returns the lexicographically smallest minimum-gate
    circuit over all admissible orderings, and the ordering, recovered
    by running the circuit on the inputs: the permuted input list such
    that input i maps to binary(i).  K is bounded only by K*w <= 64, and
    memory by cap as in synth_qc.  As there, a max_gates close to the
    optimum is what bounds the search; the plane bound compares
    popcounts, which permuting the fields keeps.
    """
    gates, order = reversible._search(inputs, gate_set, max_gates,
                                      any_order=True, cap=cap)
    return Circuit(n=len(inputs[0]), gates=tuple(gates)), order


# ---------------------------------------------------------------------------
# Dense simulation

def _check_size(n: int) -> None:
    if n > MAX_SIM_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the {MAX_SIM_QUBITS} cap")


def simulate(circ: Circuit, state: np.ndarray) -> np.ndarray:
    """Applies the circuit to a statevector (qubit 0 = leftmost bit).

    state is one vector of length 2^n or a block of shape (2^n, B), one
    statevector per column; every gate acts on all columns at once and
    the result has the shape of state.
    """
    n = circ.n
    _check_size(n)
    if state.shape[:1] != (1 << n,) or state.ndim > 2:
        raise BadParams("statevector length mismatch")
    # a fresh array, so every gate may act on it in place
    t = state.astype(np.complex128).reshape((2,) * n + state.shape[1:])

    def at(*fixed):  # index setting the given qubit axes to 1
        idx = [slice(None)] * n
        for q in fixed:
            idx[q] = 1
        return tuple(idx)
    for gate in circ.gates:
        name = gate[0]
        if name == "H":
            a, b = np.moveaxis(t, gate[1], 0)  # views of the two halves
            a0 = a.copy()
            a += b
            np.subtract(a0, b, out=b)
            t /= math.sqrt(2)
        elif name == "P":
            t[at(gate[1])] *= 1j
        elif name == "X":
            t = np.flip(t, axis=gate[1])
        elif name == "Z":
            t[at(gate[1])] *= -1
        elif name == "CNOT":
            c, q = gate[1], gate[2]
            t[at(c)] = np.flip(t[at(c)], axis=q - (q > c))
        elif name == "CZ":
            t[at(gate[1], gate[2])] *= -1
        elif name == "CCX":
            c1, c2, q = gate[1], gate[2], gate[3]
            axis = q - (q > c1) - (q > c2)
            t[at(c1, c2)] = np.flip(t[at(c1, c2)], axis=axis)
    return t.reshape(state.shape)


def apply_pauli(p: PauliVector, state: np.ndarray) -> np.ndarray:
    """Applies the Hermitian Pauli to a statevector.

    state is one vector of length 2^n or a block of shape (2^n, B), one
    statevector per column, all mapped at once.
    """
    n = p.x.shape[0]
    _check_size(n)
    shifts = np.arange(n - 1, -1, -1)
    xint = int((p.x.astype(np.int64) << shifts).sum())
    zint = int((p.z.astype(np.int64) << shifts).sum())
    idx = np.arange(1 << n)
    zsign = np.where(np.bitwise_count(idx & zint) & 1, -1, 1)
    phase = p.sign * (1j ** int((p.x & p.z).sum())) * zsign
    return (phase.reshape((-1,) + (1,) * (state.ndim - 1)) * state)[idx ^ xint]


def code_basis(code: UnionStabilizerCode) -> list[np.ndarray]:
    """Orthonormal basis: translated projections of computational states.

    The first computational state with a nonzero projection onto the +1
    eigenspace of the stabilizer and of every logical Z is the logical
    zero.  State (i << k) | j is translation i applied to the logical
    state j, the logical X of every 1 of j applied to the logical zero;
    each translation maps all 2^k logical states as one block.
    """
    base = code.base
    n, k = base.n, base.k
    if n > 10:
        raise TooManyQubits(f"{n} qubits exceeds the basis-building cap")
    dim = 1 << n
    root = None
    for seed in range(dim):
        v = np.zeros(dim, dtype=np.complex128)
        v[seed] = 1.0
        for s in (*base.stab, *base.logical_z):
            v = (v + apply_pauli(s, v)) / 2
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            root = v / norm
            break
    if root is None:
        raise ConstructionMismatch(
            "stabilizer projects every computational state to zero")
    core = []
    for j in range(1 << k):
        v = root
        for a in range(k):
            if (j >> (k - 1 - a)) & 1:
                v = apply_pauli(base.logical_x[a], v)
        core.append(v)
    core = np.array(core).T
    mat = np.concatenate([apply_pauli(t, core).T for t in code.translations])
    gram = mat.conj() @ mat.T
    bad = ~np.isclose(gram, np.eye(len(mat)), atol=1e-9)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConstructionMismatch(
            f"translated basis is not orthonormal: <{i}|{j}> = {gram[i, j]:.3g}")
    return list(mat)


@dataclass(frozen=True)
class KLReport:
    ok: bool
    worst_deviation: float
    num_checked: int
    violations: list = field(default_factory=list)


def kl_verify(states: list[np.ndarray], d: int) -> KLReport:
    """Knill-Laflamme check: <a|E|b> = lambda_E * I for all wgt(E) < d.

    Each Pauli E maps all states at once, as one (2^n, K) block.
    """
    K = len(states)
    n = int(round(math.log2(states[0].shape[0])))
    mat = np.array(states)
    bra = mat.conj()
    worst = 0.0
    violations = []
    checked = 0
    for p in _paulis_up_to_weight(n, d - 1):
        m = bra @ apply_pauli(p, mat.T)
        lam = np.trace(m) / K
        dev = float(np.abs(m - lam * np.eye(K)).max())
        worst = max(worst, dev)
        checked += 1
        if dev > 1e-8:
            violations.append(pauli_str(p))
    return KLReport(ok=not violations, worst_deviation=worst,
                    num_checked=checked, violations=violations[:16])


def _paulis_up_to_weight(n: int, wmax: int):
    letters = ((1, 0), (0, 1), (1, 1))  # X, Z, Y as (x, z)
    for w in range(1, wmax + 1):
        for pos in itertools.combinations(range(n), w):
            for combo in itertools.product(letters, repeat=w):
                x = np.zeros(n, dtype=np.uint8)
                z = np.zeros(n, dtype=np.uint8)
                for q, (xb, zb) in zip(pos, combo):
                    x[q], z[q] = xb, zb
                yield PauliVector(x=x, z=z)


@dataclass(frozen=True)
class EncoderReport:
    ok: bool
    worst_overlap: float
    mismatches: list = field(default_factory=list)


def full_encoder_check(code: UnionStabilizerCode, q1: Circuit, qc: Circuit,
                       basis: list[np.ndarray] | None = None) -> EncoderReport:
    """Checks q1 then qc maps basis state i to |0..0 binary(i)> (phase-free).

    qc acts on the first n-k label qubits.  Basis state (t << k) | j, the
    t-th translation applied to logical state j, must land on label t and
    logical state j, up to the logical X that q1 leaves on translation t:
    q1 t q1^dagger flips logical qubit a when its X part holds qubit
    n-k+a.  Both circuits run once, on all basis states as one block.
    basis, if given, is code_basis(code), computed once by the caller.
    """
    n, k = code.base.n, code.base.k
    x = _conjugate_all(q1, code.translations)[0]
    flips = x[:, n - k:] @ (1 << np.arange(k - 1, -1, -1))
    block = np.array(code_basis(code) if basis is None else basis).T
    out = simulate(Circuit(n=n, gates=qc.gates), simulate(q1, block))
    i = np.arange(block.shape[1])
    overlaps = np.abs(out[i ^ flips[i >> k], i])
    worst = min(1.0, overlaps.min())
    mismatches = [(j, overlaps[j])
                  for j in np.flatnonzero(overlaps < 1 - 1e-8).tolist()]
    return EncoderReport(ok=not mismatches, worst_overlap=worst,
                         mismatches=mismatches)


# ---------------------------------------------------------------------------
# Circuit text format

def format_circuit(circ: Circuit) -> str:
    lines = [f"# circuit on {circ.n} qubits"]
    for g in circ.gates:
        lines.append(" ".join([g[0]] + [str(q + 1) for q in g[1:]]))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, n: int) -> Circuit:
    gates = []
    for ln in text.splitlines():
        ln = ln.split("#")[0].strip()
        if not ln:
            continue
        parts = ln.split()
        name = parts[0].upper()
        if name not in _GATE_ARITY:
            raise BadParams(f"unknown gate {name!r}")
        qubits = tuple(int(p) - 1 for p in parts[1:])
        gates.append((name,) + qubits)
    return Circuit(n=n, gates=tuple(gates))
