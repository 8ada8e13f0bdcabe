"""One round of one workload, in the interpreter that runs this file.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1
                                  [--setup-only]

Set-up (importing unionstab and generating the inputs from the seed) is
timed first; then the workload's operations run between two clock reads;
then the outputs are checked.  The last line of standard output is one
JSON object: setup_s, wall_s, cpu_s, peak_rss_mb, attempted, failed,
correct, check_errors, known_faults, and with --trace 1 the per-layer
metrics.  run.py starts this
file in a fresh interpreter per round, with PYTHONPATH pointing at the
checkout's src/.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

OUT_DIR = ".perfbench_out"

# ((5, 6, 2)) code of demos/encoder_synthesis.py
FIVE_STABILIZER = ["XXXXX", "XXZIZ", "XZIZX", "YIYZZ", "YZZYI"]
FIVE_TRANSLATIONS = ["IIIII", "IIZZX", "IIIXX", "IIIZY", "IIZYY", "IIZXZ"]
FIVE_LABELS = ["00000", "01010", "11011", "01111", "11100", "10010"]

RING = ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]
# generator seeds of the random graph states: (qubits, d, seeds)
GRAPH_STATES = [(7, 2, (0,)), (8, 3, (0, 1, 2))]
EDGE_PROBABILITY = 0.5
SUB_UNION_COSETS = 128


class Round:
    """Counts operations; an exception aborts the round."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.known_faults: list[str] = []

    def call(self, fn, *args, region: str = "", **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.region = region
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: "
                               f"{type(e).__name__}: {e}")
            raise

    def cli(self, argv: list[str], expect: dict | None = None,
            known_fault: bool = False) -> tuple[int, dict]:
        """Runs unionstab.cli.main in-process and parses its report.

        The call fails if it exits non-zero or its report lacks a row of
        expect.  A failure of a call marked known_fault is counted but
        kept apart from the errors that make a round incorrect.
        """
        from unionstab import cli
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = self.call(cli.main, argv)
            except SystemExit as e:  # argparse rejected the arguments
                rc = e.code
        report = checks.parse_report(buf.getvalue())
        missing = {k: v for k, v in (expect or {}).items()
                   if report.get(k) != v}
        if rc != 0 or missing:
            self.failed += 1
            log = self.known_faults if known_fault else self.errors
            log.append(f"unionstab {' '.join(argv)}: exit {rc}: "
                       f"{err.getvalue().strip()}"
                       + (f"; report lacks {missing}" if missing else ""))
        return rc, report


# ---------------------------------------------------------------------------
# encode

def encode_inputs(seed: int) -> dict:
    """The ((5, 6, 2)) code with seeded coset representatives.

    The seed picks a representative for each translation: the
    translation times a random element of the stabilizer (phase
    dropped).  The code and its coset labels are unchanged, so the work
    does not depend on the seed.  The generating set stays the paper's:
    align_labels fails on most other generating sets (see CHANGES.md).
    """
    import numpy as np
    from unionstab import pauli, stab, unioncode
    rng = np.random.default_rng(seed)
    gens = [pauli.pauli_parse(s) for s in FIVE_STABILIZER]
    r = len(gens)
    base = stab.stabilizer_from_generators(gens)
    ts = []
    for s in FIVE_TRANSLATIONS:
        t = pauli.pauli_parse(s)
        for j in np.flatnonzero(rng.integers(0, 2, r)):
            t = pauli.PauliVector(x=t.x ^ gens[j].x, z=t.z ^ gens[j].z)
        ts.append(t)
    return {"base": base, "code": unioncode.union_code(base, ts)}


def encode_run(inp: dict, rnd: Round) -> dict:
    from unionstab import circuits, unioncode
    base, code = inp["base"], inp["code"]
    q1 = rnd.call(circuits.synth_q1, base)
    aligned = rnd.call(circuits.align_labels, code, q1, FIVE_LABELS)
    labels = rnd.call(circuits.canonicalize_translations, code, aligned)
    fixed = rnd.call(circuits.synth_qc, labels, max_gates=8)
    qc, order = rnd.call(circuits.synth_qc_any_order, labels, max_gates=7)
    reordered = unioncode.union_code(
        base, [code.translations[i] for i in order])
    enc = rnd.call(circuits.full_encoder_check, reordered, aligned, qc)
    states = rnd.call(circuits.code_basis, reordered)
    kl = rnd.call(circuits.kl_verify, states, 2)
    return {"labels": labels, "target_labels": FIVE_LABELS, "fixed": fixed,
            "qc": qc, "order": order, "encoder": enc, "kl": kl}


def encode_check(inp: dict, out: dict, seed: int) -> list[str]:
    return checks.check_encode(out)


# ---------------------------------------------------------------------------
# certify

def certify_inputs(seed: int) -> dict:
    """A seeded sub-union of the Preparata(6) cosets, zero coset included.

    The size is fixed at 128: every coset of RM(3,6) inside RM(4,6)
    other than RM(3,6) itself has weight counts divisible by 2^6, so any
    128 of the 1024 cosets give an integral distance distribution.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    rest = rng.choice(np.arange(1, 1024), SUB_UNION_COSETS - 1, replace=False)
    return {"sub_index": np.concatenate([[0], np.sort(rest)])}


def certify_run(inp: dict, rnd: Round) -> dict:
    from unionstab import classical, stab, unioncode, z4
    goe = rnd.call(classical.goethals_binary, 6)
    d_goe, goe_dist = rnd.call(classical.distance_enumerator, goe,
                               region="goethals6")
    union = rnd.call(unioncode.css_like_union, goe.base, goe.base,
                     goe.translations, goe.translations, d=d_goe)
    prep = rnd.call(classical.preparata_like, 6)
    sub = classical.CosetCode(base=prep.base,
                              translations=prep.translations[inp["sub_index"]])
    _, sub_dist = rnd.call(classical.distance_enumerator, sub,
                           region="preparata6_sub")
    ctx = rnd.call(z4.gr4_build, 5)
    kerdock = rnd.call(z4.kerdock_z4, ctx)
    kswe = rnd.call(z4.lee_swe, kerdock)
    kdual = rnd.call(z4.swe_macwilliams, kswe, kerdock.size, kerdock.n4)
    gz = rnd.call(z4.goethals_z4, ctx)
    gd = rnd.call(z4.z4_dual, gz)
    gswe = rnd.call(z4.lee_swe, gd)
    gdual = rnd.call(z4.swe_macwilliams, gswe, gd.size, gd.n4)
    rm36 = rnd.call(classical.reed_muller, 3, 6)
    rm46 = rnd.call(classical.reed_muller, 4, 6)
    enlarged = rnd.call(stab.enlarge_css, rm36, rm46)
    floor = rnd.call(stab.enlargement_weight_check, rm36, rm46)
    return {"goethals_dist": list(goe_dist), "union": union,
            "sub_dist": list(sub_dist), "sub_cosets": sub.num_cosets,
            "kerdock_swe": kswe, "kerdock_dual_swe": kdual,
            "goethals_dual_swe": gdual, "enlarged": enlarged,
            "weight_floor": floor}


def certify_check(inp: dict, out: dict, seed: int) -> list[str]:
    return checks.check_certify(out)


# ---------------------------------------------------------------------------
# search

def graph_state(n: int, rng) -> list[str]:
    """Generators X_v Z_N(v) of a random graph state, edges with p = 1/2."""
    import numpy as np
    a = np.triu(rng.random((n, n)) < EDGE_PROBABILITY, 1)
    a = a | a.T
    return ["".join("X" if u == v else ("Z" if a[v, u] else "I")
                    for u in range(n)) for v in range(n)]


def search_inputs(seed: int) -> dict:
    """Base stabilizer files for the searches, written under OUT_DIR.

    Graph shapes come from fixed generator seeds: exact clique search
    cost varies by a factor of four between random 7-qubit graphs, and by
    half between relabelings of one graph.  The run seed picks the sign
    of every generator and a qubit relabeling of each 8-qubit graph,
    which change the code but not the amount of work.
    """
    import numpy as np
    from unionstab import pauli, stab
    rng = np.random.default_rng(seed)
    work = Path(OUT_DIR) / f"search-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bases = [("ring", RING, 2, 6), ("ring", RING, 3, 2)]
    draws = {}
    for n, d, gen_seeds in GRAPH_STATES:
        for gs in gen_seeds:
            grng = np.random.default_rng(gs)
            tries = 0
            while True:
                tries += 1
                gens = graph_state(n, grng)
                code = stab.stabilizer_from_generators(
                    [pauli.pauli_parse(g) for g in gens])
                if stab.purity_and_distance(code).purity >= d:
                    break
            draws[f"graph{n}-{gs}"] = tries
            if n == 8:
                perm = rng.permutation(n)
                gens = ["".join(g[p] for p in perm) for g in
                        (gens[q] for q in perm)]
            bases.append((f"graph{n}-{gs}", gens, d, None))
    records = []
    for i, (name, gens, d, expect) in enumerate(bases):
        signed = [("-" if rng.integers(2) else "") + g for g in gens]
        path = work / f"base{i}.stab"
        path.write_text(f"{len(gens[0])} 0\nS\n" + "\n".join(signed) + "\n")
        records.append({"name": name, "gens": signed, "d": d,
                        "expect_size": expect, "base": str(path),
                        "out": str(work / f"found{i}.union")})
    config = work / "cap7.cfg"
    config.write_text("cap = 7\n")
    return {"work": work, "records": records, "config": str(config),
            "ring_base": records[0]["base"], "draws": draws}


def search_run(inp: dict, rnd: Round) -> dict:
    for rec in inp["records"]:
        rec["search_rc"], rec["search_report"] = rnd.cli(
            ["search", rec["base"], "--d", str(rec["d"]), "--out", rec["out"]])
        rec["verify_rc"], rec["verify_report"] = rnd.cli(
            ["verify", rec["out"], "--level", "full"])
    # known fault: the config's cap = 7 wins over --cap=4096 typed with '='
    rnd.cli(["--config", inp["config"], "search", inp["ring_base"],
             "--d", "2", "--cap=4096"], expect={"config.cap": "4096"},
            known_fault=True)
    return {"records": inp["records"]}


def search_check(inp: dict, out: dict, seed: int) -> list[str]:
    from unionstab import circuits, stab, unioncode
    errs = []
    for rec in out["records"]:
        if rec["search_rc"] == 0:
            base = stab.parse_stabilizer(Path(rec["base"]).read_text())
            graph = unioncode.build_search_graph(base, rec["d"])
            greedy = unioncode.max_clique(graph, mode="greedy", seed=seed)
            rec["greedy_size"] = greedy.size
            rec["leaders"] = checks.leader_weights(rec["gens"])
        if rec["verify_rc"] == 0:
            code = unioncode.parse_union_code(Path(rec["out"]).read_text())
            rec["kl_ok"] = circuits.kl_verify(circuits.code_basis(code),
                                              rec["d"]).ok
        errs += [f"{rec['name']} d={rec['d']}: {e}"
                 for e in checks.check_search_base(rec)]
    return errs


WORKLOADS = {
    "encode": (encode_inputs, encode_run, encode_check, 8),
    "certify": (certify_inputs, certify_run, certify_check, 17),
    "search": (search_inputs, search_run, search_check, 13),
}


def measure_round(args, inp: dict, setup_s: float) -> dict:
    """Times the operations, then checks their outputs; returns the result."""
    import unionstab
    _, run, check, planned = WORKLOADS[args.workload]
    src = Path("src").resolve()
    if not Path(unionstab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"unionstab imported from {unionstab.__file__}, "
                         f"not from {src}")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    rnd = Round(tracer)
    out = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        out = run(inp, rnd)
    except Exception:
        pass  # Round.call recorded it; the round is reported as aborted
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False
    unreached = planned - rnd.attempted
    errs = list(rnd.errors)
    if out is None:
        errs.append(f"round aborted; {unreached} operations not reached")
    else:
        try:
            errs += check(inp, out, args.seed)
        except Exception as e:  # a malformed output fails its round
            errs.append(f"check raised {type(e).__name__}: {e}")
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "attempted": planned,
              "failed": rnd.failed + unreached, "correct": not errs,
              "check_errors": errs, "known_faults": rnd.known_faults}
    if "draws" in inp:
        result["graph_draws"] = inp["draws"]
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import unionstab  # noqa: F401
    import unionstab.cli  # noqa: F401  (not imported by the package)
    inp = WORKLOADS[args.workload][0](args.seed)
    setup_s = time.perf_counter() - _T0
    try:
        result = ({"setup_s": setup_s} if args.setup_only
                  else measure_round(args, inp, setup_s))
    finally:
        if "work" in inp:
            shutil.rmtree(inp["work"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
