"""Shows that each output check accepts a real output and rejects corrupted ones.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs the encode and certify workloads and the two ring-graph searches
once (about a minute), then feeds each check the real output and copies
with one thing changed.  Exits 0 when every check accepts the real output
and rejects every corrupted copy.
"""
from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
from pathlib import Path

sys.path.insert(0, "src")

import checks  # noqa: E402
import workload  # noqa: E402
from unionstab import circuits, errors, pauli, unioncode  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, check, genuine, corrupted: dict) -> None:
    errs = check(genuine)
    if errs:
        FAILURES.append(f"{name}: real output rejected: {errs[:3]}")
    print(f"{name}: real output {'REJECTED' if errs else 'accepted'}")
    for what, bad in corrupted.items():
        errs = check(bad)
        print(f"  {what}: {'rejected' if errs else 'ACCEPTED'}"
              + (f" ({errs[0]})" if errs else ""))
        if not errs:
            FAILURES.append(f"{name}: accepted corrupted output ({what})")


def changed(out: dict, **kw) -> dict:
    bad = copy.copy(out)
    bad.update(kw)
    return bad


def encode_cases() -> None:
    inp = workload.encode_inputs(0)
    out = workload.encode_run(inp, workload.Round(None))
    qc, fixed = out["qc"], out["fixed"]
    extra_x = circuits.Circuit(n=qc.n, gates=qc.gates + (("X", 0),))
    short = circuits.Circuit(n=fixed.n, gates=fixed.gates[:-1])
    swapped = list(out["order"])
    swapped[1], swapped[2] = swapped[2], swapped[1]
    bad_kl = dataclasses.replace(out["kl"], num_checked=14)
    bad_enc = dataclasses.replace(out["encoder"], worst_overlap=0.5)
    expect("encode", checks.check_encode, out, {
        "extra X gate on the any-order circuit": changed(out, qc=extra_x),
        "fixed-order circuit missing its last gate": changed(out, fixed=short),
        "two entries of the returned order swapped": changed(
            out, order=tuple(swapped)),
        "KL report after 14 Paulis": changed(out, kl=bad_kl),
        "encoder overlap 0.5": changed(out, encoder=bad_enc),
    })


def certify_cases() -> None:
    inp = workload.certify_inputs(0)
    out = workload.certify_run(inp, workload.Round(None))
    goe = list(out["goethals_dist"])
    goe[8] += 1
    moved = list(out["sub_dist"])
    moved[6] -= 1
    moved[8] += 1
    low = list(out["sub_dist"])
    low[6] -= 1
    low[58] -= 1
    low[4] += 1
    low[60] += 1
    union = out["union"]
    wrong_union = dataclasses.replace(
        union, params=dataclasses.replace(union.params, d=6))
    kdual = copy.deepcopy(out["kerdock_dual_swe"])
    kdual.coeffs[(4, 0)] = 1
    expect("certify", checks.check_certify, out, {
        "one Goethals coefficient changed": changed(out, goethals_dist=goe),
        "sub-union A_6 moved to A_8": changed(out, sub_dist=moved),
        "sub-union weight 4 and 60 words": changed(out, sub_dist=low),
        "union claimed at distance 6": changed(out, union=wrong_union),
        "Preparata enumerator with a lighter word": changed(
            out, kerdock_dual_swe=kdual),
        "enlargement floor 3": changed(out, weight_floor=3),
    })


def search_cases() -> None:
    inp = workload.search_inputs(0)
    try:
        inp["records"] = inp["records"][:2]
        out = workload.search_run(inp, workload.Round(None))
        errs = workload.search_check(inp, out, 0)
        print(f"search (ring bases): real output "
              f"{'REJECTED' if errs else 'accepted'}")
        if errs:
            FAILURES.append(f"search: real output rejected: {errs[:3]}")
        rec = out["records"][0]
        leaders = rec["leaders"]
        verts = rec["search_report"]["clique.vertices"].split()
        outside = next(format(v, f"0{len(verts[0])}b")
                       for v in range(1, len(leaders))
                       if format(v, f"0{len(verts[0])}b") not in verts
                       and leaders[v ^ int(verts[1], 2)] < rec["d"])
        swapped = verts[:-1] + [outside]
        code = unioncode.parse_union_code(Path(rec["out"]).read_text())
        kept = list(code.translations[:-1])
        for q in range(code.n):
            weight_one = pauli.pauli_parse("I" * q + "X" + "I" * (code.n - q - 1))
            try:
                bad_code = unioncode.union_code(code.base, kept + [weight_one])
                break
            except errors.DuplicateCoset:
                continue
        kl_bad = circuits.kl_verify(circuits.code_basis(bad_code), rec["d"]).ok

        def with_report(key, val, report="search_report"):
            bad = copy.deepcopy(rec)
            bad[report][key] = val
            return bad

        bad_kl = copy.deepcopy(rec)
        bad_kl["kl_ok"] = kl_bad
        bad_greedy = copy.deepcopy(rec)
        bad_greedy["greedy_size"] = int(rec["search_report"]["clique.size"]) + 1
        bad_rc = copy.deepcopy(rec)
        bad_rc["verify_rc"] = 1
        expect("search base ring d=2", checks.check_search_base, rec, {
            "a clique with one vertex swapped": with_report(
                "clique.vertices", " ".join(swapped)),
            "clique size 5 reported": with_report("clique.size", "5"),
            "clique.optimal: False": with_report("clique.optimal", "False"),
            "greedy clique larger than the exact one": bad_greedy,
            "distance.exact 1": with_report("distance.exact", "1",
                                            "verify_report"),
            "cosets.distinct: False": with_report("cosets.distinct", "False",
                                                  "verify_report"),
            "translation replaced by a weight-one Pauli (dense KL)": bad_kl,
            "verify exits 1": bad_rc,
        })
    finally:
        shutil.rmtree(inp["work"], ignore_errors=True)


def main() -> int:
    if not Path("src/unionstab/__init__.py").is_file():
        sys.stderr.write("run from the root of a unionstab checkout\n")
        return 2
    encode_cases()
    certify_cases()
    search_cases()
    for f in FAILURES:
        print("FAIL", f)
    print("selftest", "failed" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
