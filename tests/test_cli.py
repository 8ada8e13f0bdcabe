from __future__ import annotations

import argparse
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import unionstab
from unionstab import circuits, classical, cli, gf2, stab, unioncode
from unionstab.circuits import EncoderReport, KLReport, parse_circuit
from unionstab.errors import UnionStabError
from unionstab.pauli import pauli_parse
from unionstab.stab import format_stabilizer, stabilizer_from_generators

from conftest import (
    FIVE_QUBIT_STABILIZER,
    FIVE_QUBIT_TRANSLATIONS,
    SEED3_LABELS,
)


def _run(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def _src_env() -> dict:
    """The environment with this checkout's unionstab first on the path."""
    src = str(Path(unionstab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _write_five_union(path):
    gens = [pauli_parse(s) for s in FIVE_QUBIT_STABILIZER]
    base = stabilizer_from_generators(gens)
    code = unioncode.union_code(
        base, [pauli_parse(s) for s in FIVE_QUBIT_TRANSLATIONS])
    path.write_text(unioncode.format_union_code(code))


def test_construct_rm(capsys):
    rc, out = _run(capsys, ["construct", "rm", "1", "4"])
    assert rc == 0
    assert "[16, 5, 8 [proved-analytic]]" in out


def test_construct_nr(capsys):
    rc, out = _run(capsys, ["construct", "nr"])
    assert rc == 0
    assert "(16, 2^8 words, 6" in out


def test_construct_family(capsys):
    rc, out = _run(capsys, ["construct", "family", "goethals", "6"])
    assert rc == 0
    assert "((64, 2^30, 8" in out


def test_construct_family_writes_union_file(tmp_path, capsys):
    """family --out writes the union file when K fits one (Goethals(6),
    K = 32^2) and otherwise exits 2 naming K, writing nothing."""
    union_file = tmp_path / "fam.union"
    rc, out = _run(capsys, ["construct", "family", "goethals", "6",
                            "--out", str(union_file)])
    assert rc == 0
    assert "T 1024 8\n" in union_file.read_text()
    rc, out = _run(capsys, ["verify", str(union_file)])
    assert rc == 0 and "dimension: 2^30\n" in out
    big = tmp_path / "big.union"
    rc = cli.main(["construct", "family", "preparata", "6", "--out", str(big)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "family has K = 1,048,576 translations" in captured.err
    assert captured.out == "" and not big.exists()


def test_construct_family_rejects_small_or_odd_m(capsys):
    """family shares family_params' check on m: preparata 4 and
    goethals 7 exit 2 with it, before anything is built."""
    for kind, m in (("preparata", "4"), ("goethals", "7")):
        assert cli.main(["construct", "family", kind, m]) == 2
        assert capsys.readouterr().err == \
            "error: m must be even and at least 6\n", (kind, m)


def test_construct_reports_certified_distance(capsys):
    rc, out = _run(capsys, ["construct", "preparata", "4"])
    assert rc == 0
    assert "code: (16, 2^8 words, 6 [enumerator])" in out


def test_construct_m8_exits_2_in_one_line(capsys):
    """At m = 8, Preparata's 2^21 translations exceed the cap, and so
    does the Dickson rank table of Goethals' 2^14 cosets, whose syndromes
    span 2^28 forms: each construct exits 2 with a one-line message,
    within 2 s."""
    refused = "K = 2,097,152 translations of n = 256 bytes exceeds cap"
    ranks = "rank table 2^28 with coset span 2^10 exceeds cap 67108864"
    for argv, msg in ((["family", "preparata", "8"], refused),
                      (["family", "goethals", "8"], ranks),
                      (["preparata", "8"], refused),
                      (["goethals", "8"], ranks)):
        start = time.perf_counter()
        rc = cli.main(["construct", *argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", argv
        assert captured.err.startswith("error: ") and msg in captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert elapsed < 2, (argv, elapsed)


def _mutated(rng, text: str) -> str:
    """text with one to three seeded edits, most of them a bit flipped in
    a 0/1 line (the file still parses); the others put a stray character
    in, or drop, repeat or swap lines."""
    lines = text.splitlines()
    for _ in range(int(rng.integers(1, 4))):
        i, j = (int(v) for v in rng.integers(0, len(lines), 2))
        at = int(rng.integers(0, max(len(lines[i]), 1)))
        edit = int(rng.choice([0, 0, 0, 1, 2, 3, 4]))
        if edit == 0 and set(lines[i]) <= set("01"):
            lines[i] = lines[i][:at] + "10"[lines[i][at] == "1"] + \
                lines[i][at + 1:]
        elif edit == 1:
            lines[i] = lines[i][:at] + "2x -#"[at % 5] + lines[i][at + 1:]
        elif edit == 2 and len(lines) > 1:
            del lines[i]
        elif edit == 3:
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_construct_never_raises_on_bad_m_or_mutated_coset_files(
        tmp_path, capsys):
    """construct preparata, goethals and family over m in {-2, 0, 3, 4,
    5, 6, 7, 8, 10, x}, and css-union on 20 seeded mutations of a coset
    file, each exit 0, 1 or 2, with a one-line message on 2; an uncaught
    exception would fail the test.  A mutant that does not parse names
    its failing line or the translations block; every css-union exit 2
    names the mutant file and a line, a row or the translations block,
    the parity-check row of c2 outside c1 when dual(c2) is not in it."""
    calls = []
    for m in ("-2", "0", "3", "4", "5", "6", "7", "8", "10", "x"):
        calls += [["preparata", m], ["goethals", m],
                  ["family", "preparata", m], ["family", "goethals", m]]
    rng = np.random.default_rng(29)
    good = tmp_path / "g6.code"
    good.write_text(classical.format_coset_code(classical.goethals_binary(6)))
    unparsed = set()
    for i in range(20):
        path = tmp_path / f"mutant{i}.code"
        path.write_text(_mutated(rng, good.read_text()))
        calls.append(["css-union", str(path), str(good)])
        try:
            classical.parse_coset_code(path.read_text())
        except (UnionStabError, ValueError):
            unparsed.add(str(path))
    start = time.perf_counter()
    codes, outside = [], 0
    for argv in calls:
        rc = cli.main(["construct", *argv])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if argv[1] in unparsed:
            assert rc == 2 and re.search(r"line \d+|translation", err), err
        if argv[0] == "css-union" and rc == 2:
            assert argv[1] in err, err
            assert re.search(r"line \d+|row \d+|translation", err), err
            outside += bool(re.search(
                r"dual\(c2\) is not contained in c1: parity-check row \d+ "
                "of c2 lies outside c1", err))
        codes.append(rc)
    assert time.perf_counter() - start < 5
    assert {0, 2} <= set(codes[-20:])  # some mutants still build
    assert len(unparsed) >= 8 and outside >= 1


def test_construct_css_union_round_trip(tmp_path, capsys):
    """A coset file written by construct feeds css-union."""
    coset_file, union_file = tmp_path / "g.code", tmp_path / "g.union"
    rc, out = _run(capsys, ["construct", "goethals", "6",
                            "--out", str(coset_file)])
    assert rc == 0
    assert "code: (64, 2^47 words, 8 [enumerator])" in out
    rc, out = _run(capsys, ["construct", "css-union", str(coset_file),
                            str(coset_file), "--out", str(union_file)])
    assert rc == 0
    assert "code: ((64, 2^30, 8" in out
    text = union_file.read_text()
    assert "T 1024 8\n" in text
    rc, out = _run(capsys, ["verify", str(union_file)])
    assert rc == 0
    assert "cosets.distinct: True" in out
    assert "dimension: 2^30\n" in out
    # translation 5 repeated as translation 1024
    lines = text.splitlines()
    head = lines.index("T 1024 8")
    lines[head] = "T 1025 8"
    lines.append(lines[head + 6])
    repeated = tmp_path / "repeated.union"
    repeated.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", str(repeated)]) == 2
    assert f"error: {repeated}: translations 5 and 1024 share a coset" in \
        capsys.readouterr().err
    rc = cli.main(["construct", "css-union", str(coset_file),
                   str(coset_file), "--cap", "1000"])
    assert rc == 2
    assert "error: rank table 2^15 with coset span 2^8 exceeds cap 1000" in \
        capsys.readouterr().err


def test_construct_css_union_too_large_to_write_exits_2(
        tmp_path, capsys, monkeypatch):
    """Two Preparata(6) coset files give K = 1024^2 translations, more
    than a union file holds: --out exits 2 naming K, before either input
    is certified, and writes nothing."""
    text = classical.format_coset_code(classical.preparata_like(6))
    coset_files = [tmp_path / "p6a.code", tmp_path / "p6b.code"]
    for path in coset_files:
        path.write_text(text)

    def certify(*args, **kwargs):
        raise AssertionError("an input was certified before the K check")

    monkeypatch.setattr(unioncode, "_certified_coset_code", certify)
    union_file = tmp_path / "p6.union"
    rc = cli.main(["construct", "css-union", *map(str, coset_files),
                   "--out", str(union_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "K = 1,048,576 translations" in captured.err
    assert "at most 1,024" in captured.err
    assert captured.out == "" and not union_file.exists()


def test_search_and_verify(tmp_path, capsys):
    stab_file = tmp_path / "graph.stab"
    gens = [pauli_parse(s) for s in
            ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]]
    stab_file.write_text(format_stabilizer(stabilizer_from_generators(gens)))
    union_file = tmp_path / "found.union"
    rc, out = _run(capsys, ["search", str(stab_file), "--d", "2",
                            "--out", str(union_file)])
    assert rc == 0
    assert "graph.vertices: 32" in out
    assert "clique.size: 6" in out
    assert "clique.optimal: True" in out
    assert "clique.nodes: 7" in out
    assert "clique.symmetry: translation+aut(10)\n" in out
    rc, out = _run(capsys, ["verify", str(union_file), "--level", "full"])
    assert rc == 0
    assert "cosets.distinct: True" in out
    assert "distance.exact: 2" in out
    rc, out = _run(capsys, ["search", str(stab_file), "--d", "3",
                            "--format", "csv"])
    assert rc == 0 and "clique.nodes,2\n" in out
    assert "clique.symmetry,translation+aut(10)\n" in out


def test_verify_fails_on_overclaimed_distance(tmp_path, capsys):
    union_file = tmp_path / "five.union"
    _write_five_union(union_file)
    text = union_file.read_text()
    assert "T 6\n" in text  # no claimed distance: two fields
    union_file.write_text(text.replace("T 6\n", "T 6 3\n"))
    rc = cli.main(["verify", str(union_file), "--level", "full"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "distance.exact 2 < claimed 3" in captured.err
    assert "distance.claimed: 3" in captured.out
    union_file.write_text(text.replace("T 6\n", "T 6 2\n"))
    rc, out = _run(capsys, ["verify", str(union_file), "--level", "full"])
    assert rc == 0 and "distance.exact: 2" in out
    union_file.write_text(text.replace("T 6\n", "T 6 2 9\n"))
    assert cli.main(["verify", str(union_file)]) == 2


def test_search_writes_claimed_distance(tmp_path, capsys):
    stab_file = tmp_path / "graph.stab"
    gens = [pauli_parse(s) for s in
            ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]]
    stab_file.write_text(format_stabilizer(stabilizer_from_generators(gens)))
    union_file = tmp_path / "found.union"
    rc, _ = _run(capsys, ["search", str(stab_file), "--d", "3",
                          "--out", str(union_file)])
    assert rc == 0 and "T 2 3\n" in union_file.read_text()
    assert unioncode.parse_union_code(union_file.read_text()).params.d == 3
    rc, out = _run(capsys, ["verify", str(union_file), "--level", "full"])
    assert rc == 0
    assert "distance.claimed: 3" in out and "distance.exact: 3" in out


def test_synth_any_order(tmp_path, capsys):
    union_file = tmp_path / "five.union"
    _write_five_union(union_file)
    prefix = tmp_path / "enc"
    rc, out = _run(capsys, ["synth", str(union_file), "--any-order",
                            "--max-gates", "7", "--out", str(prefix)])
    assert rc == 0
    assert "kl.ok: True" in out
    assert "encoder.ok: True" in out
    q1 = parse_circuit((tmp_path / "enc.q1").read_text(), 5)
    qc = parse_circuit((tmp_path / "enc.qc").read_text(), 5)
    assert len(q1) > 0 and len(qc) <= 7


def test_synth_k1_base_translations_carrying_logical_x(tmp_path, capsys):
    """On the [[5, 1, 3]] base, q1 leaves logical X on the translation
    XIIII: the encoder check reads it, in both orders, and --any-order
    keeps the claimed distance 1 when it reorders the translations."""
    base = stabilizer_from_generators(
        [pauli_parse(s) for s in ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]])
    code = unioncode.union_code(
        base, [pauli_parse("XIIII"), pauli_parse("ZIIII")], d=1)
    union_file = tmp_path / "perfect.union"
    union_file.write_text(unioncode.format_union_code(code))
    for extra in ([], ["--any-order"]):
        rc, out = _run(capsys, ["synth", str(union_file)] + extra)
        assert rc == 0, extra
        assert "kl.ok: True" in out and "encoder.ok: True" in out, extra


def test_synth_failure_names_items(tmp_path, capsys, monkeypatch):
    union_file = tmp_path / "five.union"
    _write_five_union(union_file)
    violations = ["XIIII", "ZIIII", "YIIII", "IXIII", "IZIII", "IYIII"]
    monkeypatch.setattr(circuits, "kl_verify", lambda states, d: KLReport(
        ok=False, worst_deviation=0.5, num_checked=15,
        violations=violations))
    monkeypatch.setattr(
        circuits, "full_encoder_check",
        lambda code, q1, qc, basis: EncoderReport(
            ok=False, worst_overlap=0.25, mismatches=[(3, 0.25)]))
    rc = cli.main(["synth", str(union_file), "--max-gates", "8"])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert lines == [f"kl.violation {p}" for p in violations[:5]] + \
        ["encoder.mismatch basis state 3: overlap 2.500e-01"]


def test_synth_builds_code_basis_once(tmp_path, capsys, monkeypatch):
    """kl_verify and full_encoder_check share one code basis."""
    union_file = tmp_path / "five.union"
    _write_five_union(union_file)
    calls = []
    code_basis = circuits.code_basis
    monkeypatch.setattr(circuits, "code_basis",
                        lambda code: calls.append(code) or code_basis(code))
    rc, out = _run(capsys, ["synth", str(union_file), "--max-gates", "8"])
    assert rc == 0 and "encoder.ok: True" in out
    assert len(calls) == 1


def test_exit_code_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.union"
    bad.write_text("not a code\n")
    rc = cli.main(["verify", str(bad)])
    assert rc == 2
    rc = cli.main(["verify", str(tmp_path / "missing.union")])
    assert rc == 2


BAD_PAIRING = "2 1\nS\nXX\nZ\nZZ\nX\nZI\n"


def test_bad_stabilizer_files_exit_2(tmp_path, capsys):
    """Logicals that pair wrongly, operators longer or shorter than the
    header says, and a header with no generators each exit 2 naming the
    file and the problem."""
    path = tmp_path / "bad.stab"
    for text, msg in (
            (BAD_PAIRING, "logical X0 and Z0 do not pair"),
            ("3 1\nS\nXX\nZZ\n", "operator 'XX' in block S acts on 2 "
                                  "qubits, header says n = 3"),
            ("2 1\nS\nXX\nZ\nZZZ\nX\nXI\n", "operator 'ZZZ' in block Z"),
            ("3 3\nS\n", "header '3 3' needs 0 <= k < n")):
        path.write_text(text)
        rc = cli.main(["search", str(path), "--d", "2"])
        captured = capsys.readouterr()
        assert rc == 2 and f"error: {path}: {msg}" in captured.err, text
        assert captured.out == ""
    union = tmp_path / "bad.union"
    union.write_text(BAD_PAIRING + "T 1\nII\n")
    assert cli.main(["verify", str(union), "--level", "full"]) == 2
    union.write_text("2 0\nS\nXX\nZZ\nT 2\nII\nXII\n")
    assert cli.main(["verify", str(union)]) == 2
    assert "translation 1 XII acts on 3 qubits, the base on 2" in \
        capsys.readouterr().err
    union.write_text("2 0\nS\nXX\nZZ\nT 1\nII\nXI\n")
    assert cli.main(["verify", str(union)]) == 2
    assert "header says 1, found 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text, msg", [
    (["search", "--d", "2"], "5\nS\nXZIIZ\n",
     "expected an 'n k' header, found '5'"),
    (["synth"], "2 0\nS\nXX\nZZ\nT 2\nII\nQI\n",
     "unknown Pauli symbol 'Q'"),
    (["verify"], "2 0\nS\nXX\nZZ\nT x\nII\n",
     "expected a 'T <K> [<d>]' translations header, found 'T x'"),
], ids=["search", "synth", "verify"])
def test_input_errors_name_the_file(argv, text, msg, tmp_path, capsys):
    """A malformed header or Pauli symbol in the input file exits 2 with
    one line naming the file and what was found."""
    path = tmp_path / "bad.code"
    path.write_text(text)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {msg}\n"


def test_construct_parameter_count_exits_2(capsys):
    for argv in (["rm", "1"], ["preparata"], ["family", "goethals"],
                 ["css"], ["nr", "4"]):
        rc = cli.main(["construct", *argv])
        assert rc == 2, argv
        assert "parameters, got" in capsys.readouterr().err


def test_bad_pairing_exits_2_under_optimize(tmp_path):
    """The logical pairing check is not an assert: python -O keeps it."""
    union = tmp_path / "bad.union"
    union.write_text(BAD_PAIRING + "T 1\nII\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "unionstab.cli", "verify", str(union),
         "--level", "full"], capture_output=True, text=True, env=_src_env(),
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {union}: logical X0 and Z0 do not pair" in proc.stderr


def test_bad_coset_file_exits_2(tmp_path, capsys):
    """A translation line of the wrong length or alphabet exits 2 in
    construct css-union, as does a missing or short translations block."""
    good = classical.format_coset_code(classical.preparata_like(4))
    lines = good.splitlines()
    at = lines.index("translations 8")
    path = tmp_path / "bad.code"
    for edit, msg in (
            (lambda ls: ls.__setitem__(at + 2, ls[at + 2][:-1]),
             "translation 1 "),
            (lambda ls: ls.__setitem__(at + 3, "2" + ls[at + 3][1:]),
             "translation 2 "),
            (lambda ls: ls.__delitem__(slice(at + 8, None)),
             "translation count mismatch"),
            (lambda ls: ls.__delitem__(slice(at, None)),
             "expected a 'translations <count>' block"),
            # the generator block: its header, and a row, name their line
            (lambda ls: ls.__setitem__(0, "translations 8"),
             "line 1: expected a 'rows cols' header, found 'translations 8'"),
            (lambda ls: ls.__setitem__(2, ls[2][:3] + "2" + ls[2][4:]),
             "row 1 '" + lines[2][:3] + "2" + lines[2][4:] + "' on line 3 "
             "is not a 0/1 string")):
        ls = list(lines)
        edit(ls)
        path.write_text("\n".join(ls) + "\n")
        rc = cli.main(["construct", "css-union", str(path), str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and msg in captured.err, msg


def test_search_rejects_bad_distance_and_budget(tmp_path, capsys):
    """A negative target distance or a budget below 1 exits 2 and writes
    no code, whether typed or read from --config."""
    stab_file = tmp_path / "graph.stab"
    gens = [pauli_parse(s) for s in
            ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]]
    stab_file.write_text(format_stabilizer(stabilizer_from_generators(gens)))
    union_file = tmp_path / "found.union"
    search = ["search", str(stab_file), "--out", str(union_file)]
    cfg = tmp_path / "opts.cfg"
    for argv, text, msg in (
            (["--d", "-1"], "", "target distance"),
            (["--d=-1"], "seed = 1", "target distance"),
            (["--d", "2", "--budget", "0"], "", "budget"),
            (["--d", "2", "--budget", "-3"], "", "budget"),
            (["--d", "2"], "budget = 0", "budget"),
            (["--d", "2"], "budget = -3", "budget")):
        cfg.write_text(text + "\n")
        rc = cli.main((["--config", str(cfg)] if text else []) + search + argv)
        captured = capsys.readouterr()
        assert rc == 2 and msg in captured.err, (argv, text)
        assert captured.out == "" and not union_file.exists(), (argv, text)


def test_csv_format(capsys):
    rc, out = _run(capsys, ["construct", "rm", "2", "4", "--format", "csv"])
    assert rc == 0
    assert "config.command,construct" in out
    assert "code,[16, 11, 4 [proved-analytic]]" in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("format = csv\nseed = 9\n")
    rc, out = _run(capsys, ["--config", str(cfg), "construct", "rm", "1", "3"])
    assert rc == 0
    assert "config.seed,9" in out


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("cap = 7\n")
    base = ["--config", str(cfg), "construct", "rm", "1", "3"]
    # a value typed on the command line wins in either spelling
    for typed in (["--cap=99"], ["--cap", "99"]):
        rc, out = _run(capsys, base + typed)
        assert rc == 0 and "config.cap: 99" in out, typed
    rc, out = _run(capsys, base)
    assert rc == 0 and "config.cap: 7" in out


def test_config_supplies_required_d(tmp_path, capsys):
    """search --d may come from --config; a typed --d still wins, and
    with neither, argparse exits 2."""
    stab_file = tmp_path / "graph.stab"
    gens = [pauli_parse(s) for s in
            ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]]
    stab_file.write_text(format_stabilizer(stabilizer_from_generators(gens)))
    cfg = tmp_path / "d.cfg"
    cfg.write_text("d = 2\n")
    search = ["search", str(stab_file), "--format", "csv"]
    rc, from_cfg = _run(capsys, ["--config", str(cfg)] + search)
    rc_typed, typed = _run(capsys, search + ["--d", "2"])
    assert rc == rc_typed == 0 and from_cfg == typed
    cfg.write_text("d = -1\n")  # the typed value wins over the config
    rc, out = _run(capsys, ["--config", str(cfg)] + search + ["--d", "2"])
    assert rc == 0 and out == typed
    with pytest.raises(SystemExit) as exc:
        cli.main(search)
    assert exc.value.code == 2
    assert "--d" in capsys.readouterr().err


def test_cached_parsers_leak_nothing(tmp_path, capsys, monkeypatch):
    """A --config call builds its own parser, whose values reach no later
    call without that config; a value typed with '=' still beats them,
    and repeated plain calls reuse the one kept parser and build none."""
    stab_file = tmp_path / "graph.stab"
    gens = [pauli_parse(s) for s in
            ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]]
    stab_file.write_text(format_stabilizer(stabilizer_from_generators(gens)))
    cfg = tmp_path / "cap7.cfg"
    cfg.write_text("cap = 7\nd = 2\n")
    search = ["search", str(stab_file)]
    rc = cli.main(["--config", str(cfg)] + search)
    assert rc == 2 and "exceeds cap 7" in capsys.readouterr().err
    rc, out = _run(capsys, search + ["--d", "2"])
    assert rc == 0 and f"config.cap: {gf2.DEFAULT_CAP}\n" in out
    with pytest.raises(SystemExit) as exc:
        cli.main(search)
    assert exc.value.code == 2 and "--d" in capsys.readouterr().err
    rc, out = _run(capsys, ["--config", str(cfg)] + search + ["--cap=4096"])
    assert rc == 0 and "config.cap: 4096\n" in out
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for _ in range(3):
        rc, out = _run(capsys, search + ["--d", "2"])
        assert rc == 0 and f"config.cap: {gf2.DEFAULT_CAP}\n" in out
    assert built == []


def test_config_booleans_and_bad_keys(tmp_path, capsys):
    union_file = tmp_path / "five.union"
    _write_five_union(union_file)
    cfg = tmp_path / "opts.cfg"
    for text, order in (("any_order = false", False),
                        ("any-order = true", True)):
        cfg.write_text(text + "\n")
        rc, out = _run(capsys, ["--config", str(cfg), "synth",
                                str(union_file)])
        assert rc == 0 and ("qc.order" in out) == order, text
    for text in ("any_order = maybe", "bogus = 1", "format = xml"):
        cfg.write_text(text + "\n")
        rc = cli.main(["--config", str(cfg), "synth", str(union_file)])
        err = capsys.readouterr().err
        assert rc == 2 and text.split()[0].replace("-", "_") in err, text


def test_synth_rejects_negative_max_gates(tmp_path, capsys):
    union_file = tmp_path / "five.union"
    _write_five_union(union_file)
    for extra in ([], ["--any-order"]):
        rc = cli.main(["synth", str(union_file), "--max-gates", "-1"] + extra)
        captured = capsys.readouterr()
        assert rc == 2 and "--max-gates must be at least 0" in captured.err
        assert captured.out == "", extra


def test_synth_cap(tmp_path, capsys):
    """--cap bounds the synthesis search; the zero label joins as index 0.
    At --max-gates 10 the levels outgrow the cap; at 6 the plane bound
    answers NotFound before they do."""
    gens = [pauli_parse("I" * i + "Z" + "I" * (5 - i)) for i in range(6)]
    ts = [pauli_parse(s.replace("0", "I").replace("1", "X"))
          for s in SEED3_LABELS[:9]]
    union_file = tmp_path / "seed3.union"
    union_file.write_text(unioncode.format_union_code(
        unioncode.union_code(stabilizer_from_generators(gens), ts)))
    for extra in ([], ["--any-order"]):
        rc = cli.main(["synth", str(union_file), "--cap", "10000",
                       "--max-gates", "10"] + extra)
        err = capsys.readouterr().err
        assert rc == 2 and "exceeds cap 10000" in err, extra


def test_deterministic_rerun(tmp_path, capsys):
    stab_file = tmp_path / "graph.stab"
    gens = [pauli_parse(s) for s in
            ["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"]]
    stab_file.write_text(format_stabilizer(stabilizer_from_generators(gens)))
    argv = ["search", str(stab_file), "--d", "2", "--mode", "greedy",
            "--seed", "3"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def _ring_file(path, n):
    path.write_text(format_stabilizer(stabilizer_from_generators([
        pauli_parse("".join("X" if u == v else (
            "Z" if (u - v) % n in (1, n - 1) else "I") for u in range(n)))
        for v in range(n)])))
    return str(path)


def test_ring16_search_refused_at_the_clique_bitsets(tmp_path, capsys,
                                                     traced_peak):
    """The 16-qubit ring graph state at d = 3 has 64,599 cosets in N(0):
    their bitset tables would take about 0.85 GB, so at the default cap
    search exits 2 naming them, quickly and before building them."""
    argv = ["search", _ring_file(tmp_path / "ring16.stab", 16), "--d", "3"]
    start = time.perf_counter()
    rc, peak = traced_peak(cli.main, argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: the clique bitsets of 64599 neighbours "
                            f"exceeds cap {gf2.DEFAULT_CAP}\n")
    assert elapsed < 2 and peak < 64 << 20


# runs the CLI once its imports are done, under an address-space limit of
# the VmPeak it has reached, the 8 bytes of each word of --cap and a slack
LIMITED_CLI = """
import resource, sys
from pathlib import Path
from unionstab import cli, gf2
argv = sys.argv[1:]
cap = int(argv[argv.index("--cap") + 1]) if "--cap" in argv \\
    else gf2.DEFAULT_CAP
status = Path("/proc/self/status").read_text().splitlines()
peak = next(int(ln.split()[1]) for ln in status if ln.startswith("VmPeak:"))
limit = (peak << 10) + 8 * cap + (64 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(argv))
"""


def test_subcommands_under_an_address_space_limit_from_the_cap(tmp_path):
    """Each subcommand runs in a child whose address space is limited to
    its import-time VmPeak, 8 bytes a word of --cap and 64 MiB: one input
    the cap refuses and one that fits.  Each exits 0 or 2, an exit 2 with
    a one-line error, and none with a traceback."""
    ring5 = _ring_file(tmp_path / "ring5.stab", 5)
    ring16 = _ring_file(tmp_path / "ring16.stab", 16)
    five = tmp_path / "five.union"
    _write_five_union(five)
    runs = [
        (["construct", "goethals", "6", "--cap", "1000"], 2),
        (["construct", "preparata", "6", "--cap", str(1 << 20)], 0),
        (["search", ring16, "--d", "3"], 2),
        (["search", ring5, "--d", "2", "--cap", "4096",
          "--out", str(tmp_path / "ring5.union")], 0),
        (["synth", str(five), "--max-gates", "10", "--cap", "10000"], 2),
        (["synth", str(five), "--max-gates", "8", "--cap", str(1 << 20)], 0),
        (["verify", str(five), "--level", "full", "--cap", "10"], 2),
        (["verify", str(tmp_path / "ring5.union"), "--level", "full",
          "--cap", "4096"], 0),
    ]
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    for argv, want in runs:
        proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        if want:
            assert proc.stderr.startswith("error: ") and \
                proc.stderr.count("\n") == 1, (argv, proc.stderr)
    assert time.perf_counter() - start < 4


def test_search_ring13_under_address_space_limit(tmp_path):
    """search on the 13-qubit ring graph state (8,192 cosets, 7,606 of
    them in N(0)) runs in a child limited to 256 MB of address space,
    since no 2^r x 2^r or |N(0)| x |N(0)| adjacency is built."""
    n, limit = 13, 256 << 20
    stab_file = tmp_path / "ring13.stab"
    stab_file.write_text(format_stabilizer(stabilizer_from_generators([
        pauli_parse("".join("X" if u == v else (
            "Z" if (u - v) % n in (1, n - 1) else "I") for u in range(n)))
        for v in range(n)])))
    proc = subprocess.run(
        [sys.executable, "-m", "unionstab.cli", "search", str(stab_file),
         "--d", "3", "--budget", "100"], capture_output=True, text=True,
        env=_src_env(), timeout=300, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "clique.nodes: 101\n" in proc.stdout
