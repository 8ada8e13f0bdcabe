from __future__ import annotations

import numpy as np

from unionstab import cli, stab, unioncode
from unionstab.circuits import parse_circuit
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
    rc, out = _run(capsys, ["verify", str(union_file), "--level", "full"])
    assert rc == 0
    assert "cosets.distinct: True" in out
    assert "distance.exact: 2" in out


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


def test_exit_code_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.union"
    bad.write_text("not a code\n")
    rc = cli.main(["verify", str(bad)])
    assert rc == 2
    rc = cli.main(["verify", str(tmp_path / "missing.union")])
    assert rc == 2


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


def test_synth_cap(tmp_path, capsys):
    """--cap bounds the synthesis search; the zero label joins as index 0."""
    gens = [pauli_parse("I" * i + "Z" + "I" * (5 - i)) for i in range(6)]
    ts = [pauli_parse(s.replace("0", "I").replace("1", "X"))
          for s in SEED3_LABELS[:9]]
    union_file = tmp_path / "seed3.union"
    union_file.write_text(unioncode.format_union_code(
        unioncode.union_code(stabilizer_from_generators(gens), ts)))
    for extra in ([], ["--any-order"]):
        rc = cli.main(["synth", str(union_file), "--cap", "10000",
                       "--max-gates", "6"] + extra)
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
