"""Command-line surface for constructions, search, synthesis, and checks.

Subcommands: construct, search, synth, verify.  Every run is
deterministic given its inputs and seed; the effective configuration is
echoed into each report header.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from . import circuits, classical, gf2, stab, unioncode
from .errors import BadParams, UnionStabError

SHOWN_FAILURES = 5  # failed items a verification writes to stderr
UNION_FILE_MAX_K = 1024  # translations construct writes to a union file
# the number of positional parameters each construct kind takes
CONSTRUCT_PARAMS = {"rm": 2, "nr": 0, "preparata": 1, "goethals": 1,
                    "css": 2, "enlarge": 2, "css-union": 2, "family": 2}


def _parse_config(path: str) -> dict:
    """Reads a config file of "key = value" lines."""
    out = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.split("#")[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise UnionStabError(f"bad config line: {ln!r}")
        key, val = (part.strip() for part in ln.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _apply_config(subparsers: list, cfg: dict) -> None:
    """Makes config values the defaults of the subcommands taking them.

    argparse converts string defaults through each option's type, and a
    value typed on the command line, as --key=v or --key v, still wins.
    An option the config supplies is no longer required.
    """
    known = set()
    for sp in subparsers:
        opts = {a.dest: a for a in sp._actions
                if a.option_strings and a.dest != "help"}
        for key in cfg.keys() & opts.keys():
            val = cfg[key]
            if opts[key].nargs == 0:  # a flag
                val = {"true": True, "false": False}.get(val.lower())
            if val is None or (opts[key].choices
                               and val not in opts[key].choices):
                raise UnionStabError(f"config {key}: bad value {cfg[key]!r}")
            sp.set_defaults(**{key: val})
            opts[key].required = False
            known.add(key)
    if cfg.keys() - known:
        raise UnionStabError(
            f"unknown config keys: {', '.join(sorted(cfg.keys() - known))}")


class Report:
    """Accumulates key/value lines; renders as text or csv."""

    def __init__(self, fmt: str, header: dict):
        self.fmt = fmt
        self.rows = [("config." + k, str(v)) for k, v in sorted(header.items())]

    def add(self, key: str, value) -> None:
        self.rows.append((key, str(value)))

    def render(self) -> str:
        if self.fmt == "csv":
            return "\n".join(f"{k},{v}" for k, v in self.rows) + "\n"
        return "\n".join(f"{k}: {v}" for k, v in self.rows) + "\n"


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)


def _coset_report(code: classical.CosetCode) -> str:
    prov = code.distance_provenance or "unknown"
    return (f"({code.n}, 2^{code.log2_size()} words, "
            f"{code.claimed_distance} [{prov}])")


@contextlib.contextmanager
def _naming(what: str):
    """Puts what, the input files at fault, before the message of an
    input error raised inside."""
    try:
        yield
    except (UnionStabError, ValueError) as e:
        raise UnionStabError(f"{what}: {e}") from e


def _load_stabilizer(path: str) -> stab.StabilizerCode:
    return stab.parse_stabilizer(Path(path).read_text())


def _load_coset(path: str) -> classical.CosetCode:
    with _naming(path):
        return classical.parse_coset_code(Path(path).read_text())


def cmd_construct(args, report: Report) -> int:
    kind = args.kind
    params = args.params
    want = CONSTRUCT_PARAMS[kind]
    if len(params) != want:
        raise UnionStabError(f"construct {kind} takes {want} parameters, "
                             f"got {len(params)}")
    if kind == "rm":
        r, m = int(params[0]), int(params[1])
        code = classical.reed_muller(r, m)
        report.add("code", f"[{code.n}, {code.k}, {code.known_distance} "
                           f"[{code.distance_provenance}]]")
        _write(args.out, gf2.format_matrix(code.generator))
    elif kind == "nr":
        code = classical.nordstrom_robinson()
        report.add("code", _coset_report(code))
        _write(args.out, classical.format_coset_code(code))
    elif kind in ("preparata", "goethals"):
        m = int(params[0])
        if kind == "preparata":
            code = classical.preparata_like(m)
        else:
            code = classical.goethals_binary(m)
        code = unioncode._certified_coset_code(code, args.cap)
        report.add("code", _coset_report(code))
        _write(args.out, classical.format_coset_code(code))
    elif kind == "css":
        c1, c2 = _load_linear(params[0]), _load_linear(params[1])
        with _naming(f"c1 {params[0]}, c2 {params[1]}"):
            code = stab.css(c1, c2)
        report.add("code", f"[[{code.n}, {code.k}]]")
        _write(args.out, stab.format_stabilizer(code))
    elif kind == "enlarge":
        c, cp = _load_linear(params[0]), _load_linear(params[1])
        code = stab.enlarge_css(c, cp)
        report.add("code", f"[[{code.n}, {code.k}]]")
        _write(args.out, stab.format_stabilizer(code))
    elif kind == "css-union":
        cc1, cc2 = (_load_coset(f) for f in params[:2])
        _check_union_file(args.out, kind,
                          len(cc1.translations) * len(cc2.translations))
        cc1, cc2 = (unioncode._certified_coset_code(cc, args.cap)
                    for cc in (cc1, cc2))
        d = min(cc1.claimed_distance, cc2.claimed_distance)
        with _naming(f"c1 {params[0]}, c2 {params[1]}"):
            code = unioncode.css_like_union(
                cc1.base, cc2.base, cc1.translations, cc2.translations, d=d)
        report.add("code", _union_report(code))
        if args.out:
            _write(args.out, unioncode.format_union_code(code))
    elif kind == "family":
        code = unioncode.family_build(params[0], int(params[1]))
        _check_union_file(args.out, kind, len(code.translations))
        report.add("code", _union_report(code))
        if args.out:
            _write(args.out, unioncode.format_union_code(code))
    return 0


def _check_union_file(path: str | None, kind: str, K: int) -> None:
    """Raises BadParams when a union file is asked for and K, the number
    of translations, is more than one holds."""
    if path and K > UNION_FILE_MAX_K:
        raise BadParams(f"{kind} has K = {K:,} translations; a union "
                        f"file holds at most {UNION_FILE_MAX_K:,}")


def _load_linear(path: str) -> classical.LinearCode:
    with _naming(path):
        return classical.linear_code(gf2.parse_matrix(Path(path).read_text()))


def _union_report(code: unioncode.UnionStabilizerCode) -> str:
    p = code.params
    dim = f"2^{p.log2_dim:g}"
    prov = p.provenance.get("d", "none")
    return f"(({p.n}, {dim}, {p.d} [{prov}]))"


def cmd_search(args, report: Report) -> int:
    base = _load_stabilizer(args.stabilizer)
    graph = unioncode.build_search_graph(base, args.d, cap=args.cap)
    report.add("graph.vertices", graph.num_vertices)
    report.add("graph.edges", graph.num_edges)
    result = unioncode.max_clique(graph, mode=args.mode, seed=args.seed,
                                  budget=args.budget)
    report.add("clique.size", result.size)
    report.add("clique.optimal", result.optimal)
    report.add("clique.nodes", result.stats["nodes"])
    report.add("clique.symmetry", result.stats["symmetry"])
    report.add("clique.vertices", " ".join(result.vertices))
    code = unioncode.union_from_clique(graph, result)
    report.add("code", _union_report(code))
    if args.out:
        _write(args.out, unioncode.format_union_code(code))
    return 0


def cmd_synth(args, report: Report) -> int:
    if args.max_gates < 0:
        raise BadParams("--max-gates must be at least 0")
    code = unioncode.parse_union_code(Path(args.code).read_text())
    q1 = circuits.synth_q1(code.base)
    labels = circuits.canonicalize_translations(code, q1)
    report.add("labels", " ".join(labels))
    if args.any_order:
        qc, order = circuits.synth_qc_any_order(
            labels, max_gates=args.max_gates, cap=args.cap)
        code = unioncode.union_code(
            code.base, [code.translations[i] for i in order],
            d=code.params.d)
        report.add("qc.order", " ".join(map(str, order)))
    else:
        qc = circuits.synth_qc(labels, max_gates=args.max_gates,
                               cap=args.cap)
    report.add("q1.gates", len(q1))
    report.add("qc.gates", len(qc))
    if args.out:
        _write(args.out + ".q1", circuits.format_circuit(q1))
        _write(args.out + ".qc", circuits.format_circuit(qc))
    states = circuits.code_basis(code)
    d = code.params.d or 2
    kl = circuits.kl_verify(states, d)
    report.add("kl.ok", kl.ok)
    report.add("kl.worst", f"{kl.worst_deviation:.2e}")
    enc = circuits.full_encoder_check(code, q1, qc, states)
    report.add("encoder.ok", enc.ok)
    for p in kl.violations[:SHOWN_FAILURES]:
        sys.stderr.write(f"kl.violation {p}\n")
    for i, overlap in enc.mismatches[:SHOWN_FAILURES]:
        sys.stderr.write(f"encoder.mismatch basis state {i}: "
                         f"overlap {overlap:.3e}\n")
    return 0 if (kl.ok and enc.ok) else 1


def cmd_verify(args, report: Report) -> int:
    code = unioncode.parse_union_code(Path(args.code).read_text())
    # parse_union_code raises DuplicateCoset (exit 2) on a repeated coset
    report.add("cosets.distinct", True)
    report.add("dimension", f"2^{code.params.log2_dim:g}")
    claimed = code.params.d
    if claimed is not None:
        report.add("distance.claimed", claimed)
    if args.level != "full":
        return 0
    bound = unioncode.union_distance_bound(code, cap=args.cap)
    report.add("distance.bound", bound.d)
    report.add("purity", bound.purity)
    exact = unioncode.true_distance(code, cap=args.cap)
    report.add("distance.exact", exact)
    if claimed is not None and exact < claimed:
        sys.stderr.write(f"distance.exact {exact} < claimed {claimed}\n")
        return 1
    return 0


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; config values, if given, become option defaults."""
    p = argparse.ArgumentParser(
        prog="unionstab",
        description="Union stabilizer code constructions and verification")
    p.add_argument("--config", help="file of key = value option defaults")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=gf2.DEFAULT_CAP,
                        help="cap on live memory, in 8-byte words; search "
                        "also charges the clique bitsets")
    common.add_argument("--budget", type=int, default=10**7,
                        help="search node budget")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("text", "csv"), default="text")
    common.add_argument("--out", help="output file or prefix")

    c = sub.add_parser("construct", parents=[common])
    c.add_argument("kind", choices=tuple(CONSTRUCT_PARAMS))
    c.add_argument("params", nargs="*")
    c.set_defaults(func=cmd_construct)

    s = sub.add_parser("search", parents=[common])
    s.add_argument("stabilizer", help="stabilizer code file")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    s.set_defaults(func=cmd_search)

    y = sub.add_parser("synth", parents=[common])
    y.add_argument("code", help="union code file")
    y.add_argument("--max-gates", type=int, default=10,
                   help="most reversible gates to search; a value close "
                   "to the optimum is what bounds the search")
    y.add_argument("--any-order", action="store_true",
                   help="allow any label-to-index bijection")
    y.set_defaults(func=cmd_synth)

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("code", help="union code file")
    v.add_argument("--level", choices=("structural", "full"),
                   default="structural")
    v.set_defaults(func=cmd_verify)
    _apply_config([c, s, y, v], config or {})
    return p


@functools.cache
def _pre_parser() -> argparse.ArgumentParser:
    """Finds --config, which precedes the subcommand taking the rest."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return pre


@functools.cache
def _plain_parser() -> argparse.ArgumentParser:
    """build_parser without a config, built on first use and kept:
    parsing leaves a parser as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        path = _pre_parser().parse_known_args(argv)[0].config
        parser = build_parser(_parse_config(path)) if path else _plain_parser()
        args = parser.parse_args(argv)
        header = {"command": args.command, "cap": args.cap,
                  "budget": args.budget, "seed": args.seed}
        report = Report(args.format, header)
        rc = args.func(args, report)
        sys.stdout.write(report.render())
        return rc
    except (UnionStabError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
