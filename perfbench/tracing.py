"""Per-layer spans recorded around calls into unionstab's public entry points.

The tracer replaces each entry point listed in ENTRY_POINTS on its module
and on every other unionstab module (or the package) that bound the same
function object with ``from ... import``, so calls between modules are
timed as well as calls from the benchmark.  Each call records one span:
name, region, start, end, parent span and an optional count taken from
its result.  Per-element helpers (``pauli``, ``apply_pauli``, ``simulate``)
are left unwrapped; their time lands in the self time of their caller.
"""
from __future__ import annotations

import functools
import sys
import time

# module -> entry points wrapped in that module
ENTRY_POINTS = {
    "gf2": ["word_matrix"],
    "classical": ["reed_muller", "goethals_binary", "preparata_like",
                  "distance_enumerator", "min_distance"],
    "z4": ["gr4_build", "kerdock_z4", "goethals_z4", "z4_dual", "lee_swe",
           "swe_macwilliams"],
    "stab": ["stabilizer_from_generators", "css", "enlarge_css",
             "enlargement_weight_check", "purity_and_distance",
             "parse_stabilizer"],
    "unioncode": ["union_code", "css_like_union", "build_search_graph",
                  "max_clique", "union_from_clique", "union_distance_bound",
                  "true_distance", "parse_union_code",
                  "format_union_code"],
    "circuits": ["synth_q1", "canonicalize_translations", "align_labels",
                 "synth_qc", "synth_qc_any_order", "code_basis", "kl_verify",
                 "full_encoder_check"],
    "cli": ["main"],
}

# span name -> (metric, count taken from the call's result)
COUNTS = {
    "unioncode.max_clique": ("unioncode.max_clique.nodes",
                             lambda r: r.stats["nodes"]),
    "gf2.word_matrix": ("gf2.word_matrix.words", lambda r: r.shape[0]),
}

# spans whose metric name carries the region they ran in
REGIONAL = {"classical.distance_enumerator"}

CLI_COMMANDS = ("construct", "search", "synth", "verify")

PER_LAYER = [
    ("circuits.synth_qc_any_order.s", "s"),
    ("circuits.synth_qc.s", "s"),
    ("circuits.synth_qc.calls", "count"),
    ("circuits.synth_q1.s", "s"),
    ("circuits.full_encoder_check.s", "s"),
    ("circuits.code_basis.s", "s"),
    ("circuits.kl_verify.s", "s"),
    ("classical.goethals_binary.s", "s"),
    ("classical.preparata_like.s", "s"),
    ("classical.distance_enumerator.goethals6.s", "s"),
    ("classical.distance_enumerator.preparata6_sub.s", "s"),
    ("z4.kerdock_z4.s", "s"),
    ("z4.goethals_z4.s", "s"),
    ("z4.lee_swe.s", "s"),
    ("z4.swe_macwilliams.s", "s"),
    ("stab.enlarge_css.s", "s"),
    ("stab.enlargement_weight_check.s", "s"),
    ("stab.purity_and_distance.s", "s"),
    ("unioncode.css_like_union.s", "s"),
    ("unioncode.build_search_graph.s", "s"),
    ("unioncode.max_clique.s", "s"),
    ("unioncode.max_clique.nodes", "count"),
    ("unioncode.union_distance_bound.s", "s"),
    ("unioncode.true_distance.s", "s"),
    ("gf2.word_matrix.s", "s"),
    ("gf2.word_matrix.words", "count"),
    ("cli.search.s", "s"),
    ("cli.verify.s", "s"),
    ("cli.self_s", "s"),
]


class Tracer:
    """Records spans while enabled; a disabled tracer passes calls through."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.region = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv") or []
                span_name = "cli." + next(
                    (a for a in argv if a in CLI_COMMANDS), "other")
            span = {"name": span_name, "region": self.region,
                    "parent": self._stack[-1] if self._stack else None,
                    "count": 0, "start": time.perf_counter(), "end": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(result)
            return result

        return traced

    def install(self) -> None:
        """Replaces every entry point wherever unionstab bound it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "unionstab"
                                      or k.startswith("unionstab."))]
        for mod_name, fns in ENTRY_POINTS.items():
            mod = sys.modules["unionstab." + mod_name]
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Self time per span name, cli totals, call counts and result counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
        for s, covered in zip(self.spans, child_time):
            name = s["name"]
            total = s["end"] - s["start"]
            own = total - covered
            if name + ".calls" in out:
                out[name + ".calls"] += 1
            if name.startswith("cli."):
                out[name + ".s"] = out.get(name + ".s", 0.0) + total
                out["cli.self_s"] += own
                continue
            key = f"{name}.{s['region']}" if name in REGIONAL else name
            out[key + ".s"] = out.get(key + ".s", 0.0) + own
            if name in COUNTS:
                out[COUNTS[name][0]] += s["count"]
        return {name: out[name] for name, _ in PER_LAYER}
