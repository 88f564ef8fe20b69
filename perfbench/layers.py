"""Per-layer metrics and determinism counts from the spans of a traced run.

Layers are named after fcomp's modules.  Unless its name says otherwise, a
``.ms`` metric is self time: the span's duration minus its traced children,
so the layers' times add up to the traced wall time.  Evaluator metrics are
split by the stage whose artifact was run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

STAGES = ("source", "cps", "cc", "hoist", "cg")
PASSES = ("cps", "cc_pass", "hoist_pass", "cg_pass")
EVAL_SPANS = {
    "source_lang.eval_src", "cc_lang.eval_cc", "cc_lang.eval_hoisted",
    "cg_lang.eval_cg_program",
}


def _eval_metrics(out, prefix, ms, steps, stepped_ms):
    """``stepped_ms`` is the time of the calls that returned a step count;
    a call cut at a case's time limit counts in ``ms`` only."""
    out[f"{prefix}.ms"] = (ms, "ms")
    out[f"{prefix}.steps"] = (steps, "count")
    out[f"{prefix}.us_per_step"] = (
        stepped_ms * 1e3 / steps if steps else 0.0, "us/step")


def summarize(rows, wall_s):
    """Per-layer metrics as {name: (value, unit)}; ``wall_s`` is the traced
    run's wall time, the base of ``trace.eval_self_share``."""
    self_ms = defaultdict(float)   # (name, stage) -> ms
    dur_ms = defaultdict(float)
    steps = defaultdict(int)
    stepped_ms = defaultdict(float)  # time of the calls that have steps
    counts = defaultdict(int)
    dep_width = 0
    probes = []
    for r in rows:
        key = (r["name"], r["stage"])
        self_ms[key] += r["self"] * 1e3
        dur_ms[key] += (r["end"] - r["start"]) * 1e3
        if "steps" in r:
            steps[key] += r["steps"]
            stepped_ms[key] += (r["end"] - r["start"]) * 1e3
        for attr in ("nodes_out", "functions", "heap_cells", "bytes",
                     "nodes"):
            counts[(r["name"], attr)] += r.get(attr, 0)
        dep_width = max(dep_width, r.get("dep_width", 0))
        probes += r.get("probes", ())

    def by_name(name, table=self_ms):
        return sum(v for (n, _), v in table.items() if n == name)

    out = {}
    out["harness.gen.ms"] = (by_name("harness.gen"), "ms")
    out["harness.check.self_ms"] = (by_name("harness.check"), "ms")
    out["harness.shrink.ms"] = (by_name("harness.shrink", dur_ms), "ms")
    out["harness.shrink.probes"] = (len(probes), "count")
    out["harness.shrink.probe_p50_ms"] = (
        statistics.median(d for d, _ in probes) * 1e3 if probes else 0.0, "ms")
    out["harness.shrink.accepted_ratio"] = (
        sum(ok for _, ok in probes) / len(probes) if probes else 0.0, "ratio")
    out["surface.parse_source.ms"] = (by_name("surface.parse_source"), "ms")
    out["surface.parse_source.nodes"] = (
        counts[("surface.parse_source", "nodes")], "count")
    for st in ("source", "cps"):
        out[f"source_lang.typecheck_src.ms.{st}"] = (
            self_ms[("source_lang.typecheck_src", st)], "ms")
    for p in PASSES:
        out[f"{p}.ms"] = (by_name(p), "ms")
        out[f"{p}.nodes_out"] = (counts[(p, "nodes_out")], "count")
    out["hoist_pass.functions"] = (counts[("hoist_pass", "functions")], "count")
    out["hoist_pass.dep_width_max"] = (dep_width, "count")
    out["cc_lang.typecheck_cc.ms"] = (by_name("cc_lang.typecheck_cc"), "ms")
    out["cc_lang.typecheck_hoisted.ms"] = (
        by_name("cc_lang.typecheck_hoisted"), "ms")
    for st in ("source", "cps"):
        key = ("source_lang.eval_src", st)
        m = {}
        _eval_metrics(m, "source_lang.eval_src", self_ms[key], steps[key],
                      stepped_ms[key])
        out.update({f"{k}.{st}": v for k, v in m.items()})
    key = ("cc_lang.eval_cc", "cc")
    _eval_metrics(out, "cc_lang.eval_cc", self_ms[key], steps[key],
                  stepped_ms[key])
    # eval_hoisted substitutes the functions into the body (its self time)
    # and runs the cc machine on the result (a child eval_cc span).
    key = ("cc_lang.eval_hoisted", "hoist")
    _eval_metrics(out, "cc_lang.eval_hoisted", dur_ms[key], steps[key],
                  stepped_ms[key])
    out["cc_lang.eval_hoisted.self_ms"] = (
        self_ms[("cc_lang.eval_hoisted", "hoist")], "ms")
    key = ("cg_lang.eval_cg_program", "cg")
    _eval_metrics(out, "cg_lang.eval_cg_program", self_ms[key], steps[key],
                  stepped_ms[key])
    out["cg_lang.heap_cells"] = (
        counts[("cg_lang.eval_cg_program", "heap_cells")], "count")
    for st in STAGES:
        out[f"sexpr.dump.ms.{st}"] = (self_ms[("sexpr.dump", st)], "ms")
        out[f"sexpr.parse.ms.{st}"] = (self_ms[("sexpr.parse", st)], "ms")
    out["sexpr.dump.bytes"] = (counts[("sexpr.dump", "bytes")], "count")
    eval_ms = sum(v for (n, _), v in self_ms.items() if n in EVAL_SPANS)
    out["trace.eval_self_share"] = (eval_ms / (wall_s * 1e3), "ratio")
    return out


def self_time_table(rows):
    """(span name, stage) -> self ms, largest first."""
    table = defaultdict(float)
    for r in rows:
        table[(r["name"], r["stage"])] += r["self"] * 1e3
    return sorted(table.items(), key=lambda kv: -kv[1])


def case_counts(rows):
    """The deterministic counts of each case, in call order: steps per
    stage, nodes out of each pass, hoisted functions, heap cells, dump
    bytes, shrink probes and witness sizes."""
    out = defaultdict(list)
    for r in rows:
        c = {k: r[k] for k in ("steps", "nodes_out", "functions",
                                "heap_cells", "bytes", "witness_nodes")
             if k in r}
        if "probes" in r:
            c["probes"] = len(r["probes"])
        if c:
            out[r["case"]].append([r["name"], r["stage"], c])
    return dict(out)
