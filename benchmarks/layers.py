"""Where the trace hooks go into dagwidth, and the per-layer metrics read off them.

Every per-layer value is a mean per traced op: seconds of self time, or a
count. Counts come from the hooked calls' arguments and return values, so
they repeat exactly for a fixed seed. A metric whose hook found no target
reads ABSENT, never 0; a hook that exists but did not run reads 0.
"""
from __future__ import annotations

from collections import namedtuple

from .tracing import ROOT, Tracer

ABSENT = "absent"

# Module bindings, replaced where the caller looks the name up.
MODULE_HOOKS = (
    ("dagwidth.io", "build_dag", "dag.build"),          # parse_edge_list
    ("dagwidth.dag", "build_dag", "dag.build"),         # SolverState.result imports it per call
    ("dagwidth.sparsify", "build_dag", "dag.build"),    # sparsify_all
    ("dagwidth.flow", "reduce", "flow.reduce"),         # SolverState.result imports it per call
    ("dagwidth.antichain", "reduce", "flow.reduce"),    # max_antichain
    ("dagwidth.antichain", "flow_from_cover", "flow.from_cover"),
    ("dagwidth.incremental", "decompose", "flow.decompose"),
    ("dagwidth.antichain", "validate_cover", "oracle.validate"),
    ("dagwidth.thinning", "validate_cover", "oracle.validate"),
)

# SolverState methods, replaced on each instance: insert_vertex and
# apply_updates reach them through self.
SOLVER_HOOKS = (
    ("_sparsify_in", "incremental.sparsify_in"),
    ("_search", "incremental.search"),
    ("apply_updates", "incremental.update"),
    ("_apply_flow_deltas", "incremental.flow_delta"),
    ("_walk_back", "incremental.walk"),
    ("maintain_backlinks", "incremental.k2_backlinks"),
    ("_repair_merged_anchors", "incremental.k2_merge_repair"),
    ("_k3_repair", "incremental.k3_repair"),
    ("result", "incremental.result"),
)

# SupportGraph methods, replaced on each instance thin builds.
SUPPORT_HOOKS = (
    ("find_red_cycle", "thinning.cycle_search"),
    ("eliminate_red_cycle", "thinning.eliminate"),
    ("_one_pass", "thinning.pass"),
    ("to_cover", "thinning.to_cover"),
)
SUPPORT_BUILD = "thinning.support_build"


def _distinct_edges(paths) -> int:
    return len({e for path in paths for e in zip(path, path[1:])})


def _instrument_solver(t: Tracer, st) -> None:
    def on_sparsify(args, kept):
        t.count("incremental.edges_offered", len(args[1]))
        t.count("incremental.edges_kept", len(kept))

    def on_search(args, res):
        t.tally("incremental.popped", lambda: len(res._popped))
        t.tally("incremental.searches_failed", lambda: int(not res.found))

    def on_update(args, ret):
        t.tally("incremental.merges", lambda: int(st.last_merge))

    def on_walk(args, seq):
        t.count("incremental.walk_steps", len(seq))

    def on_result(args, res):
        t.tally("incremental.charge_units", lambda: res.charges["traversal_units"])

    callbacks = {"_sparsify_in": on_sparsify, "_search": on_search,
                 "apply_updates": on_update, "_walk_back": on_walk,
                 "result": on_result}
    for method, span in SOLVER_HOOKS:
        t.patch(st, method, span, callbacks.get(method), restore=False)


def _instrument_support(t: Tracer, sg, cover) -> None:
    t.defer(lambda: t.count("thinning.support_edges_in", _distinct_edges(cover.paths)))

    def on_cycle(args, cycle):
        if cycle is not None:
            t.count("thinning.cycles")

    def on_cover(args, out):
        t.defer(lambda: t.count("thinning.support_edges_out", _distinct_edges(out.paths)))

    callbacks = {"find_red_cycle": on_cycle, "to_cover": on_cover}
    for method, span in SUPPORT_HOOKS:
        t.patch(sg, method, span, callbacks.get(method), restore=False)


def install(t: Tracer, modules) -> None:
    """Hook the library; modules maps a module name to the loaded module."""
    for mod_name, attr, span in MODULE_HOOKS:
        mod = modules.get(mod_name)
        if mod is None:
            t.mark(span, False)
        else:
            t.patch(mod, attr, span)

    inc = modules.get("dagwidth.incremental")
    solver_cls = getattr(inc, "SolverState", None)
    for method, span in SOLVER_HOOKS:
        t.mark(span, solver_cls is not None and hasattr(solver_cls, method))
    if solver_cls is not None:
        def make_state(*args, **kwargs):
            st = solver_cls(*args, **kwargs)
            _instrument_solver(t, st)
            return st
        t.replace(inc, "SolverState", make_state)

    thinning = modules.get("dagwidth.thinning")
    support_cls = getattr(thinning, "SupportGraph", None)
    t.mark(SUPPORT_BUILD, support_cls is not None)
    for method, span in SUPPORT_HOOKS:
        t.mark(span, support_cls is not None and hasattr(support_cls, method))
    if support_cls is not None:
        build_id = t.name_id(SUPPORT_BUILD)

        def make_support(cover, *args, **kwargs):
            i = t.enter(build_id)
            try:
                sg = support_cls(cover, *args, **kwargs)
            finally:
                t.leave(i)
            _instrument_support(t, sg, cover)
            return sg
        t.replace(thinning, "SupportGraph", make_support)


# ------------------------------------------------------------------ metrics

Metric = namedtuple("Metric", "name unit better kind sources")


def _self(name, *spans):
    return Metric(name, "s", "lower", "self", spans)


def _calls(name, span):
    return Metric(name, "count", "lower", "calls", (span,))


def _count(name, span):
    return Metric(name, "count", "lower", "count", (name, span))


PER_LAYER = (
    _self("io.parse_s", "io.parse"),
    _self("io.format_s", "io.format"),
    Metric("io.bytes_in", "bytes", "lower", "count", ("io.bytes_in", "io.parse")),
    _self("dag.build_s", "dag.build"),
    _calls("dag.build_calls", "dag.build"),
    _self("incremental.solve_self_s", "incremental.solve"),
    _self("incremental.sparsify_in_s", "incremental.sparsify_in"),
    _count("incremental.edges_offered", "incremental.sparsify_in"),
    _count("incremental.edges_kept", "incremental.sparsify_in"),
    Metric("incremental.keep_ratio", "ratio", "lower", "ratio",
           ("incremental.edges_kept", "incremental.edges_offered", "incremental.sparsify_in")),
    _self("incremental.search_s", "incremental.search"),
    _count("incremental.popped", "incremental.search"),
    _count("incremental.searches_failed", "incremental.search"),
    _self("incremental.walk_s", "incremental.walk"),
    _calls("incremental.walks", "incremental.walk"),
    _count("incremental.walk_steps", "incremental.walk"),
    _self("incremental.k2_links_s", "incremental.k2_backlinks", "incremental.k2_merge_repair"),
    _self("incremental.k3_repair_self_s", "incremental.k3_repair"),
    _self("incremental.flow_delta_s", "incremental.flow_delta"),
    _self("incremental.update_self_s", "incremental.update"),
    _count("incremental.merges", "incremental.update"),
    _calls("incremental.inserts", "incremental.update"),
    _count("incremental.charge_units", "incremental.result"),
    _self("incremental.result_s", "incremental.result"),
    _self("flow.reduce_s", "flow.reduce"),
    _calls("flow.reduce_calls", "flow.reduce"),
    _self("flow.decompose_s", "flow.decompose"),
    _self("flow.from_cover_s", "flow.from_cover"),
    _self("oracle.validate_s", "oracle.validate"),
    _calls("oracle.validate_calls", "oracle.validate"),
    _self("antichain.max_antichain_s", "antichain.max_antichain"),
    _self("antichain.mcc_s", "antichain.mcc"),
    _self("sparsify.sparsify_all_s", "sparsify.sparsify_all"),
    _self("thinning.thin_s", "thinning.thin", "thinning.to_cover"),
    _self("thinning.support_build_s", SUPPORT_BUILD),
    _self("thinning.cycle_search_s", "thinning.cycle_search"),
    _self("thinning.eliminate_s", "thinning.eliminate", "thinning.pass"),
    _count("thinning.cycles", "thinning.cycle_search"),
    _calls("thinning.passes", "thinning.pass"),
    _count("thinning.support_edges_in", SUPPORT_BUILD),
    _count("thinning.support_edges_out", "thinning.to_cover"),
    _self("thinning.cover_support_s", "thinning.cover_support"),
    _self("trace.unattributed_s", ROOT),
)

# Reported by the run itself: traced over untraced op time, minus one.
OVERHEAD = Metric("trace.overhead_pct", "%", "lower", "run", ())


def per_layer(t: Tracer) -> dict[str, float | str]:
    """Every PER_LAYER metric as a mean per traced op, or ABSENT."""
    selfs = t.self_times()
    calls = t.calls()
    ops = max(t.ops, 1)
    out: dict[str, float | str] = {}
    for m in PER_LAYER:
        if any(t.is_absent(s) for s in m.sources):
            out[m.name] = ABSENT
        elif m.kind == "self":
            out[m.name] = sum(selfs.get(s, 0.0) for s in m.sources) / ops
        elif m.kind == "calls":
            out[m.name] = calls.get(m.sources[0], 0) / ops
        elif m.kind == "count":
            out[m.name] = t.counts.get(m.sources[0], 0) / ops
        else:  # ratio
            den = t.counts.get(m.sources[1], 0)
            out[m.name] = t.counts.get(m.sources[0], 0) / den if den else 0.0
    return out
