"""Where the traced run hooks into ``resnewt``, and the per-layer metrics.

Names are bound at import time, so each function is patched at the module
where its caller looks it up (``resnewt.cli.parse_input``, not
``resnewt.cayley.parse_input``).  Methods are patched on their class.
"""

from statistics import median

from quantiles import tail
from spans import END, NAME, PARENT, START, layer_self_times, nearest_ancestor

INSERT_CALLERS = {"oracle.triangulation": "oracle", "geometry.clip_halfspace": "clip"}


def install(tracer, records):
    """Patch ``resnewt``; per-instance facts go to ``records[instance]``."""
    from resnewt import cli, geometry, oracle, reconstruct
    from resnewt.kernels import MinorCache

    def keep_state(args, result):
        state = result[0] if isinstance(result, tuple) else result
        records[tracer.instance].update(
            oracle_runs=state.oracle.pipeline_runs,
            init_calls=state.init_calls,
            cache=state.oracle.cache.stats(),
        )

    def keep_emptied(args, result):
        records[tracer.instance]["emptied"] = result

    span = tracer.span
    span(cli, "run", "cli.run")
    span(cli, "_emit", "cli.emit")
    for name in ("parse_input", "check_essential", "preprocess", "build_cayley"):
        span(cli, name, "cayley." + name)
    span(cli, "compute_pi", "reconstruct.compute_pi", on_result=keep_state)
    span(cli, "compute_pi_approx", "reconstruct.compute_pi_approx", on_result=keep_state)
    span(reconstruct, "initialize", "reconstruct.initialize")
    span(reconstruct, "_process", "reconstruct.process", on_result=keep_emptied)
    span(reconstruct, "clip_halfspace", "geometry.clip_halfspace")
    span(reconstruct, "hull_volume", "geometry.hull_volume")
    for name in ("pullback", "xi_of", "facets_x"):
        span(reconstruct.BuildState, name, "reconstruct." + name)
    span(oracle.VertexOracle, "vtx", "oracle.vtx")
    span(oracle.VertexOracle, "triangulation", "oracle.triangulation")
    span(oracle, "rho_vector", "oracle.rho_vector")
    span(geometry.TriangulatedHull, "insert", "geometry.insert")
    span(geometry.TriangulatedHull, "facet_map", "geometry.facet_map")
    tracer.count(geometry, "det_bareiss", "geometry.det", layer="kernels")
    for name in ("hom_sign", "orientation", "volume_predicate"):
        tracer.count(MinorCache, name, "kernels.predicate", layer="kernels")


def layer_metrics(spans, flat, records, approx):
    """Per-layer metrics of one traced pass (see workloads.LAYER_METRICS).

    ``records`` holds per-instance facts: those kept by ``install`` plus
    ``vertices`` and ``facets`` counted from the printed output.
    """
    dur, calls = {}, {}
    fresh_vtx = {s[PARENT] for s in spans if s[NAME] == "oracle.triangulation"}
    vtx_fresh_s = []
    insert = {"recon": [0, 0.0], "oracle": [0, 0.0], "clip": [0, 0.0]}
    for sid, s in enumerate(spans):
        name, d = s[NAME], s[END] - s[START]
        dur[name] = dur.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if sid in fresh_vtx:
            vtx_fresh_s.append(d)
        elif name == "geometry.insert":
            caller = INSERT_CALLERS.get(nearest_ancestor(spans, sid, INSERT_CALLERS), "recon")
            insert[caller][0] += 1
            insert[caller][1] += d

    recs = list(records.values())
    caches = [r["cache"] for r in recs]
    runs = sum(r["oracle_runs"] for r in recs)
    init = sum(r["init_calls"] for r in recs)
    main = runs - init
    hits = sum(c["pure_hits"] + c["hom_hits"] for c in caches)
    misses = sum(c["pure_misses"] + c["hom_misses"] for c in caches)
    flat_calls = {k: v[1] for k, v in flat.items()}
    flat_s = {k: v[2] for k, v in flat.items()}
    vtx_calls = calls.get("oracle.vtx", 0)

    out = {
        "oracle.calls": runs,
        "oracle.memo_hit_ratio": (vtx_calls - runs) / vtx_calls if vtx_calls else 0.0,
        "oracle.call_s_p50": median(vtx_fresh_s),
        "oracle.call_s_tail": tail(vtx_fresh_s)[1],
        "oracle.triangulation_s": dur.get("oracle.triangulation", 0.0),
        "oracle.rho_s": dur.get("oracle.rho_vector", 0.0),
        "kernels.predicate_calls": sum(c["predicate_calls"] for c in caches),
        "kernels.predicate_s": sum(c["predicate_time"] for c in caches),
        "kernels.pure_misses": sum(c["pure_misses"] for c in caches),
        "kernels.hom_misses": sum(c["hom_misses"] for c in caches),
        "kernels.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kernels.entries": max(c["entries"] for c in caches),
        "kernels.clears": sum(c["clears"] for c in caches),
        "geometry.insert_calls": calls.get("geometry.insert", 0),
        "geometry.insert_s": dur.get("geometry.insert", 0.0),
        "geometry.facet_map_calls": calls.get("geometry.facet_map", 0),
        "geometry.facet_map_s": dur.get("geometry.facet_map", 0.0),
        "geometry.det_calls": flat_calls.get("geometry.det", 0),
        "geometry.det_s": flat_s.get("geometry.det", 0.0),
        "geometry.clip_calls": calls.get("geometry.clip_halfspace", 0),
        "geometry.clip_s": dur.get("geometry.clip_halfspace", 0.0),
        "geometry.volume_s": dur.get("geometry.hull_volume", 0.0),
        "reconstruct.init_s": dur.get("reconstruct.initialize", 0.0),
        "reconstruct.init_calls": init,
        "reconstruct.main_calls": main,
        "reconstruct.call_bound_slack": sum(
            r["vertices"] + r["facets"] - (r["oracle_runs"] - r["init_calls"]) for r in recs
        ),
        "reconstruct.pullback_s": dur.get("reconstruct.pullback", 0.0),
        "reconstruct.xi_of_s": dur.get("reconstruct.xi_of", 0.0),
        "reconstruct.approx_calls_to_threshold": main if approx else 0,
        "cli.emit_s": dur.get("reconstruct.facets_x", 0.0) + dur.get("cli.emit", 0.0),
    }
    for caller, (n, secs) in insert.items():
        out["geometry.insert_calls." + caller] = n
        out["geometry.insert_s." + caller] = secs
    for layer, secs in layer_self_times(spans, flat).items():
        out[layer + ".self_s"] = secs
    return out
