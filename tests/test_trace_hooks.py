"""The benchmark's traced run patches names in resnewt; they must all exist.

``perfbench/layers.py`` installs its spans and counters on functions and
methods of the package by name.  A rename that drops one of them would
crash ``perfbench/run.py --trace 1``, so the hooks are installed here, one
small instance runs under them in every mode, and everything is restored.
Every oracle query must pass through ``VertexOracle.vtx``, where the
benchmark times it.
"""

import io
import os

from golden import SYLVESTER

from resnewt import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _text(golden):
    lines = [str(golden["n"])]
    lines += [" ; ".join(" ".join(map(str, p)) for p in s) for s in golden["supports"]]
    return "\n".join(lines + ["projection: full"]) + "\n"


def test_tracer_installs_runs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from layers import install, layer_metrics
    from spans import NAME, PARENT, Tracer

    from resnewt import geometry, reconstruct

    originals = [
        (geometry.TriangulatedHull, "insert", geometry.TriangulatedHull.insert),
        (geometry.TriangulatedHull, "facet_map", geometry.TriangulatedHull.facet_map),
        (geometry, "det_bareiss", geometry.det_bareiss),
        (reconstruct, "hull_volume", reconstruct.hull_volume),
        (reconstruct, "clip_halfspace", reconstruct.clip_halfspace),
        (cli, "run", cli.run),
    ]
    tracer = Tracer()
    records = {}
    install(tracer, records)
    try:
        for owner, name, orig in originals:
            assert getattr(owner, name) is not orig, name
        for i, mode in enumerate(("exact", "approx")):
            tracer.instance = i
            records[i] = {}
            config = cli.RunConfig(mode=mode, stats=True)
            out, err = io.StringIO(), io.StringIO()
            assert cli.run(config, stdin=_text(SYLVESTER), stdout=out, stderr=err) == 0
            records[i].update(vertices=3, facets=3)
    finally:
        tracer.restore()
    for owner, name, orig in originals:
        assert getattr(owner, name) is orig, name
    # The oracle's per-call metrics time the triangulations nested in a
    # VertexOracle.vtx span: a query that goes around vtx would drop out.
    spans = tracer.spans
    fresh = [s for s in spans if s[NAME] == "oracle.triangulation"]
    in_vtx = [s for s in fresh if s[PARENT] is not None and spans[s[PARENT]][NAME] == "oracle.vtx"]
    calls = sum(r["oracle_runs"] for r in records.values())
    assert len(in_vtx) == len(fresh) == calls, "oracle query outside VertexOracle.vtx"
    metrics = layer_metrics(tracer.spans, tracer.flat, records, approx=False)
    assert metrics["oracle.calls"] == calls and metrics["geometry.insert_calls"] > 0
    # Rho is summed inside oracle.rho_vector and the lifted hull is built
    # inside VertexOracle.triangulation, where the benchmark times them:
    # work moved out of either would zero its metric.
    assert metrics["oracle.rho_s"] > 0 and metrics["oracle.triangulation_s"] > 0
