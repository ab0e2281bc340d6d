"""The layers that the benchmark's span recorder wraps must exist and stay on the run path.

``perfbench/spans.py`` wraps each ``(module, function)`` of its ``WRAPPED``
table by name, so a renamed or deleted function breaks the traced benchmark,
and a run that binds a function before the recorder is installed hides that
layer from it.  The table is read here, never edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from communifind import ExperimentConfig, GraphGenSpec, clique, run_baseline, run_pipeline

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the wrapped layers that every run of the pipeline or the baseline calls
_PIPELINE_LAYERS = {
    "identify.draw_embedding",
    "identify.apply_embedding",
    "graphs.generate",
    "expm.expm_action",
    "identify.top_k",
}
_BASELINE_LAYERS = {
    "identify.draw_embedding",
    "identify.apply_embedding",
    "graphs.generate",
    "modularity.modularity_matrix",
    "modularity.temporal_filter",
    "modularity.eigen_l1_scores",
    "modularity.two_means_split",
}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    for mod_name, fn_name, _ in _spans_module().WRAPPED:
        module = importlib.import_module(f"communifind.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"communifind.{mod_name}.{fn_name} is gone"


def test_recorder_sees_every_run_layer():
    cfg = ExperimentConfig(
        background=GraphGenSpec(model="er", n=128, avg_degree=3.0),
        target=clique(8),
        num_backgrounds=2,
        runs=2,
        base_seed=1,
    )
    untraced = (run_pipeline(cfg), run_baseline(cfg, r=5))
    spans = _spans_module()
    traced = []
    methods = ((run_pipeline, _PIPELINE_LAYERS), (lambda c: run_baseline(c, r=5), _BASELINE_LAYERS))
    for method, layers in methods:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(method(cfg))
        finally:
            tracer.uninstall()
        assert layers <= {sp.name for sp in tracer.spans}
    for got, want in zip(traced, untraced):
        for a, b in zip(got, want):
            assert np.array_equal(a.candidates, b.candidates)
