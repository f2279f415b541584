"""The names the benchmark's tracer patches must still resolve.

``perfbench/layers.py`` times the program's layers by replacing module
globals and class attributes at their call sites (``campaign_engine.
prepare_measurement_arrays``, ``executor.round_values``, ...).  A rename
in ``src/`` that drops one of those names breaks every traced benchmark
run; installing both layer sets here turns that into a test failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_patch_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    spans = tracer.Tracer()
    try:
        layers.install_campaign_layers(spans)
        layers.install_query_layers(spans)
        patched = list(spans._patches)
    finally:
        spans.restore()
        # The benchmark's top-level modules leave with its path entry.
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
    assert patched
    # Both sets wrap the kernel: the first patch of a name saw the original.
    originals: dict = {}
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert spans._original(owner, attr) is original, (owner, attr)
