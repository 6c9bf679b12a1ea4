"""The benchmark tracer must find every liftkit name it wraps.

``perfbench/tracer.py`` patches liftkit internals by owner and attribute
name; a rename in liftkit that leaves a target behind silently drops that
layer from the per-layer metrics.  This reads the tracer and changes
nothing under ``perfbench/``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    with tracer.Tracer() as installed:
        assert installed.missing == []
