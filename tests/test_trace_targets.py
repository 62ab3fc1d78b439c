"""Every function the traced benchmark wraps must still exist in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    missing = [
        f"mfcal.{t.module}.{t.function}"
        for t in load_targets()
        if not callable(getattr(importlib.import_module(f"mfcal.{t.module}"), t.function, None))
    ]
    assert missing == []
