"""The traced benchmark's wrappers: every target exists, and the CLI's calls are seen."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from mfcal import holder
from mfcal.io import write_field

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_spans().TARGETS


def test_every_traced_target_resolves():
    missing = [
        f"mfcal.{t.module}.{t.function}"
        for t in load_targets()
        if not callable(getattr(importlib.import_module(f"mfcal.{t.module}"), t.function, None))
    ]
    assert missing == []


def test_the_holder_command_records_its_exponent_map_under_main(tmp_path, monkeypatch):
    import mfcal.cli as cli

    src = tmp_path / "in.mfr"
    src.write_bytes(write_field(np.random.default_rng(70).uniform(0.1, 1.0, (24, 10, 3))))
    monkeypatch.setattr(holder, "BAND_BYTES", 4 * (10 + 4) * 3 * 8)  # bands of 4 rows
    argv = ["--threads", "2", "holder", "--input", str(src), "--out", str(tmp_path / "a.mfr"),
            "--means", str(tmp_path / "means.json")]
    with load_spans().Tracer() as tracer:
        assert cli.main(argv) == 0
    names = {span.sid: span.name for span in tracer.spans}
    maps = [span for span in tracer.spans if span.name == "holder.holder_map"]
    assert len(maps) == 1
    assert names.get(maps[0].parent) == "cli.main"
    assert tracer.summary()["holder.holder_map"]["self_s"] > 0.0
