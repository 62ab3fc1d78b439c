"""The CI workflow holds only what tier-1 cannot run.

A check written inline in the workflow runs only where the workflow
runs; as a tier-1 test it runs on every checkout.  The one input tier-1
has not got is the benchmark's last line, a JSON record that the
workflow feeds to a short ``python3 -c`` read.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def matrix_entries() -> list:
    """The matrix's ``include`` entries, their quoted ``key: "value"`` pairs read as text."""
    block = WORKFLOW.read_text().split("include:", 1)[1].split("steps:", 1)[0]
    entries = []
    for dash, key, value in re.findall(r'^\s*(- )?([\w-]+): "([^"]*)"$', block, flags=re.MULTILINE):
        if dash:
            entries.append({})
        entries[-1][key] = value
    return entries


def test_every_inline_python_reads_the_benchmark_line():
    lines = re.findall(r"^.*\bpython3? -c\b.*$", WORKFLOW.read_text(), flags=re.MULTILINE)
    inline = [line.strip() for line in lines
              if not line.strip().startswith('echo "$last" | python3 -c ')]
    assert inline == [], f"{len(inline)} inline checks belong in tier-1: {inline}"


def test_each_smoke_list_names_benchmark_workloads_once():
    # a typo here would fail only on a CI runner; the 3.12 entry and the
    # declared floor (the pinned NumPy) run every workload
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    entries = matrix_entries()
    for entry in entries:
        smoke = entry["smoke"].split()
        assert set(smoke) <= workloads, f"{entry}: no such workload {set(smoke) - workloads}"
        assert len(smoke) == len(set(smoke)), f"{entry}: a workload runs twice"
    full = [entry for entry in entries
            if entry["python-version"] == "3.12" or entry["numpy"].startswith("numpy==")]
    assert len(full) == 2, entries
    for entry in full:
        assert set(entry["smoke"].split()) == workloads, entry
