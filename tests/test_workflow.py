"""The CI workflow holds only what tier-1 cannot run.

A check written inline in the workflow runs only where the workflow
runs; as a tier-1 test it runs on every checkout.  The one input tier-1
has not got is the benchmark's last line, a JSON record that the
workflow feeds to a short ``python3 -c`` read.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_inline_python_reads_the_benchmark_line():
    lines = re.findall(r"^.*\bpython3? -c\b.*$", WORKFLOW.read_text(), flags=re.MULTILINE)
    inline = [line.strip() for line in lines
              if not line.strip().startswith('echo "$last" | python3 -c ')]
    assert inline == [], f"{len(inline)} inline checks belong in tier-1: {inline}"
