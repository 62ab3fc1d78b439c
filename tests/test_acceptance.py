"""Shipping gate: every acceptance criterion at its pinned tolerance.

Runs the same harness as ``mfcal selftest`` and asserts each criterion
individually so a failure names its criterion.  One PASS/FAIL line per
criterion is printed (visible with ``pytest -s`` or on failure).
"""

import pytest

from mfcal.selftest import CRITERIA, run_acceptance

NAMES = [name for _, name, _, _ in CRITERIA]


@pytest.fixture(scope="module")
def results():
    outcome = run_acceptance(strict=False, threads=2)
    for result in outcome:
        print(result.line())
    return {r.name: r for r in outcome}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    result = results[name]
    assert result.passed, result.line()
    if result.limit is not None:
        assert result.seconds <= result.limit, (
            f"{name} took {result.seconds:.2f}s, budget {result.limit:.0f}s"
        )


def test_strict_mode_holds_for_the_parameterized_criteria():
    """The bias-free strict configuration changes criteria 6 and 7 only."""
    from mfcal.selftest import (
        _criterion_gradient_checks,
        _criterion_recalibration_contracts,
    )

    ctx = {"strict": True, "artifacts_dir": None, "threads": 1}
    for check in (_criterion_recalibration_contracts, _criterion_gradient_checks):
        passed, detail = check(ctx)
        assert passed, detail


def test_the_io_criterion_fails_when_a_rewrite_keeps_the_old_tail(monkeypatch):
    """Criterion 10 writes through the file path the CLI ships, so it sees that path's faults."""
    import mfcal.selftest as selftest
    from mfcal import io as fio

    def uncut(path, body, header=b""):
        with open(path, "wb", opener=fio._no_truncate) as file:
            file.write(header)
            for buffer in body:
                file.write(buffer)

    monkeypatch.setattr(fio, "write_file", uncut)
    monkeypatch.setattr(selftest, "CRITERIA", [c for c in CRITERIA if c[1] == "io-round-trips"])
    [result] = run_acceptance()
    assert not result.passed, result.line()


@pytest.mark.parametrize("threads, other", [(1, 2), (2, 1), (3, 2)])
def test_the_kept_artifacts_are_written_at_the_run_thread_count(threads, other, tmp_path,
                                                                monkeypatch):
    """``mfcal --threads N selftest --artifacts DIR`` keeps the set written at N threads."""
    import mfcal.selftest as selftest
    from mfcal.cli import main

    written = {}

    def one_artifact(directory, threads):
        written[directory] = threads
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "a.txt").write_text("same\n")
        return ["a.txt"]

    monkeypatch.setattr(selftest, "_selftest_artifacts", one_artifact)
    monkeypatch.setattr(selftest, "CRITERIA", [c for c in CRITERIA if c[1] == "determinism"])
    keep = tmp_path / "kept"
    assert main(["--threads", str(threads), "selftest", "--artifacts", str(keep)]) == 0
    assert written.pop(keep) == threads
    assert list(written.values()) == [other]
