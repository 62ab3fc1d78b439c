"""End-to-end command-line behaviour: outputs, exit codes, determinism."""

import builtins
import errno
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfcal import __version__
from mfcal import io as fio
from mfcal.cli import main
from mfcal.io import ContainerMagicError, read_field, read_field_file, write_field


def run(*argv):
    return main([str(a) for a in argv])


class TestCascadeCommand:
    def test_uniform_cascade(self, tmp_path):
        out = tmp_path / "c.mfr"
        assert run("cascade", "--p", 0.5, "--depth", 3, "--dims", 1, "--out", out) == 0
        field = read_field(out.read_bytes())
        np.testing.assert_allclose(field, np.full((1, 8), 0.125), rtol=0, atol=0)

    def test_spectrum_sidecar_contains_the_support_dimension(self, tmp_path):
        out = tmp_path / "c.mfr"
        csv = tmp_path / "s.csv"
        assert run("cascade", "--p", 0.6667, "--depth", 4, "--dims", 2,
                   "--out", out, "--spectrum", csv) == 0
        rows = csv.read_text().strip().split("\n")[1:]
        assert any(row.endswith(",2") for row in rows)

    def test_invalid_probability_is_a_usage_error(self, tmp_path):
        assert run("cascade", "--p", 1.0, "--depth", 3,
                   "--out", tmp_path / "x.mfr") == 2

    def test_depth_over_the_cap_is_a_usage_error(self, tmp_path):
        assert run("cascade", "--p", 0.5, "--depth", 15, "--dims", 2,
                   "--out", tmp_path / "x.mfr") == 2


class TestHolderCommand:
    def test_uniform_field_mean_exponent(self, tmp_path):
        src = tmp_path / "in.mfr"
        src.write_bytes(write_field(np.full((32, 32), 0.7)))
        out = tmp_path / "alpha.mfr"
        means = tmp_path / "means.json"
        assert run("holder", "--input", src, "--out", out, "--epsilon", 0,
                   "--means", means) == 0
        record = json.loads(means.read_text())
        assert record["interior_mean_alpha"][0] == pytest.approx(2.0, abs=1e-9)

    def test_missing_input_is_an_io_error(self, tmp_path, capsys):
        code = run("holder", "--input", tmp_path / "absent.mfr",
                   "--out", tmp_path / "o.mfr")
        assert code == 3
        assert "absent.mfr" in capsys.readouterr().err

    def test_negative_values_are_a_numeric_error(self, tmp_path):
        src = tmp_path / "neg.mfr"
        src.write_bytes(write_field(np.array([[1.0, -1.0], [0.5, 0.5]])))
        assert run("holder", "--input", src, "--out", tmp_path / "o.mfr") == 4

    def test_zero_mass_windows_at_epsilon_zero_are_a_numeric_error(self, tmp_path, capsys):
        field = np.zeros((8, 8))
        field[0, 0] = 1.0
        src = tmp_path / "spike.mfr"
        src.write_bytes(write_field(field))
        out = tmp_path / "alpha.mfr"
        means = tmp_path / "means.json"
        assert run("holder", "--input", src, "--out", out, "--epsilon", 0,
                   "--means", means) == 4
        assert not out.exists() and not means.exists()
        assert "windowed masses are <= 0" in capsys.readouterr().err


    def test_field_without_an_unclipped_interior_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "tiny.mfr"
        src.write_bytes(write_field(np.full((3, 3), 0.5)))
        out = tmp_path / "alpha.mfr"
        means = tmp_path / "means.json"
        assert run("holder", "--input", src, "--out", out, "--means", means) == 4
        assert not out.exists() and not means.exists()
        assert "too small" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_moments_tau_at_one_vanishes(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run("spectrum", "--method", "moments", "--p", 0.6667,
                   "--depth-min", 7, "--depth-max", 10, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        tau_by_q = {float(q): float(tau) for q, tau, *_ in rows}
        assert abs(tau_by_q[1.0]) < 1e-9

    def test_unknown_method_is_a_usage_error(self, tmp_path):
        assert run("spectrum", "--method", "wavelet", "--p", 0.5,
                   "--out", tmp_path / "x.csv") == 2

    def test_histogram_writes_a_curve(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("spectrum", "--method", "histogram", "--p", 0.6667,
                   "--depth-min", 7, "--depth-max", 10, "--bins", 12,
                   "--out", out) == 0
        assert out.read_text().startswith("alpha,f\n")

    @pytest.mark.parametrize("p", [0.9, 0.95])
    def test_clt_is_finite_on_deep_skewed_cascades(self, tmp_path, p):
        # depth-10 cell masses span 19-26 decades; every window mass stays > 0
        out = tmp_path / "clt.csv"
        assert run("spectrum", "--method", "clt", "--p", p, "--dims", 2,
                   "--depth", 10, "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,f"
        curve = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(np.isfinite(curve))
        assert curve[:, 1].max() == 2.0


class TestCascadePreconditions:
    @pytest.mark.parametrize("argv", [
        ["cascade", "--depth", 27],
        ["spectrum", "--method", "histogram", "--dims", 2, "--depth-max", 15],
        ["spectrum", "--method", "moments", "--p", 0],
        ["spectrum", "--method", "clt", "--dims", 2, "--depth", 15],
        ["spectrum", "--method", "clt", "--depth", 0],
        ["spectrum", "--method", "histogram", "--depth-min", 9, "--depth-max", 9],
    ], ids=lambda argv: " ".join(str(a) for a in argv))
    def test_bad_p_or_depth_is_a_usage_error_that_writes_nothing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        p = [] if "--p" in argv else ["--p", 0.6]
        assert run(*argv, *p, "--out", out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("mfcal: ")

    @pytest.mark.parametrize("dims, depth_max", [(1, 27), (2, 15)])
    def test_an_over_cap_depth_range_fails_before_building_a_field(self, dims, depth_max,
                                                                   tmp_path, monkeypatch):
        # the cascade module touches NumPy only to allocate and double cells,
        # so an over-cap range must fail without one NumPy call there; the
        # first call raises, so a regression fails without building a field
        import mfcal.cascade as cascade

        used = []

        class Refusing:
            def __getattr__(self, name):
                used.append(name)
                raise AssertionError(f"np.{name} reached before the depth cap check")

        monkeypatch.setattr(cascade, "np", Refusing())
        out = tmp_path / "h.csv"
        code = run("spectrum", "--method", "histogram", "--p", 0.6, "--dims", dims,
                   "--depth-min", 8, "--depth-max", depth_max, "--out", out)
        assert used == []
        assert code == 2
        assert not out.exists()


def stack_file(tmp_path, channels=4):
    rng = np.random.default_rng(5)
    src = tmp_path / "stack.mfr"
    src.write_bytes(write_field(rng.uniform(0.1, 1.0, (8, 8, channels))))
    return src


class TestRecalibrateCommand:
    @pytest.mark.parametrize("method", ["cse", "scse", "srm", "fca", "mono", "multi"])
    def test_gates_live_in_the_open_unit_interval(self, method, tmp_path):
        src = stack_file(tmp_path)
        out = tmp_path / "out.mfr"
        gates = tmp_path / "gates.json"
        assert run("recalibrate", "--method", method, "--input", src,
                   "--out", out, "--gates", gates, "--groups", 4,
                   "--Q", 4, "--seed", 7) == 0
        record = json.loads(gates.read_text())
        if "gates" in record:
            values = record["gates"]
            assert len(values) == 4
        else:
            values = [record["gate_min"], record["gate_max"]]
        assert all(0.0 < g < 1.0 for g in values)
        assert read_field(out.read_bytes()).shape == (8, 8, 4)

    @pytest.mark.parametrize("method", ["cse", "scse", "srm", "fca", "mono", "multi"])
    def test_the_output_is_the_input_recalibrated_by_its_recorded_gates(self, method, tmp_path):
        src = stack_file(tmp_path)
        out, gates = tmp_path / "out.mfr", tmp_path / "gates.json"
        assert run("recalibrate", "--method", method, "--input", src, "--out", out,
                   "--gates", gates, "--groups", 4, "--Q", 4) == 0
        stack, result = read_field(src.read_bytes()), read_field(out.read_bytes())
        record = json.loads(gates.read_text())
        if method == "multi":
            gate = result - stack
            assert gate.min() == pytest.approx(record["gate_min"], abs=1e-15)
            assert gate.max() == pytest.approx(record["gate_max"], abs=1e-15)
        elif method == "scse":
            # a maxout of the channel branch and a spatial branch, both gated below one
            assert np.all(result >= stack * np.array(record["gates"]))
            assert np.all(result < stack)
        else:
            assert result.tobytes() == (stack * np.array(record["gates"])).tobytes()

    def test_mono_zeroed_mlp_halves_the_stack(self, tmp_path):
        # seed-initialized weights are irrelevant once the second layer is
        # zeroed, so drive the gate to exactly one half through strict mode
        src = stack_file(tmp_path)
        out = tmp_path / "out.mfr"
        rng_stack = read_field(src.read_bytes())
        assert run("--strict-paper-mode", "recalibrate", "--method", "mono",
                   "--input", src, "--out", out, "--seed", 0) == 0
        result = read_field(out.read_bytes())
        gates = result / rng_stack
        assert np.all((gates > 0.0) & (gates < 1.0))


def extreme_input(kind, shape):
    """Finite inputs at the edges of float64; the last axis holds the channels."""
    values = np.ones(shape)
    if kind == "checkerboard":
        values[np.indices(shape[:2]).sum(axis=0) % 2 == 1] = 1e308
    elif kind == "mixed":
        values[..., :2] = 1e300  # channels of 1e300 beside channels of 1.0
    else:
        values[:] = {"huge": 1e308, "subnormal": 1e-320, "zeros": 0.0, "constant": 0.7}[kind]
    return values


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestFiniteOutput:
    # input -> whether every command must exit 4 on it: every entry is finite, but
    # window sums, pooled means and the covariance overflow float64
    MUST_EXIT_4 = {"checkerboard": True, "huge": True, "mixed": False, "subnormal": False,
                   "zeros": False, "constant": False}

    @pytest.mark.parametrize("kind", list(MUST_EXIT_4))
    @pytest.mark.parametrize("command", ["holder", "cse", "scse", "srm", "fca", "mono", "multi",
                                         "excite", "excite-no-center"])
    def test_an_extreme_input_exits_0_with_finite_outputs_or_4_naming_the_overflow(
            self, command, kind, tmp_path, capsys):
        # a NumPy RuntimeWarning raises here (see pyproject.toml), so none reaches stderr
        excite = command.startswith("excite")
        src = tmp_path / "in.mfr"
        src.write_bytes(write_field(extreme_input(kind, (6, 4) if excite else (16, 16, 4))))
        out, record = tmp_path / "out.mfr", tmp_path / "record.json"
        if command == "holder":
            argv = ["holder", "--input", src, "--out", out, "--means", record]
        elif excite:
            center = "--no-center" if command == "excite-no-center" else "--center"
            argv = ["excite", "--input", src, center, "--out", record]
        else:
            argv = ["recalibrate", "--method", command, "--input", src, "--out", out,
                    "--gates", record]
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 4 or not self.MUST_EXIT_4[kind], err
        if code == 0:
            assert err == ""
            if out.exists():
                assert np.isfinite(read_field(out.read_bytes())).all()
            strict_json(record.read_text())
        else:
            assert code == 4, err
            assert not out.exists() and not record.exists()
            assert err.count("\n") == 1 and err.startswith("mfcal:") and "overflow" in err, err

    def test_a_non_finite_container_is_refused_before_its_file_opens(self, tmp_path):
        from mfcal.cli import _write_container

        out = tmp_path / "out.mfr"
        with pytest.raises(ValueError, match="non-finite"):
            _write_container(str(out), np.array([[1.0, np.inf]]))
        assert not out.exists()

    def test_a_non_finite_json_record_is_refused(self):
        from mfcal.cli import _json_line
        from mfcal.io import excite_record_json

        with pytest.raises(ValueError, match="non-finite"):
            _json_line({"gates": [0.5, float("nan")]}, "gate")
        with pytest.raises(ValueError):
            excite_record_json({"delta": 0.95, "k": 1, "singular_values": [float("inf")]})


def _counted(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


class TestReductionRange:
    METHODS = ["cse", "scse", "srm", "fca", "mono", "multi"]

    @pytest.mark.parametrize("method, reduction", [(m, 0) for m in METHODS]
                             + [(m, 64) for m in ("cse", "scse", "fca", "mono")])
    def test_out_of_range_reduction_is_a_usage_error_that_writes_nothing(
            self, method, reduction, tmp_path, capsys):
        src = stack_file(tmp_path, channels=64)
        out, gates = tmp_path / "out.mfr", tmp_path / "gates.json"
        assert run("recalibrate", "--method", method, "--input", src, "--out", out,
                   "--gates", gates, "--reduction", reduction, "--Q", 4) == 2
        assert not out.exists() and not gates.exists()
        assert "--reduction" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["cse", "scse", "fca", "mono"])
    def test_a_reduction_one_below_the_channel_count_runs(self, method, tmp_path):
        src = stack_file(tmp_path, channels=64)
        assert run("recalibrate", "--method", method, "--input", src,
                   "--out", tmp_path / "out.mfr", "--reduction", 63) == 0


class TestFcaGroups:
    @pytest.mark.parametrize("groups, code", [(-1, 2), (3, 2), (65, 2), (0, 0), (2, 0)])
    def test_a_bad_group_count_is_a_usage_error_that_writes_nothing(
            self, groups, code, tmp_path, capsys):
        src = stack_file(tmp_path)  # 8x8x4: 64 frequency pairs, group counts 1, 2 and 4
        out, gates = tmp_path / "out.mfr", tmp_path / "gates.json"
        assert run("recalibrate", "--method", "fca", "--input", src, "--out", out,
                   "--gates", gates, "--groups", groups) == code
        assert out.exists() == gates.exists() == (code == 0)
        assert ("--groups" in capsys.readouterr().err) == (code != 0)


class TestGatePasses:
    @pytest.mark.parametrize("method", ["cse", "scse", "srm", "fca", "mono", "multi"])
    def test_each_method_computes_its_gates_once(self, method, tmp_path, monkeypatch):
        import mfcal.attention as attention
        import mfcal.cli as cli

        calls = []
        for name, value in list(vars(cli).items()):
            if (getattr(value, "__module__", None) == attention.__name__
                    and name.endswith(("_forward", "_gates"))):
                monkeypatch.setattr(cli, name, _counted(value, calls))
        rng = np.random.default_rng(5)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, (8, 8, 4))))
        assert run("recalibrate", "--method", method, "--input", src,
                   "--out", tmp_path / "out.mfr", "--groups", 4, "--Q", 4) == 0
        assert len(calls) == 1, calls


class TestRecalibrateMemory:
    """Traced peak of one in-process ``recalibrate`` call on a 56x56x64 stack.

    The input is read into one stack-sized array and every method writes
    its output back into it.  cse, scse, srm and fca add only their chunk
    buffers, a few (C,) vectors and the output's finiteness mask on top.
    mono also holds the exponent map and the band buffers of
    ``holder_map``: at ``--threads 1`` its peak measured 4.51 MiB, 1.95
    stacks above the input, and it is not pinned here.
    """

    @pytest.mark.parametrize("method", ["cse", "scse", "srm", "fca"])
    def test_the_peak_above_the_input_stays_under_half_a_stack(self, method, tmp_path):
        stack = np.maximum(np.random.default_rng(40).normal(size=(56, 56, 64)), 0.0)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(stack))
        tracemalloc.start()
        try:
            code = run("--threads", 1, "recalibrate", "--method", method, "--input", src,
                       "--out", tmp_path / "out.mfr", "--gates", tmp_path / "gates.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - stack.nbytes <= 0.5 * stack.nbytes, peak


class TestExciteCommand:
    def test_low_rank_gate_matrix(self, tmp_path):
        rng = np.random.default_rng(11)
        base = rng.uniform(0.2, 0.8, 6)
        rows = np.clip(base + rng.normal(scale=1e-4, size=(40, 6)), 0.01, 0.99)
        src = tmp_path / "e.mfr"
        src.write_bytes(write_field(rows))
        out = tmp_path / "e.json"
        assert run("excite", "--input", src, "--delta", 0.95, "--out", out) == 0
        record = json.loads(out.read_text())
        assert list(record) == ["delta", "k", "singular_values"]
        assert 1 <= record["k"] <= 6

    def test_delta_bounds_are_usage_errors(self, tmp_path):
        src = tmp_path / "e.mfr"
        src.write_bytes(write_field(np.eye(3)))
        assert run("excite", "--input", src, "--delta", 0.0,
                   "--out", tmp_path / "x.json") == 2
        assert run("excite", "--input", src, "--delta", 1.5,
                   "--out", tmp_path / "x.json") == 2


class TestOutputRewrite:
    """An existing output is rewritten in place and cut to its new length."""

    # command -> (argv before the outputs, whether it reads --input, output flags)
    COMMANDS = {
        "holder": (["holder", "--scales", "2,3"], True, ("--out", "--means")),
        "recalibrate": (["recalibrate", "--method", "mono"], True, ("--out", "--gates")),
        "spectrum": (["spectrum", "--method", "moments", "--p", 0.7, "--depth-min", 4,
                      "--depth-max", 6], False, ("--out",)),
        "cascade": (["cascade", "--p", 0.7, "--depth", 5, "--dims", 2], False,
                    ("--out", "--spectrum")),
        "excite": (["excite"], True, ("--out",)),
    }

    @staticmethod
    def write_input(path, shape=(12, 12, 4)):
        path.write_bytes(write_field(np.random.default_rng(3).uniform(0.1, 1.0, shape)))
        return path

    def run_into(self, command, src, outputs):
        head, reads_input, flags = self.COMMANDS[command]
        argv = head + (["--input", src] if reads_input else [])
        for flag, path in zip(flags, outputs):
            argv += [flag, path]
        return run(*argv)

    def fresh_bytes(self, command, src, directory):
        directory.mkdir()
        outputs = [directory / flag.strip("-") for flag in self.COMMANDS[command][2]]
        assert self.run_into(command, src, outputs) == 0
        return [path.read_bytes() for path in outputs]

    @pytest.mark.parametrize("state", ["absent", "longer", "shorter"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_an_output_ends_byte_equal_to_a_fresh_write(self, command, state, tmp_path):
        src = self.write_input(tmp_path / "in.mfr", (10, 4) if command == "excite"
                               else (12, 12, 4))
        expected = self.fresh_bytes(command, src, tmp_path / "fresh")
        outputs = [tmp_path / f"{flag.strip('-')}.out" for flag in self.COMMANDS[command][2]]
        for path, blob in zip(outputs, expected):
            size = {"absent": 0, "longer": 2 * len(blob) + 3, "shorter": len(blob) // 2}[state]
            if size:
                path.write_bytes(bytes(range(256)) * (size // 256) + b"\xa5" * (size % 256))
        assert self.run_into(command, src, outputs) == 0
        assert [path.read_bytes() for path in outputs] == expected

    def test_dev_null_takes_the_output_without_a_seek_or_truncate(self, tmp_path):
        if not os.path.exists("/dev/null"):
            pytest.skip("no /dev/null")
        src = self.write_input(tmp_path / "in.mfr")
        assert run("holder", "--input", src, "--out", "/dev/null", "--means", "/dev/null") == 0

    def test_a_pipe_takes_the_bytes_of_a_fresh_write(self, tmp_path):
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout")
        src = self.write_input(tmp_path / "in.mfr")
        [expected, _] = self.fresh_bytes("holder", src, tmp_path / "fresh")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mfcal", "holder", "--scales", "2,3", "--input", str(src),
             "--out", "/dev/stdout"], stdout=subprocess.PIPE, env=env, check=True)
        assert done.stdout == expected

    def test_a_symlinked_output_rewrites_its_target_and_keeps_the_link_and_mode(self, tmp_path):
        src = self.write_input(tmp_path / "in.mfr")
        [expected, _] = self.fresh_bytes("holder", src, tmp_path / "fresh")
        target, link = tmp_path / "target.mfr", tmp_path / "link.mfr"
        target.write_bytes(b"stale" * len(expected))
        target.chmod(0o640)
        link.symlink_to(target)
        assert run("holder", "--scales", "2,3", "--input", src, "--out", link) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_an_input_rewritten_as_its_own_output_gives_the_fresh_bytes(self, tmp_path):
        src = self.write_input(tmp_path / "in.mfr")
        [expected, _] = self.fresh_bytes("holder", src, tmp_path / "fresh")
        # the map has the input's dims, so the old payload is the input itself
        assert run("holder", "--scales", "2,3", "--input", src, "--out", src) == 0
        assert src.read_bytes() == expected

    def test_a_write_that_fails_part_way_leaves_a_file_every_reader_rejects(
            self, tmp_path, monkeypatch, capsys):
        src = self.write_input(tmp_path / "in.mfr")
        out = tmp_path / "out.mfr"
        old = write_field(np.full((12, 12, 4), 0.5))  # the dims of the new map
        out.write_bytes(old)

        class PayloadFails:
            """The real file, except that every write after the zeroed header raises."""

            def __init__(self, file):
                self.file, self.writes = file, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.file.write(data)

            def __getattr__(self, name):
                return getattr(self.file, name)

        monkeypatch.setattr(fio, "open", lambda *a, **k: PayloadFails(builtins.open(*a, **k)),
                            raising=False)
        assert run("holder", "--scales", "2,3", "--input", src, "--out", out) == 3
        assert capsys.readouterr().err.startswith("mfcal:")
        assert out.stat().st_size == len(old)
        with open(out, "rb") as file, pytest.raises(ContainerMagicError):
            read_field_file(file)

    def test_a_command_that_exits_4_never_opens_an_existing_output(
            self, tmp_path, monkeypatch):
        src = tmp_path / "in.mfr"
        src.write_bytes(write_field(extreme_input("checkerboard", (16, 16, 4))))
        out, means = tmp_path / "out.mfr", tmp_path / "means.json"
        out.write_bytes(b"old map")
        means.write_bytes(b"old means")
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(args)
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(fio, "open", recording_open, raising=False)
        assert run("holder", "--input", src, "--out", out, "--means", means) == 4
        assert opened == []
        assert out.read_bytes() == b"old map" and means.read_bytes() == b"old means"


class TestDeterminism:
    def test_outputs_are_byte_identical_across_thread_counts(self, tmp_path):
        # 160 rows of 48 x 8: two row bands of the exponent map
        rng = np.random.default_rng(17)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, (160, 48, 8))))
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"alpha-{threads}.mfr"
            means = tmp_path / f"means-{threads}.json"
            assert run("--threads", threads, "holder", "--input", src,
                       "--out", out, "--means", means) == 0
            outputs.append((out.read_bytes(), means.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_level_set_recalibration_is_byte_identical_across_thread_counts(self, tmp_path):
        # 48 * 48 * 4 positions: more than one block of the level-set passes
        rng = np.random.default_rng(18)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, (48, 48, 4))))
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"multi-{threads}.mfr"
            gates = tmp_path / f"gates-{threads}.json"
            assert run("--threads", threads, "recalibrate", "--method", "multi",
                       "--input", src, "--out", out, "--gates", gates) == 0
            outputs.append((out.read_bytes(), gates.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_seeded_recalibration_is_reproducible(self, tmp_path):
        rng = np.random.default_rng(19)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, (8, 8, 4))))
        blobs = []
        for run_idx in (0, 1):
            out = tmp_path / f"out-{run_idx}.mfr"
            assert run("recalibrate", "--method", "cse", "--input", src,
                       "--out", out, "--seed", 123) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("p = 0.5\ndepth = 3\ndims = 1\n")
        out = tmp_path / "a.mfr"
        assert run("--config", config, "cascade", "--out", out) == 0
        assert read_field(out.read_bytes()).shape == (1, 8)
        out2 = tmp_path / "b.mfr"
        assert run("--config", config, "cascade", "--depth", 4, "--out", out2) == 0
        assert read_field(out2.read_bytes()).shape == (1, 16)

    def test_unknown_config_key_is_a_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("frobnicate = 9\n")
        assert run("--config", config, "cascade", "--p", 0.5, "--depth", 2,
                   "--out", tmp_path / "x.mfr") == 2

    def test_non_utf8_config_is_a_usage_error_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"p = 0.5\ndepth = \xff\n")
        out = tmp_path / "x.mfr"
        assert run("--config", config, "cascade", "--out", out) == 2
        assert f"config file {config} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_an_io_error(self, tmp_path):
        assert run("--config", tmp_path / "absent.cfg", "cascade", "--p", 0.5,
                   "--depth", 2, "--out", tmp_path / "x.mfr") == 3


class TestSelftestCommand:
    def test_json_report_names_every_criterion(self, tmp_path, capsys):
        assert run("selftest", "--json", "--artifacts", tmp_path / "art") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "default"
        assert [r["number"] for r in payload["results"]] == list(range(1, 11))
        assert all(r["passed"] for r in payload["results"])
        assert (tmp_path / "art" / "cascade-2d.mfr").exists()

    def test_failing_criterion_is_named_and_nonzero(self, capsys, monkeypatch):
        import mfcal.selftest as selftest

        def broken(ctx):
            return False, "fixture corrupted"

        patched = list(selftest.CRITERIA)
        patched[0] = (1, "cascade-exactness", 1.0, broken)
        monkeypatch.setattr(selftest, "CRITERIA", tuple(patched))
        assert run("selftest") == 1
        out = capsys.readouterr().out
        assert "FAIL  1 cascade-exactness" in out
        assert "fixture corrupted" in out


class TestThreadsEnvironment:
    def test_env_variable_supplies_the_worker_count(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, (16, 16, 4))))
        monkeypatch.setenv("MFCAL_THREADS", "3")
        assert run("holder", "--input", src, "--out", tmp_path / "o.mfr") == 0

    def test_garbage_env_value_is_a_usage_error(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(24)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, (8, 8, 2))))
        monkeypatch.setenv("MFCAL_THREADS", "many")
        assert run("holder", "--input", src, "--out", tmp_path / "o.mfr") == 2


class TestThreadCap:
    """Threads start only at ``--threads`` > 1 and for an input of two or more units."""

    @staticmethod
    def started_threads(command, shape, threads, tmp_path, monkeypatch):
        rng = np.random.default_rng(25)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(rng.uniform(0.1, 1.0, shape)))
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        argv = ["holder"] if command == "holder" else ["recalibrate", "--method", command]
        assert run("--threads", threads, *argv, "--input", src, "--out", tmp_path / "out.mfr") == 0
        return len(started)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("method, shape", [
        ("mono", (96, 96, 16)),  # three row bands of the exponent map
        ("multi", (48, 48, 4)),  # one band, but two level-set blocks
    ], ids=["mono", "multi"])
    def test_recalibration_starts_threads_only_above_one(self, method, shape, threads,
                                                         tmp_path, monkeypatch):
        started = self.started_threads(method, shape, threads, tmp_path, monkeypatch)
        assert bool(started) == (threads > 1), f"{started} threads started"

    @pytest.mark.parametrize("command, shape", [
        ("holder", (48, 48, 4)),  # one row band
        ("mono", (48, 48, 4)),
        ("multi", (32, 32, 4)),   # one band, and one level-set block of 4096 positions
    ], ids=["holder", "mono", "multi"])
    def test_a_one_unit_input_starts_no_thread(self, command, shape, tmp_path, monkeypatch):
        assert self.started_threads(command, shape, 2, tmp_path, monkeypatch) == 0


class TestParserReuse:
    """main() keeps one parser per process; no call's flags reach the next call."""

    @staticmethod
    def fresh(*argv):
        import mfcal.cli as cli

        cli._build_parser.cache_clear()
        return run(*argv)

    def test_the_parser_is_built_once(self):
        import mfcal.cli as cli

        assert cli._build_parser() is cli._build_parser()

    def test_a_seed_does_not_outlive_its_call(self, tmp_path):
        src = stack_file(tmp_path)
        outs = [tmp_path / f"{name}.mfr" for name in ("seeded", "second", "fresh")]
        assert run("recalibrate", "--method", "cse", "--input", src,
                   "--out", outs[0], "--seed", 7) == 0
        assert run("recalibrate", "--method", "cse", "--input", src, "--out", outs[1]) == 0
        assert self.fresh("recalibrate", "--method", "cse", "--input", src, "--out", outs[2]) == 0
        seeded, second, fresh = (out.read_bytes() for out in outs)
        assert second == fresh != seeded

    @pytest.mark.parametrize("mode, flag", [([], "--no-center"),
                                            (["--strict-paper-mode"], "--center")])
    def test_a_centering_flag_does_not_outlive_its_call(self, mode, flag, tmp_path):
        src = tmp_path / "e.mfr"
        src.write_bytes(write_field(np.random.default_rng(12).uniform(0.2, 0.8, (40, 6))))
        outs = [tmp_path / f"{name}.json" for name in ("flagged", "second", "fresh")]
        assert run(*mode, "excite", "--input", src, flag, "--out", outs[0]) == 0
        assert run(*mode, "excite", "--input", src, "--out", outs[1]) == 0
        assert self.fresh(*mode, "excite", "--input", src, "--out", outs[2]) == 0
        flagged, second, fresh = (out.read_text() for out in outs)
        assert second == fresh != flagged

    @pytest.mark.parametrize("bad", [["--method", "bogus"], ["--method", "cse", "--reduction", 0]])
    def test_a_usage_error_leaves_the_next_call_valid(self, bad, tmp_path):
        src = stack_file(tmp_path)
        assert run("recalibrate", *bad, "--input", src, "--out", tmp_path / "bad.mfr") == 2
        assert run("recalibrate", "--method", "cse", "--input", src,
                   "--out", tmp_path / "second.mfr") == 0
        assert self.fresh("recalibrate", "--method", "cse", "--input", src,
                          "--out", tmp_path / "fresh.mfr") == 0
        assert (tmp_path / "second.mfr").read_bytes() == (tmp_path / "fresh.mfr").read_bytes()

    def test_a_thread_count_does_not_outlive_its_call(self, tmp_path, monkeypatch):
        import mfcal.cli as cli

        seen = []
        holder_map = cli.holder_map

        def recording(*args, threads, **kwargs):
            seen.append(threads)
            return holder_map(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "holder_map", recording)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        src = tmp_path / "f.mfr"
        src.write_bytes(write_field(np.random.default_rng(13).uniform(0.1, 1.0, (8, 8, 2))))
        holder = ("holder", "--input", src, "--out", tmp_path / "o.mfr")
        monkeypatch.setenv("MFCAL_THREADS", "3")
        assert run("--threads", 1, *holder) == 0
        assert run(*holder) == 0
        monkeypatch.delenv("MFCAL_THREADS")
        assert run("--threads", 1, *holder) == 0
        assert run(*holder) == 0
        assert seen == [1, 3, 1, 4]


class TestUsageSurface:
    def test_no_arguments_is_a_usage_error(self):
        assert run() == 2

    def test_version_flag_exits_cleanly(self, capsys):
        assert run("--version") == 0
        assert "mfcal" in capsys.readouterr().out

    def test_python_dash_m_runs_the_cli_from_a_checkout(self):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-m", "mfcal", "--version"],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"mfcal {__version__}"

    def test_multi_with_one_level_set_adds_one_half(self, tmp_path):
        rng = np.random.default_rng(29)
        stack = rng.uniform(0.1, 1.0, (8, 8, 2))
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(stack))
        out = tmp_path / "out.mfr"
        assert run("recalibrate", "--method", "multi", "--Q", 1,
                   "--input", src, "--out", out) == 0
        np.testing.assert_allclose(read_field(out.read_bytes()), stack + 0.5,
                                   rtol=0, atol=0)
