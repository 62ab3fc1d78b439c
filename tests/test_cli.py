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

from mfcal import __version__, cli, holder
from mfcal import io as fio
from mfcal.attention import LEVEL_SET_BYTES
from mfcal.cascade import _binomial_line, generate_binomial, generate_product_2d, make_curve
from mfcal.cli import main
from mfcal.holder import _unclipped_interior, holder_map, interior_view, mean_alpha
from mfcal.io import ContainerMagicError, read_field, read_field_file, read_pgm, write_field
from mfcal.selftest import _analytic_alpha_q
from mfcal.spectrum import CLT_POINTS


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


class TestStreamedSquare:
    """``cascade --dims 2`` writes its square block by block, never holding it."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6667])
    @pytest.mark.parametrize("depth", range(1, 12))
    def test_the_container_is_the_bytes_of_the_outer_product(self, tmp_path, depth, p):
        # depths 1..4 are shorter than one 256 KiB block; np.outer of the line
        # is an oracle that does not go through the row blocks
        out = tmp_path / "c.mfr"
        assert run("cascade", "--p", p, "--depth", depth, "--dims", 2, "--out", out) == 0
        line = _binomial_line(p, depth, 2)
        assert out.read_bytes() == write_field(np.outer(line, line))

    def test_a_longer_file_is_cut_to_the_new_length(self, tmp_path):
        fresh, over = tmp_path / "fresh.mfr", tmp_path / "over.mfr"
        assert run("cascade", "--p", 0.3, "--depth", 7, "--dims", 2, "--out", fresh) == 0
        over.write_bytes(b"\xa5" * (3 * fresh.stat().st_size + 5))
        assert run("cascade", "--p", 0.3, "--depth", 7, "--dims", 2, "--out", over) == 0
        assert over.read_bytes() == fresh.read_bytes()

    def test_dev_null_takes_the_square(self):
        if not os.path.exists("/dev/null"):
            pytest.skip("no /dev/null")
        assert run("cascade", "--p", 0.3, "--depth", 10, "--dims", 2, "--out", "/dev/null") == 0

    def test_the_depth_12_peak_is_at_most_2_mib(self, tmp_path):
        # the square is 128 MiB; the line and one 256 KiB block stay far below 2 MiB
        tracemalloc.start()
        try:
            code = run("cascade", "--p", 0.3, "--dims", 2, "--depth", 12,
                       "--out", tmp_path / "c.mfr")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


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


def container_file(path, field, dtype="<f8"):
    """Write ``field`` to ``path`` as a float64 or (``"<f4"``) float32 container."""
    arr = np.ascontiguousarray(field, dtype=dtype)
    header = b"MFR1" + bytes([1, {"<f4": 0, "<f8": 1}[dtype], arr.ndim])
    path.write_bytes(header + b"".join(int(d).to_bytes(4, "little") for d in arr.shape)
                     + arr.tobytes())
    return path


def force_bands(monkeypatch, shape, rows):
    """Cut the exponent map of a field of ``shape`` into bands of ``rows`` rows (default sides)."""
    channels = shape[2] if len(shape) == 3 else 1
    monkeypatch.setattr(holder, "BAND_BYTES", rows * (shape[1] + 4) * channels * 8)


def as_stack(field):
    return field[:, :, None] if field.ndim == 2 else field


class TestStreamedHolder:
    """``holder`` reads its container band by band; the map is ``holder_map`` of the same values."""

    @pytest.mark.parametrize("dtype", ["<f8", "<f4"], ids=["float64", "float32"])
    @pytest.mark.parametrize("shape, rows", [
        ((29, 23), 4), ((26, 19, 5), 3), ((40, 40, 64), None),
    ], ids=["2d-8-bands", "3d-9-bands", "3d-2-bands-at-the-default"])
    def test_the_map_is_holder_map_of_the_same_array(self, dtype, shape, rows, tmp_path,
                                                     monkeypatch):
        field = np.random.default_rng(60).uniform(0.1, 1.0, shape).astype(dtype)
        src = container_file(tmp_path / "in.mfr", field, dtype)
        if rows is not None:
            force_bands(monkeypatch, shape, rows)
        expected = write_field(holder_map(as_stack(field.astype(np.float64)), threads=1))
        for threads in (1, 2, 3):
            out = tmp_path / f"alpha{threads}.mfr"
            assert run("--threads", threads, "holder", "--input", src, "--out", out) == 0
            assert out.read_bytes() == expected, f"{threads} threads"

    def test_a_pgm_input_is_decoded_whole(self, tmp_path):
        pixels = np.random.default_rng(61).integers(1, 256, (9, 11), dtype=np.uint8)
        src = tmp_path / "in.pgm"
        src.write_bytes(b"P5 11 9 255\n" + pixels.tobytes())
        out = tmp_path / "alpha.mfr"
        assert run("holder", "--input", src, "--out", out) == 0
        expected = holder_map(as_stack(read_pgm(src.read_bytes())), threads=1)
        assert out.read_bytes() == write_field(expected)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_output_may_be_the_input(self, threads, tmp_path, monkeypatch):
        field = np.random.default_rng(62).uniform(0.1, 1.0, (30, 21, 3))
        src = container_file(tmp_path / "in.mfr", field)
        force_bands(monkeypatch, field.shape, 4)
        assert run("--threads", threads, "holder", "--input", src, "--out", src) == 0
        assert src.read_bytes() == write_field(holder_map(field, threads=1))

    def test_a_four_dimensional_container_is_refused_before_any_read(self, tmp_path, monkeypatch,
                                                                      capsys):
        src = container_file(tmp_path / "in.mfr", np.ones((3, 4, 5, 2)))

        def no_reader(rows):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(fio.ContainerRows, "reader", no_reader)
        out, means = tmp_path / "alpha.mfr", tmp_path / "means.json"
        assert run("holder", "--input", src, "--out", out, "--means", means) == 4
        assert capsys.readouterr().err == (
            "mfcal: field must have shape (H, W) or (H, W, C), got (3, 4, 5, 2)\n")
        assert not out.exists() and not means.exists()

    @pytest.mark.parametrize("first, message", [
        (-0.5, "measure must be nonnegative"),
        (1e308, "some windowed masses overflow float64, so their log-log slopes are not "
                "finite; rescale the input"),
    ], ids=["negative", "overflow"])
    def test_the_first_failing_band_decides_the_message_at_every_thread_count(
            self, first, message, tmp_path, monkeypatch, capsys):
        field = np.random.default_rng(63).uniform(0.1, 1.0, (40, 9, 3))
        field[1:3, 4:6, 2] = first  # first band
        field[-1, 0, 0] = np.nan    # last band
        src = container_file(tmp_path / "in.mfr", field)
        force_bands(monkeypatch, field.shape, 4)
        out, means = tmp_path / "alpha.mfr", tmp_path / "means.json"
        for threads in (1, 2, 3):
            assert run("--threads", threads, "holder", "--input", src, "--out", out,
                       "--means", means) == 4
            assert capsys.readouterr().err == f"mfcal: {message}\n", threads
            assert not out.exists() and not means.exists()

    def test_a_nan_in_the_last_band_is_named_not_taken_for_a_zero_mass(self, tmp_path,
                                                                       monkeypatch, capsys):
        field = np.random.default_rng(64).uniform(0.1, 1.0, (40, 9, 3))
        field[-1, 0, 0] = np.nan
        src = container_file(tmp_path / "in.mfr", field)
        force_bands(monkeypatch, field.shape, 4)
        for threads in (1, 2):
            assert run("--threads", threads, "holder", "--input", src, "--epsilon", 0,
                       "--out", tmp_path / "alpha.mfr") == 4
            assert capsys.readouterr().err == "mfcal: field values must be finite\n"

    def test_a_payload_cut_after_the_header_check_is_an_io_error(self, tmp_path, monkeypatch,
                                                                 capsys):
        src = container_file(tmp_path / "in.mfr", np.full((12, 7, 2), 0.5))
        reader = fio.ContainerRows.reader

        def cut_then_read(rows):
            os.truncate(rows.path, os.path.getsize(rows.path) - 8)
            return reader(rows)

        monkeypatch.setattr(fio.ContainerRows, "reader", cut_then_read)
        out = tmp_path / "alpha.mfr"
        assert run("--threads", 1, "holder", "--input", src, "--out", out) == 3
        assert capsys.readouterr().err == "mfcal: container payload ended early\n"
        assert not out.exists()


class TestHolderMeans:
    """The means record: per-row channel sums of the written map, folded in row order."""

    @staticmethod
    def folded(row_sums):
        total = row_sums[0]
        for row in row_sums[1:]:
            total = total + row
        return total

    @pytest.mark.parametrize("shape, rows", [
        ((23, 17, 4), 3), ((30, 26), 7), ((33, 20, 6), None), ((4, 4), None), ((4, 4, 3), 1),
    ], ids=["bands-of-3", "2d-bands-of-7", "one-band", "4x4-one-interior-row",
            "4x4x3-bands-of-1"])
    def test_the_record_is_the_folded_row_sums_of_the_map(self, shape, rows, tmp_path,
                                                          monkeypatch):
        # bands of 3, 7 or 1 rows put band boundaries inside the interior rows (2 to H - 2)
        field = np.random.default_rng(65).uniform(0.1, 1.0, shape)
        src = container_file(tmp_path / "in.mfr", field)
        if rows is not None:
            force_bands(monkeypatch, shape, rows)
        out, means = tmp_path / "alpha.mfr", tmp_path / "means.json"
        texts = set()
        for threads in (1, 2, 3):
            assert run("--threads", threads, "holder", "--input", src, "--out", out,
                       "--means", means) == 0
            texts.add(means.read_text())
        assert len(texts) == 1
        alpha = read_field(out.read_bytes())
        interior_rows, cols = _unclipped_interior(alpha.shape, holder.DEFAULT_SCALES)
        pixels = interior_view(alpha[:, :, 0], holder.DEFAULT_SCALES).size
        expected = {
            "mean_alpha": self.folded(alpha.sum(axis=1)) / (shape[0] * shape[1]),
            "interior_mean_alpha": self.folded(alpha[:, cols].sum(axis=1)[interior_rows]) / pixels,
        }
        assert texts.pop() == json.dumps({key: [float(v) for v in value]
                                          for key, value in expected.items()}) + "\n"
        record = json.loads(means.read_text())
        np.testing.assert_allclose(record["mean_alpha"], mean_alpha(alpha), rtol=1e-12, atol=0)
        np.testing.assert_allclose(record["interior_mean_alpha"],
                                   mean_alpha(interior_view(alpha, holder.DEFAULT_SCALES)),
                                   rtol=1e-12, atol=0)


class TestHolderMemory:
    """Traced peak of one in-process ``holder --means`` on a 128x128x64 container.

    The container is read band by band into each worker's tile, so the
    peak is the map, its finiteness mask (an eighth of it) and each
    worker's tile, row-sum and mass buffers (about 0.2 of a stack at
    this shape); it holds no copy of the input.  Measured: 1.23-1.25
    stacks at one thread and 1.44 at two, where reading the input whole
    took 2.21-2.24 and 2.42.
    """

    @pytest.mark.parametrize("threads, bound", [(1, 1.4), (2, 1.6)])
    def test_the_peak_holds_no_input_stack(self, threads, bound, tmp_path):
        shape = (128, 128, 64)
        src = container_file(tmp_path / "in.mfr", np.random.default_rng(66).uniform(0.1, 1.0, shape))
        stack = np.prod(shape) * 8
        argv = ["--threads", threads, "holder", "--input", src, "--out", tmp_path / "alpha.mfr",
                "--means", tmp_path / "means.json"]
        tracemalloc.start()
        try:
            code = run(*argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= bound * stack, f"{peak / stack:.2f} stacks"


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

    def test_too_few_moment_orders_is_a_usage_error(self, tmp_path, capsys):
        # q from 0 to 0.5 in steps of 0.5 gives two orders; the estimator needs three
        out = tmp_path / "m.csv"
        assert run("spectrum", "--method", "moments", "--p", 0.3, "--q-min", 0,
                   "--q-max", 0.5, "--q-step", 0.5, "--out", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--q-min", "--q-max", "--q-step")), err

    def test_a_q_step_that_merges_orders_is_a_usage_error(self, tmp_path, capsys):
        # orders are rounded to 10 decimals (keeping q = 1 exact), so a step of
        # 1e-11 makes equal orders; that is the step's fault, not a numerical one
        out = tmp_path / "m.csv"
        assert run("spectrum", "--method", "moments", "--p", 0.3, "--q-min", 0,
                   "--q-max", 1e-10, "--q-step", 1e-11, "--out", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("mfcal: ") and "--q-step" in err, err

    def test_moments_at_a_unit_q_step_write_the_exact_alpha(self, tmp_path):
        # each order's alpha comes from that order's own sums, so the orders may
        # be as far apart as the caller likes and the end orders are exact too
        out = tmp_path / "m.csv"
        assert run("spectrum", "--method", "moments", "--p", 0.3, "--q-step", 1,
                   "--out", out) == 0
        lines = out.read_text().split()
        assert lines[0] == "q,tau,alpha,f"
        q, _, alpha, _ = np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T
        assert q.tolist() == list(range(-5, 6))
        np.testing.assert_allclose(alpha, _analytic_alpha_q(0.3, q), rtol=0.0, atol=1e-12)

    def test_moments_f_is_a_dimension_at_huge_orders(self, tmp_path):
        # q * alpha - tau cancels two terms of size 1e20 here; the direct sum
        # puts the weight on the one extreme cell, whose entropy is 0
        out = tmp_path / "m.csv"
        assert run("spectrum", "--method", "moments", "--p", 0.3, "--q-min=-1e20",
                   "--q-max=1e20", "--q-step=5e19", "--out", out) == 0
        q, _, _, f = csv_rows(out.read_text()).T
        assert q.tolist() == [-1e20, -5e19, 0.0, 5e19, 1e20]
        assert np.all((f >= 0.0) & (f <= 1.0))
        np.testing.assert_allclose(f, [0.0, 0.0, 1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

    def test_a_fine_q_step_stops_at_q_max(self, tmp_path):
        # the grid's end slack is a billionth of a step, not of a unit
        out = tmp_path / "m.csv"
        assert run("spectrum", "--method", "moments", "--p", 0.3, "--q-min", 0,
                   "--q-max", 2e-10, "--q-step", 1e-10, "--out", out) == 0
        assert csv_rows(out.read_text())[:, 0].tolist() == [0.0, 1e-10, 2e-10]

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


def square_route(p, depth, dims):
    """The clt CSV the cells give: the cascade built whole, mapped, then its interior.

    The parabola takes NumPy's mean and std of every sample and peaks at
    the support dimension ``dims``.
    """
    field = generate_product_2d(p, depth) if dims == 2 else generate_binomial(p, depth)[None, :]
    alpha = holder_map(field, epsilon=0.0)
    samples = (interior_view(alpha, holder.DEFAULT_SCALES) if dims == 2 else alpha).ravel()
    center, spread = float(samples.mean()), float(samples.std())
    curve = np.linspace(center - 3.0 * spread, center + 3.0 * spread, CLT_POINTS)
    curve[CLT_POINTS // 2] = center
    f = dims - (curve - center) ** 2 / (2.0 * spread ** 2 * depth * np.log(2.0))
    return fio.write_spectrum_csv(make_curve(curve, np.maximum(f, 0.0)))


def csv_rows(text):
    return np.array([[float(v) for v in line.split(",")] for line in text.split()[1:]])


class TestCltLine:
    """``spectrum --method clt`` maps the cascade's line, never its square.

    The square's exponents are sums of two line exponents, a(i) + a(j),
    exact in real arithmetic, so their mean and variance are twice those
    of the line's interior columns, and the 2-D curve moves from the
    square's by rounding only; the 1-D samples are the line's map.
    """

    def clt(self, tmp_path, p, depth, dims, threads=1):
        out = tmp_path / f"clt-{threads}.csv"
        assert run("--threads", threads, "spectrum", "--method", "clt", "--p", p,
                   "--dims", dims, "--depth", depth, "--out", out) == 0
        return out.read_text()

    @pytest.mark.parametrize("p, depth", [
        *((p, depth) for p in (0.1, 0.3, 0.483866, 0.6667, 0.85, 0.95, 0.99)
          for depth in (3, 6, 9)),
        (0.1, 12), (0.99, 12),
    ])
    def test_2d_curve_matches_the_square_route(self, tmp_path, p, depth):
        ours = csv_rows(self.clt(tmp_path, p, depth, 2))
        square = csv_rows(square_route(p, depth, 2))
        assert ours.shape == square.shape
        assert np.abs(ours - square).max() <= 1e-12

    @pytest.mark.parametrize("p, depth", [(0.1, 10), (0.483866, 20), (0.99, 10)])
    def test_1d_curve_is_the_square_routes_bytes(self, tmp_path, p, depth):
        assert self.clt(tmp_path, p, depth, 1) == square_route(p, depth, 1)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_the_bytes_do_not_depend_on_threads(self, tmp_path, dims):
        assert self.clt(tmp_path, 0.3, 10, dims, 1) == self.clt(tmp_path, 0.3, 10, dims, 2)

    def test_the_square_is_never_built(self, tmp_path, monkeypatch):
        def refuse(*_):
            raise AssertionError("spectrum --method clt built the square")

        monkeypatch.setattr(cli, "product_rows", refuse)
        self.clt(tmp_path, 0.3, 8, 2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_depth_10_peak_is_a_twentieth_of_a_field(self, tmp_path, threads):
        # the line, its map and clt's private copy of its interior columns,
        # 2^10 values each; one 2^20 field of pairwise sums would be 1.0
        field = 2 ** 20 * 8
        tracemalloc.start()
        try:
            code = run("--threads", threads, "spectrum", "--method", "clt", "--p", 0.3,
                       "--dims", 2, "--depth", 10, "--out", tmp_path / "clt.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 0.05 * field, f"{peak / field:.3f} fields"


class TestCascadePreconditions:
    @pytest.mark.parametrize("argv", [
        ["cascade", "--depth", 27],
        ["spectrum", "--method", "histogram", "--dims", 2, "--depth-max", 15],
        ["spectrum", "--method", "moments", "--p", 0],
        ["spectrum", "--method", "clt", "--dims", 2, "--depth", 15],
        ["spectrum", "--method", "clt", "--depth", 0],
        # 1e-20 ** 10 is a normal float64, but the square's 1e-20 ** 20 is not
        ["spectrum", "--method", "clt", "--dims", 2, "--p", 1e-20, "--depth", 10],
        ["spectrum", "--method", "histogram", "--depth-min", 9, "--depth-max", 9],
    ], ids=lambda argv: " ".join(str(a) for a in argv))
    def test_bad_p_or_depth_is_a_usage_error_that_writes_nothing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        p = [] if "--p" in argv else ["--p", 0.6]
        assert run(*argv, *p, "--out", out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("mfcal: ")

    @pytest.mark.parametrize("argv", [
        ["cascade", "--depth", 10],
        ["spectrum", "--method", "moments"],
        ["spectrum", "--method", "histogram"],
    ], ids=lambda argv: " ".join(str(a) for a in argv))
    def test_an_underflowing_cascade_is_a_usage_error_that_writes_nothing(self, argv, tmp_path,
                                                                       capsys):
        # 1e-300 ** 8 is far below the smallest normal float64: most cells would
        # be 0, and moments would report tau(0) = -0.132 where the exact value is -1
        out = tmp_path / "out"
        assert run(*argv, "--p", 1e-300, "--out", out) == 2
        assert not out.exists()
        assert "smallest cell" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, scales, need", [
        (1, "2,3,4", 4), (2, "2,3,4", 3), (2, "2,40", 6), (2, "1,2", 3), (1, "2,40", 4),
    ])
    def test_a_clt_depth_with_too_few_samples_is_a_usage_error(self, dims, scales, need,
                                                               tmp_path, capsys, monkeypatch):
        # the smallest working depth is named, and the refusal comes before the
        # cascade module touches NumPy
        import mfcal.cascade as cascade

        out = tmp_path / "clt.csv"
        argv = ["spectrum", "--method", "clt", "--p", 0.3, "--dims", dims, "--scales", scales,
                "--out", out]
        with monkeypatch.context() as patch:
            patch.setattr(cascade, "np", None)
            for depth in range(1, need):
                assert run(*argv, "--depth", depth) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and err.startswith("mfcal: --depth "), err
                assert f"--depth {need} or more" in err, err
                assert not out.exists()
        assert run(*argv, "--depth", need) == 0

    def test_a_clt_depth_the_scales_need_above_the_cap_is_a_usage_error(self, tmp_path,
                                                                         capsys, monkeypatch):
        # without the refusal the map's tiles grow as the side squared, gigabytes here
        import mfcal.cascade as cascade

        monkeypatch.setattr(cascade, "np", None)
        out = tmp_path / "clt.csv"
        assert run("spectrum", "--method", "clt", "--p", 0.3, "--dims", 2, "--depth", 14,
                   "--scales", "2,20000", "--out", out) == 2
        assert "a depth of 15, above the 2-D cap of 14" in capsys.readouterr().err
        assert not out.exists()

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


class TestOptionRanges:
    """Each option's range is its parser type: a bad value exits 2 before any input is read."""

    COMMANDS = {
        "cascade": "cascade --p 0.3 --depth 4 --out {out} --spectrum {side}",
        "holder": "holder --input {stack} --out {out} --means {side}",
        "histogram": "spectrum --method histogram --p 0.3 --out {out}",
        "moments": "spectrum --method moments --p 0.3 --out {out}",
        "clt": "spectrum --method clt --p 0.3 --depth 6 --out {out}",
        "cse": "recalibrate --method cse --input {stack} --out {out} --gates {side}",
        "fca": "recalibrate --method fca --input {stack} --out {out} --gates {side}",
        "mono": "recalibrate --method mono --input {stack} --out {out} --gates {side}",
        "multi": "recalibrate --method multi --input {stack} --out {out} --gates {side}",
        "excite": "excite --input {matrix} --out {out}",
    }
    # (flag, command, a value outside the flag's range); a command that
    # ignores the flag (moments' --bins, clt's --q-step, cse's --epsilon) refuses it too
    OUT_OF_RANGE = [
        ("--threads", "holder", "0"),
        ("--points", "cascade", "2"),
        ("--epsilon", "holder", "-1e-300"),
        ("--epsilon", "mono", "-1"),
        ("--epsilon", "cse", "-1"),
        ("--bins", "histogram", "3"),
        ("--bins", "moments", "3"),
        ("--q-min", "moments", "-inf"),
        ("--q-max", "moments", "-inf"),
        ("--q-step", "moments", "0"),
        ("--q-step", "clt", "-0.25"),
        ("--Q", "multi", "0"),
        ("--reduction", "cse", "0"),
        ("--groups", "fca", "-1"),
        ("--delta", "excite", "0"),
        ("--delta", "excite", "1.5"),
        ("--scales", "holder", "3,2"),
        ("--scales", "clt", "1"),
    ]

    @classmethod
    def command(cls, name, flag, value, tmp_path):
        """The argv of ``name`` with ``flag value``, and the files it would write."""
        matrix = tmp_path / "matrix.mfr"
        matrix.write_bytes(write_field(np.random.default_rng(30).uniform(0.2, 0.8, (40, 6))))
        paths = {"stack": stack_file(tmp_path), "matrix": matrix,
                 "out": tmp_path / "out", "side": tmp_path / "side"}
        argv = [token.format(**paths) for token in cls.COMMANDS[name].split()]
        option = f"{flag}={value}"  # so that argparse takes "-inf" as a value, not a flag
        argv = [option, *argv] if flag == "--threads" else [*argv, option]
        return argv, (paths["out"], paths["side"])

    @pytest.mark.parametrize("value", ["nan", "inf", None], ids=["nan", "inf", "out-of-range"])
    @pytest.mark.parametrize("flag, name, bad", OUT_OF_RANGE,
                             ids=[f"{name}{flag}={bad}" for flag, name, bad in OUT_OF_RANGE])
    def test_a_bad_value_exits_2_naming_the_flag_and_writes_nothing(
            self, flag, name, bad, value, tmp_path, capsys):
        argv, outs = self.command(name, flag, bad if value is None else value, tmp_path)
        assert run(*argv) == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not any(out.exists() for out in outs)

    def test_a_config_value_passes_through_the_same_type(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epsilon = nan\n")
        argv, outs = self.command("holder", "--scales", "2,3,4", tmp_path)
        assert run("--config", config, *argv) == 2
        assert "argument --epsilon: " in capsys.readouterr().err
        assert not any(out.exists() for out in outs)

    @pytest.mark.parametrize("flag, name, value", [
        ("--epsilon", "holder", "0"), ("--delta", "excite", "1"),
        ("--Q", "multi", "1"), ("--bins", "histogram", "4"), ("--points", "cascade", "3"),
        ("--threads", "holder", "1"),
    ])
    def test_a_value_on_the_boundary_runs(self, flag, name, value, tmp_path):
        argv, (out, _) = self.command(name, flag, value, tmp_path)
        assert run(*argv) == 0
        assert out.exists()


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
    ``holder_map``, and multi the exponent map, the gate field and one
    level-set scratch buffer of ``LEVEL_SET_BYTES`` per worker.
    """

    @staticmethod
    def peak_above_the_input(tmp_path, method, threads):
        stack = np.maximum(np.random.default_rng(40).normal(size=(56, 56, 64)), 0.0)
        src = tmp_path / "stack.mfr"
        src.write_bytes(write_field(stack))
        tracemalloc.start()
        try:
            code = run("--threads", threads, "recalibrate", "--method", method, "--input", src,
                       "--out", tmp_path / "out.mfr", "--gates", tmp_path / "gates.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return (peak - stack.nbytes) / stack.nbytes

    @pytest.mark.parametrize("method", ["cse", "scse", "srm", "fca"])
    def test_the_peak_above_the_input_stays_under_half_a_stack(self, method, tmp_path):
        assert self.peak_above_the_input(tmp_path, method, 1) <= 0.5

    # A process's first call of a method allocates about 0.14 stacks more
    # (2.08 for mono, 2.88 and 3.62 for multi), so the pins measure a
    # second call.  mono measured 1.95 stacks above the input at one
    # thread and 1.95 or 2.84 at two, as the second worker's band buffers
    # overlap the first's or not.
    @pytest.mark.parametrize("threads, bound", [(1, 2.25), (2, 3.0)])
    def test_the_mono_peak(self, threads, bound, tmp_path):
        self.peak_above_the_input(tmp_path, "mono", threads)
        assert self.peak_above_the_input(tmp_path, "mono", threads) <= bound

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_multi_peak_is_two_stacks_and_the_level_set_scratch(self, threads, tmp_path):
        # measured 2.74 stacks at one thread and 3.40-3.44 at two; 2.83 and
        # 3.48-3.61 while each membership block still subtracted its max
        stack_bytes = 56 * 56 * 64 * 8
        scratch = threads * LEVEL_SET_BYTES / stack_bytes
        self.peak_above_the_input(tmp_path, "multi", threads)
        assert self.peak_above_the_input(tmp_path, "multi", threads) <= 2.0 + scratch + 0.25


class TestSpectrumMemory:
    """Traced peak of a spectrum over a deep depth range, at the depth caps.

    As cells, the 2-D range would hold 2**28 float64 (2 GiB) at depth 14
    and the 1-D range 2**26 (512 MiB) at depth 26, each with a sorted
    copy on top.  As mass levels, each depth is a few thousand values.
    """

    @pytest.mark.parametrize("argv", [
        ["--method", "moments", "--dims", 2, "--depth-min", 12, "--depth-max", 14],
        ["--method", "histogram", "--depth-min", 10, "--depth-max", 26],
    ], ids=["moments 2-D 12..14", "histogram 1-D 10..26"])
    def test_a_range_to_the_cap_peaks_under_4_mib(self, argv, tmp_path):
        tracemalloc.start()
        try:
            code = run("spectrum", "--p", 0.3, *argv, "--out", tmp_path / "s.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2 ** 20


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
        # the only files opened are the input, read by its header check and by the band sweep
        assert opened and all(args == (str(src), "rb") for args in opened), opened
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
        assert [r["number"] for r in payload["results"]] == [1, 2, 3, 4, 6, 7, 8, 9, 10]
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


class TestOutOfMemory:
    """A size no memory holds exits 4 with one line and writes nothing.

    Each case passes the size that exhausted memory and makes the
    function that would allocate it raise ``MemoryError`` at once, as
    NumPy does ("Unable to allocate 7.28 TiB ..."), so nothing is
    allocated for real.  ``--q-step 1e-12`` is not passed: its orders
    are built before any patched call.
    """

    @pytest.mark.parametrize("target, argv, outputs", [
        ("analytic_spectrum", ["cascade", "--p", 0.3, "--depth", 3, "--out", "{0}",
                               "--spectrum", "{1}", "--points", 10 ** 12], 2),
        ("histogram_spectrum", ["spectrum", "--method", "histogram", "--p", 0.3,
                                "--bins", 10 ** 12, "--out", "{0}"], 1),
        ("moments_spectrum", ["spectrum", "--method", "moments", "--p", 0.3, "--out", "{0}"], 1),
    ], ids=["cascade-points", "histogram-bins", "moments-orders"])
    def test_a_memory_error_exits_4_with_one_line(self, target, argv, outputs, tmp_path,
                                                  monkeypatch, capsys):
        import mfcal.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, target, exhausted)
        paths = [tmp_path / f"out{i}" for i in range(outputs)]
        assert run(*[str(a).format(*paths) for a in argv]) == 4
        err = capsys.readouterr().err
        assert err == "mfcal: out of memory (Unable to allocate 7.28 TiB for an array); " \
                      "nothing was written\n"
        assert not any(path.exists() for path in paths)

    def test_the_real_bin_count_exits_4_with_one_line(self, tmp_path):
        """``--bins 10**12`` through the one-pass binning, under a 2 GiB address-space limit.

        The limit makes every allocation above it fail at once, whatever
        the host's overcommit policy, so the child never holds the terabytes.
        """
        resource = pytest.importorskip("resource")
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "h.csv"

        def limit():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        result = subprocess.run(
            [sys.executable, "-m", "mfcal", "spectrum", "--method", "histogram", "--p", "0.3",
             "--bins", str(10 ** 12), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit, capture_output=True, text=True, timeout=60)
        assert result.returncode == 4, result.stderr
        assert result.stderr.startswith("mfcal: out of memory (")
        assert result.stderr.endswith("); nothing was written\n") and result.stderr.count("\n") == 1
        assert not out.exists()
