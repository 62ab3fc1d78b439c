"""The four benchmark workloads: seeded inputs, operations, output checks.

Each workload is a closed loop with one client in one process: the next
operation starts only after the previous one returned and its output
was checked.  CLI operations go through the public entry point
``mfcal.cli.main(argv)`` in process; the training step calls the public
library functions.  Every call into the program is made through a
module attribute looked up at call time, so the traced run's wrappers
see it.

An operation is ``run`` (timed) followed by ``check`` (untimed), which
returns True when the output is right.  ``prepare`` (untimed) writes
inputs an operation needs that earlier operations produced.  Checks use
paths independent of the one under test: a ``--threads 1`` digest, an
eigensolver from NumPy, closed forms, direct window sums, and a
container reader of the benchmark's own.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mfcal import attention, cli, holder

THREADS = 2  # the benchmark host's nproc; results are identical for any count


@dataclass
class Op:
    kind: str
    run: object
    check: object
    prepare: object = None


# ---------------------------------------------------------------------------
# MFR1 containers, written and read without mfcal.io so that checks do not
# go through the I/O layer under test (and the traced run does not count them)


def write_container(path: Path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f8")
    header = b"MFR1" + struct.pack("<BBB", 1, 1, arr.ndim)
    path.write_bytes(header + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def read_container(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != b"MFR1":
        raise ValueError(f"{path}: not an MFR1 container")
    _, code, ndim = struct.unpack_from("<BBB", data, 4)
    dims = struct.unpack_from(f"<{ndim}I", data, 7)
    dtype = {0: "<f4", 1: "<f8"}[code]
    return np.frombuffer(data, dtype=dtype, offset=7 + 4 * ndim).reshape(dims)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _cli(argv: list):
    return lambda: cli.main(argv)


def _relu_normal(rng, shape) -> np.ndarray:
    return np.maximum(rng.normal(size=shape), 0.0)


def direct_alpha(field: np.ndarray, epsilon: float, sides=(2, 3, 4)) -> np.ndarray:
    """Exponent map from explicit clipped window sums, without a summed-area table.

    A window of side k at pixel h covers ``[h - k//2, h - k//2 + k)``;
    zero padding makes the clipped border sums plain window sums.
    """
    x = np.log(np.array(sides, dtype=np.float64))
    weights = (x - x.mean()) / np.dot(x - x.mean(), x - x.mean())
    alpha = 0.0
    for weight, side in zip(weights, sides):
        before = side // 2
        pad = [(before, side - before - 1)] * 2 + [(0, 0)] * (field.ndim - 2)
        sums = sliding_window_view(np.pad(field, pad), (side, side), axis=(0, 1)).sum(axis=(-2, -1))
        alpha = alpha + weight * np.log(sums + epsilon)
    return alpha


# ---------------------------------------------------------------------------


class ExponentMap:
    """``mfcal --threads 2 holder --means`` on 224x224xC uniform measures."""

    name = "exponent-map"
    channels = (32, 64, 128)
    oracle_channels = 4
    setup_reps = 3
    largest_array_bytes = 224 * 224 * 128 * 8

    def __init__(self, work: Path):
        self.work = work
        self.reference: dict = {}
        self.setup_ok = True

    def _paths(self, c: int):
        w = self.work
        return w / f"in{c}.mfr", w / f"alpha{c}.mfr", w / f"means{c}.json"

    def _argv(self, threads: int, c: int) -> list:
        src, out, means = self._paths(c)
        return ["--threads", str(threads), "holder", "--input", str(src),
                "--out", str(out), "--means", str(means)]

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for c in self.channels:
            src, out, means = self._paths(c)
            field = rng.uniform(0.1, 1.0, (224, 224, c))
            write_container(src, field)
            # serial path as the reference for the channel-parallel one,
            # itself checked on a few channels against direct window sums
            code = cli.main(self._argv(1, c))
            ok = code == 0 and np.allclose(
                read_container(out)[:, :, :self.oracle_channels],
                direct_alpha(field[:, :, :self.oracle_channels], holder.DEFAULT_EPSILON),
                rtol=0.0, atol=1e-9)
            self.setup_ok = self.setup_ok and bool(ok)
            self.reference[c] = digest(out)

    @staticmethod
    def _means_match(alpha: np.ndarray, means: Path) -> bool:
        """The means record against means the benchmark takes of the map.

        Compared to 1e-12, not by bytes: the map's memory layout differs
        between the serial and the threaded path, so NumPy's mean sums in
        another order and the printed means differ between ``--threads``
        counts in the last digits.
        """
        record = json.loads(means.read_text())
        expected = {
            "mean_alpha": alpha.mean(axis=(0, 1)),
            # pixels whose windows of sides {2, 3, 4} never clip
            "interior_mean_alpha": alpha[2:-1, 2:-1].mean(axis=(0, 1)),
        }
        return all(np.allclose(record[key], value, rtol=1e-12, atol=0.0)
                   for key, value in expected.items())

    def cycle(self) -> list:
        ops = []
        for c in self.channels:
            src, out, means = self._paths(c)

            def check(code, c=c, out=out, means=means):
                return (code == 0 and digest(out) == self.reference[c]
                        and self._means_match(read_container(out), means))

            ops.append(Op("holder", _cli(self._argv(THREADS, c)), check))
        return ops

    def holder_fields(self) -> list:
        return [read_container(self._paths(c)[0]) for c in self.channels]


class TrainStep:
    """One mono step plus one multi step (Q = 16) on a 224x224x32 stack."""

    name = "train-step"
    shape = (224, 224, 32)
    q = 16
    setup_reps = 1  # one set-up is a whole training step (~7 s)
    largest_array_bytes = 224 * 224 * 32 * 16 * 8  # one (H, W, C, Q) tensor
    probe_crop = 24
    probe_rtol = 1e-4  # the acceptance criterion's finite-difference tolerance

    def __init__(self, work: Path):
        self.work = work
        self.reference = None
        self.setup_ok = True

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.stack = _relu_normal(rng, self.shape)
        self.up_mono = rng.normal(size=self.shape)
        self.up_multi = rng.normal(size=self.shape)
        # frozen statistics, as the CLI uses: per-instance statistics would
        # pool every normalized channel to beta and make the gate constant
        self.mono_params = attention.init_mono_params(self.shape[2], 2, rng=rng)
        arrays = self._step()
        self.reference = self._digest(arrays)
        finite = all(np.all(np.isfinite(a)) for a in arrays)
        self.setup_ok = bool(finite) and self._probes()

    def _step(self) -> list:
        stack, params = self.stack, self.mono_params
        gates, out = attention.se_forward(stack, params, source="alpha-map")
        mono = attention.mono_backward(stack, params, self.up_mono)
        alpha = holder.holder_map(stack, threads=THREADS)
        qparams = attention.init_multi_params(self.q, float(alpha.min()), float(alpha.max()))
        gate, qout = attention.multi_forward(stack, alpha, qparams)
        multi = attention.multi_backward(stack, alpha, qparams, self.up_multi)
        return [gates, out, gate, qout, *vars(mono).values(), *vars(multi).values()]

    @staticmethod
    def _digest(arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def _probes(self) -> bool:
        """Central differences against the analytic gradients on a corner crop.

        Each probe steps the entry with the largest analytic partial.  Stack
        entries are taken from values >= 0.5, so every window keeps a mass
        whose log has bounded curvature.  The level-set loss rectifies some
        18k normalized memberships whose per-instance statistics every
        level-set parameter moves, so its step is smaller, which keeps
        rectifier kinks out of the difference.
        """
        n = self.probe_crop
        stack = self.stack[:n, :n].copy()
        up_mono, up_multi = self.up_mono[:n, :n], self.up_multi[:n, :n]
        params = self.mono_params
        grads = attention.mono_backward(stack, params, up_mono)

        def mono_loss():
            return float((up_mono * attention.se_forward(stack, params, source="alpha-map")[1]).sum())

        alpha = holder.holder_map(stack)
        qparams = attention.init_multi_params(self.q, float(alpha.min()), float(alpha.max()))
        qgrads = attention.multi_backward(stack, alpha, qparams, up_multi)

        def multi_loss():
            return float((up_multi * attention.multi_forward(stack, alpha, qparams)[1]).sum())

        mono_step, multi_step = 1e-5, 1e-7
        probes = [
            (mono_loss, mono_step, params.w1, grads.w1),
            (mono_loss, mono_step, params.w2, grads.w2),
            (mono_loss, mono_step, params.norm.gamma, grads.gamma),
            (mono_loss, mono_step, params.norm.beta, grads.beta),
            (mono_loss, mono_step, stack, grads.stack * (stack >= 0.5)),
            (multi_loss, multi_step, qparams.centers, qgrads.centers),
            (multi_loss, multi_step, qparams.sharpness, qgrads.sharpness),
            (multi_loss, multi_step, qparams.norm.gamma, qgrads.gamma),
            (multi_loss, multi_step, qparams.norm.beta, qgrads.beta),
            (multi_loss, multi_step, alpha, qgrads.alpha),
        ]
        for loss, step, array, analytic in probes:
            at = np.unravel_index(np.argmax(np.abs(analytic)), array.shape)
            old = array[at]
            array[at] = old + step
            up = loss()
            array[at] = old - step
            down = loss()
            array[at] = old
            fd = (up - down) / (2.0 * step)
            an = float(analytic[at])
            if abs(an - fd) / max(abs(an), abs(fd), 1e-6) > self.probe_rtol:
                return False
        return True

    def cycle(self) -> list:
        def check(arrays):
            return (all(np.all(np.isfinite(a)) for a in arrays)
                    and self._digest(arrays) == self.reference)

        return [Op("step", self._step, check)]

    def holder_fields(self) -> list:
        return [self.stack]


class ValidationSweep:
    """32 stacks through ``recalibrate --gates`` per method, then ``excite``."""

    name = "validation-sweep"
    methods = ("cse", "scse", "srm", "fca", "mono")
    instances = 32
    shape = (56, 56, 64)
    delta = 0.95
    setup_reps = 3
    largest_array_bytes = 56 * 56 * 64 * 8

    def __init__(self, work: Path):
        self.work = work
        self.setup_ok = True

    def _stack_path(self, i: int) -> Path:
        return self.work / f"stack{i}.mfr"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for i in range(self.instances):
            write_container(self._stack_path(i), _relu_normal(rng, self.shape))

    def cycle(self) -> list:
        w = self.work
        gates = {m: np.full((self.instances, self.shape[2]), np.nan) for m in self.methods}
        ops = []
        for i in range(self.instances):
            for method in self.methods:
                argv = ["--threads", str(THREADS), "recalibrate", "--method", method,
                        "--input", str(self._stack_path(i)), "--out", str(w / "recal.mfr"),
                        "--gates", str(w / "gates.json")]

                def check(code, method=method, i=i):
                    if code != 0:
                        return False
                    g = np.array(json.loads((w / "gates.json").read_text())["gates"])
                    gates[method][i] = g
                    # closed interval: fca's unnormalized cosine squeeze drives some
                    # sigmoid gates to exactly 1.0 in float64
                    return g.shape == (self.shape[2],) and bool(np.all((g >= 0.0) & (g <= 1.0)))

                ops.append(Op("recalibrate", _cli(argv), check))
        for method in self.methods:
            matrix_path = w / f"gates-{method}.mfr"
            argv = ["--threads", str(THREADS), "excite", "--input", str(matrix_path),
                    "--delta", str(self.delta), "--out", str(w / "excite.json")]

            def prepare(method=method, matrix_path=matrix_path):
                write_container(matrix_path, gates[method])

            def check(code, method=method):
                return code == 0 and self._check_excite(gates[method], w / "excite.json")

            ops.append(Op("excite", _cli(argv), check, prepare))
        return ops

    def _check_excite(self, matrix: np.ndarray, path: Path) -> bool:
        record = json.loads(path.read_text())
        centered = matrix - matrix.mean(axis=0)  # CLI default: centered covariance
        cov = centered.T @ centered / (matrix.shape[0] - 1)
        s = np.sort(np.abs(np.linalg.eigvalsh((cov + cov.T) / 2.0)))[::-1]
        got = np.array(record["singular_values"])
        if got.shape != s.shape or not np.allclose(got, s, rtol=0.0, atol=1e-10 * s[0]):
            return False
        energy = np.cumsum(s ** 2)
        k = int(np.argmax(energy >= self.delta * energy[-1] - 1e-12 * energy[-1])) + 1
        return record["k"] == k

    def holder_fields(self) -> list:
        return [read_container(self._stack_path(i)) for i in range(self.instances)]


class Spectrum:
    """cascade, moments, histogram and clt commands at one seeded p, as one op."""

    name = "spectrum"
    # p >= 0.88 makes ``spectrum --method clt`` exit 4: summed-area-table
    # cancellation at epsilon = 0 leaves non-positive windowed masses.
    p_range = (0.1, 0.85)
    depth_2d = 10
    depths_1d = (10, 20)
    setup_reps = 3
    largest_array_bytes = 2 ** 20 * 8
    tau_tol = 0.02      # moments criterion: max |tau - analytic|
    tau_one_tol = 1e-9  # moments criterion: |tau(1)|
    cascade_tol = 1e-12 # cascade-exactness criterion
    apex_tol = 1e-6     # clt apex vs. direct window sums (SAT rounding differs)

    def __init__(self, work: Path):
        self.work = work
        self.reference: dict = {}
        self.setup_ok = True

    def _commands(self) -> dict:
        w, p = self.work, self.p_text
        lo, hi = (str(d) for d in self.depths_1d)
        t = ["--threads", str(THREADS)]
        return {
            "cascade": (t + ["cascade", "--p", p, "--depth", str(self.depth_2d), "--dims", "2",
                             "--out", str(w / "cascade.mfr"), "--spectrum", str(w / "exact.csv")],
                        [w / "cascade.mfr", w / "exact.csv"]),
            "moments": (t + ["spectrum", "--method", "moments", "--p", p, "--depth-min", lo,
                             "--depth-max", hi, "--out", str(w / "moments.csv")],
                        [w / "moments.csv"]),
            "histogram": (t + ["spectrum", "--method", "histogram", "--p", p, "--depth-min", lo,
                               "--depth-max", hi, "--out", str(w / "histogram.csv")],
                          [w / "histogram.csv"]),
            "clt": (t + ["spectrum", "--method", "clt", "--p", p, "--dims", "2",
                         "--depth", str(self.depth_2d), "--out", str(w / "clt.csv")],
                    [w / "clt.csv"]),
        }

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.p_text = f"{rng.uniform(*self.p_range):.6f}"
        p = float(self.p_text)
        for kind, (argv, outputs) in self._commands().items():
            if cli.main(argv) != 0:
                self.setup_ok = False
                continue
            self.reference[kind] = digest(*outputs)
        if self.setup_ok:
            self.setup_ok = self._check_oracles(p)

    def _closed_form_2d(self, p: float) -> np.ndarray:
        k = self.depth_2d
        idx = np.arange(2 ** k)
        ones = sum((idx >> b) & 1 for b in range(k))
        line = p ** (k - ones) * (1.0 - p) ** ones
        return np.outer(line, line)

    def _check_oracles(self, p: float) -> bool:
        w = self.work
        field = self._closed_form_2d(p)
        cascade_ok = np.abs(read_container(w / "cascade.mfr") - field).max() <= self.cascade_tol

        rows = np.array([[float(x) for x in line.split(",")]
                         for line in (w / "moments.csv").read_text().split()[1:]])
        q, tau = rows[:, 0], rows[:, 1]
        tau_exact = -np.log2(p ** q + (1.0 - p) ** q)  # cascade.analytic_tau
        moments_ok = (np.abs(tau - tau_exact).max() <= self.tau_tol
                      and abs(tau[np.flatnonzero(q == 1.0)[0]]) <= self.tau_one_tol)

        hist = np.array([[float(x) for x in line.split(",")]
                         for line in (w / "histogram.csv").read_text().split()[1:]])
        hist_ok = bool(np.all(np.isfinite(hist)) and np.all(hist[:, 1] >= 0.0)
                       and np.all(np.diff(hist[:, 0]) > 0.0))

        clt = np.array([[float(x) for x in line.split(",")]
                        for line in (w / "clt.csv").read_text().split()[1:]])
        apex = clt[np.argmax(clt[:, 1])]
        interior_mean = direct_alpha(field, 0.0)[2:-1, 2:-1].mean()
        clt_ok = apex[1] == 2.0 and abs(apex[0] - interior_mean) <= self.apex_tol
        return bool(cascade_ok and moments_ok and hist_ok and clt_ok)

    def cycle(self) -> list:
        # One operation is the whole analysis: per-command latencies differ
        # by 10x, so a median over single commands would sit on the edge
        # between two command kinds.
        commands = self._commands()

        def run():
            return {kind: cli.main(argv) for kind, (argv, _) in commands.items()}

        def check(codes):
            return all(codes[kind] == 0 and digest(*outputs) == self.reference[kind]
                       for kind, (_, outputs) in commands.items())

        return [Op("analysis", run, check)]

    def holder_fields(self) -> list:
        return [self._closed_form_2d(float(self.p_text))[:, :, None]]


WORKLOADS = {cls.name: cls for cls in (ExponentMap, TrainStep, ValidationSweep, Spectrum)}
