"""Command-line surface: generation, estimation, recalibration, analysis.

Exit codes: 0 success, 2 usage or flag validation (each option's range,
NaN and infinity included, is checked as it is parsed), 3 I/O failure,
4 numerical precondition violated at run time (a float64 overflow or
invalid operation, or a non-finite output, included) or a size no
memory holds (``MemoryError``, such as ``--bins 10**12``), in which case
no file is written.  Every output goes through ``io.write_file``, which
rewrites an existing file in place.  ``--config`` points at a
``key=value`` file whose entries act as subcommand defaults; explicit
flags override them.
``--threads`` caps worker parallelism (fallback: the ``MFCAL_THREADS``
environment variable, then the CPUs this process may use); results are
byte-identical for every worker count.

``cascade --dims 2`` streams its container: ``io.write_field_file``
takes the square's shape and the row blocks of ``cascade.product_rows``,
each written before the next is made, so the command holds the line
and one 256 KiB block, never the square (under 1 MiB traced at the
depth-14 cap, whose container is 2 GiB).  A 1-D container is the line.

``holder`` streams a container input through the exponent map's band
sweep (``holder.holder_map`` of an ``io.ContainerRows``): each worker
reads its bands' rows into its tile and checks them there, so the
command holds the map and each worker's band buffers, never the input;
a PGM input is decoded whole.  Its ``--means`` are per-row channel sums
of the map, written by each band and folded in row order, so they are
the same bytes at every ``--threads``.  The first band that fails
decides the error message.

``spectrum --method clt`` maps the cascade's line, never its square: a
product-cascade window of side k at (i, j) holds ``r_k(i) * r_k(j)``,
the line's clipped window sums, so the square's exponent map is
``a(i) + a(j)`` for the line's map ``a`` (equal up to rounding).  The
line is checked against the ``--dims`` cascade's depth cap and
underflow rule.  The 2-D samples are the line's interior columns, the
square's interior along one axis: ``clt_spectrum`` scales their mean
and variance by the number of axes, so the sums are never formed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as fio
from .analysis import excitation_covariance, excitation_report
from .attention import (
    fca_gates,
    init_mono_params,
    init_multi_params,
    lowest_frequency_pairs,
    multi_forward,
    scse_forward,
    se_forward,
    srm_gates,
)
from .cascade import (
    MAX_DEPTH_1D,
    MAX_DEPTH_2D,
    _binomial_line,
    analytic_spectrum,
    binomial_levels,
    product_rows,
)
from .holder import (
    DEFAULT_EPSILON,
    NormState,
    ScaleSet,
    _available_cpus,
    holder_map,
    interior_view,
)
from .selftest import run_acceptance
from .spectrum import clt_spectrum, histogram_spectrum, moments_spectrum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

class UsageError(ValueError):
    """Flag combination that fails a module precondition."""


def _ranged(kind, low=-math.inf, high=math.inf, open_low=False):
    """An argparse type: a finite ``kind`` in [low, high], or in (low, high] if ``open_low``."""
    span = (f"a finite {kind.__name__} in {'(' if open_low or low == -math.inf else '['}"
            f"{low:g}, {high:g}{']' if high < math.inf else ')'}")

    def parse(text: str):
        value = kind(text)
        # abs() < inf refuses NaN and inf, and compares an int of any size exactly
        if not (abs(value) < math.inf
                and (low < value <= high if open_low else low <= value <= high)):
            raise argparse.ArgumentTypeError(f"must be {span}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # text that is no number reads "invalid <kind> value"
    return parse


_THREADS = _ranged(int, 1)


def _parse_scales(text: str) -> ScaleSet:
    """The ``--scales`` type: comma-separated window sides."""
    try:
        return ScaleSet(tuple(int(tok) for tok in text.split(",") if tok))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    try:
        env = os.environ.get("MFCAL_THREADS")
        return _THREADS(env) if env else _available_cpus()
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"MFCAL_THREADS: {exc}") from None


def _read_input_field(path: str) -> np.ndarray:
    with open(path, "rb") as file:
        magic = file.read(4)
        if magic == fio.MAGIC:
            return np.asarray(fio.read_field_file(file), dtype=np.float64)
        if magic[:2] == b"P5":
            file.seek(0)
            return fio.read_pgm(file.read())
    raise fio.ContainerMagicError(f"{path}: neither a field container nor a binary PGM")


def _with_channel_axis(field: np.ndarray) -> np.ndarray:
    return field[:, :, None] if field.ndim == 2 else field


_OVERFLOW = "holds non-finite values (a float64 overflow on this input); nothing was written"


def _write_text(path: str, text: str) -> None:
    fio.write_file(path, (text.encode(),))


def _json_line(record: dict, what: str) -> str:
    """``record`` as one line of strict JSON; a NaN or infinity raises ``ValueError``."""
    try:
        return json.dumps(record, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"the {what} record {_OVERFLOW}") from None


def _refuse_non_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"the output {_OVERFLOW}")


def _write_container(path: str, field: np.ndarray) -> None:
    """Write ``field``, refusing a non-finite one with ``ValueError`` before the file opens."""
    arr = np.asarray(field, dtype=np.float64)
    _refuse_non_finite(arr)
    fio.write_field_file(path, arr[None, :] if arr.ndim == 1 else arr)


# ---------------------------------------------------------------------------
# subcommands


def _cascade_line(p: float, depth: int, dims: int) -> np.ndarray:
    """The line of the ``dims``-axis binomial cascade, checked against its depth cap and
    underflow rule before anything is allocated; a bad ``p`` or depth is a usage error."""
    try:
        return _binomial_line(p, depth, dims)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_cascade(args) -> int:
    line = _cascade_line(args.p, args.depth, args.dims)
    if args.spectrum:
        csv = fio.write_spectrum_csv(analytic_spectrum(args.p, args.points, dims=args.dims))
    if args.dims == 1:  # the container is the line itself
        _write_container(args.out, line)
    else:
        # The line's check covers the square: _check makes the smallest cell a
        # normal float, and every cell is a product of two line values in (0, 1].
        _refuse_non_finite(line)
        fio.write_field_file(args.out, product_rows(line), shape=(line.size, line.size))
    if args.spectrum:
        _write_text(args.spectrum, csv)
    return EXIT_OK


def _cmd_holder(args) -> int:
    try:  # a container is read band by band into the exponent map's tiles
        source = fio.ContainerRows(args.input)
    except fio.ContainerMagicError:  # a PGM, decoded whole
        source = _read_input_field(args.input)
    means = np.empty((2, math.prod(source.shape[2:]))) if args.means else None
    alpha = holder_map(source, args.scales, args.epsilon, threads=_resolve_threads(args),
                       means=means)
    if args.means:  # before any write
        record = _json_line({
            "mean_alpha": [float(v) for v in means[0]],
            "interior_mean_alpha": [float(v) for v in means[1]],
        }, "means")
    _write_container(args.out, _with_channel_axis(alpha))
    if args.means:
        _write_text(args.means, record)
    return EXIT_OK


def _cascade_levels(p: float, dims: int, depth_min: int, depth_max: int):
    if not (1 <= depth_min < depth_max):
        raise UsageError("depth range must satisfy 1 <= --depth-min < --depth-max")
    try:
        return binomial_levels(p, depth_min, depth_max, dims)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_clt_depth(depth: int, dims: int, scales: ScaleSet) -> None:
    """Refuse a ``--depth`` that gives clt fewer than 16 samples, before anything is allocated.

    The 1-D samples are the line's 2**depth exponents.  The 2-D samples
    are the sums over the square's interior along one axis, which must
    hold at least 4 of its 2**depth + 1 - max(floor(s/2)) - max(ceil(s/2))
    cells over the window sides s.
    """
    side = 16 if dims == 1 else 3 + max(s // 2 for s in scales) + max(s - s // 2 for s in scales)
    need = (side - 1).bit_length()  # the smallest depth with 2**depth >= side
    if depth < need:
        cap = MAX_DEPTH_1D if dims == 1 else MAX_DEPTH_2D
        hint = (f"--depth {need} or more" if need <= cap
                else f"a depth of {need}, above the {dims}-D cap of {cap}; use smaller --scales")
        raise UsageError(f"--depth {depth} gives clt fewer than 16 exponent samples at "
                         f"--dims {dims} and --scales {','.join(map(str, scales))}: "
                         f"it needs {hint}")


def _cmd_spectrum(args) -> int:
    if args.method == "histogram":
        levels = _cascade_levels(args.p, args.dims, args.depth_min, args.depth_max)
        curve = histogram_spectrum(levels, bins=args.bins)
        _write_text(args.out, fio.write_spectrum_csv(curve))
    elif args.method == "moments":
        if args.q_min >= args.q_max:
            raise UsageError("--q-min must be below --q-max")
        levels = _cascade_levels(args.p, args.dims, args.depth_min, args.depth_max)
        # --q-max is an order when it lies within a billionth of a step of the grid
        q = np.round(np.arange(args.q_min, args.q_max + 1e-9 * args.q_step, args.q_step), 10)
        if np.any(q[1:] <= q[:-1]):  # the rounding keeps q = 1 exact, but can merge orders
            raise UsageError(f"--q-step {args.q_step:g} merges moment orders, which are "
                             "rounded to 10 decimals; use a coarser --q-step")
        if len(q) < 3:
            raise UsageError(f"--q-min, --q-max and --q-step give {len(q)} moment orders; "
                             "need at least 3")
        partition, _ = moments_spectrum(levels, q)
        _write_text(args.out, fio.write_moments_csv(partition))
    else:  # clt; argparse restricts the choices
        _check_clt_depth(args.depth, args.dims, args.scales)
        line = _cascade_line(args.p, args.depth, args.dims)
        alpha = holder_map(line[None, :], args.scales, epsilon=0.0,
                           threads=_resolve_threads(args))
        samples = alpha[0]
        if args.dims == 2:  # a square view whose rows are the line: its interior rows are one axis
            samples = interior_view(np.broadcast_to(samples, (line.size,) * 2), args.scales)[0]
        curve = clt_spectrum(samples, args.depth, dims=args.dims)
        _write_text(args.out, fio.write_spectrum_csv(curve))
    return EXIT_OK


def _cmd_recalibrate(args) -> int:
    stack = _with_channel_axis(_read_input_field(args.input))
    channels = stack.shape[2]
    rng = np.random.default_rng(args.seed)
    use_bias = not args.strict_paper_mode
    gates_record: dict = {"method": args.method}

    def mono_params():
        try:
            return init_mono_params(channels, args.reduction, rng=rng, use_bias=use_bias)
        except ValueError as exc:
            raise UsageError(f"--reduction with {channels} channels: {exc}") from None

    # every method writes its output into ``stack``, the array the input was read into
    threads = _resolve_threads(args)
    if args.method == "multi":
        alpha = holder_map(stack, args.scales, args.epsilon, threads=threads)
        params = init_multi_params(args.q, float(alpha.min()), float(alpha.max()))
        gate, _ = multi_forward(stack, alpha, params, threads=threads, out=stack)
        gates_record.update(
            gate_min=float(gate.min()),
            gate_max=float(gate.max()),
            gate_mean=float(gate.mean()),
        )
    else:
        if args.method == "cse":
            gates, _ = se_forward(stack, mono_params(), source="features", out=stack)
        elif args.method == "mono":
            gates, _ = se_forward(
                stack, mono_params(), source="alpha-map", scales=args.scales,
                epsilon=args.epsilon, threads=threads, out=stack,
            )
        elif args.method == "scse":
            params = mono_params()
            spatial = rng.normal(scale=1.0 / np.sqrt(channels), size=channels)
            gates, _ = scse_forward(stack, params, spatial, out=stack)
        elif args.method == "srm":
            w_mean = rng.normal(size=channels)
            w_std = rng.normal(size=channels)
            gates = srm_gates(stack, w_mean, w_std, NormState.identity(channels))
            stack *= gates
        else:  # fca; argparse restricts the choices
            params = mono_params()  # a bad --reduction is reported before a bad --groups
            groups = args.groups or min(16, channels)
            if channels % groups or groups > stack.shape[0] * stack.shape[1]:
                raise UsageError(f"--groups {groups} must divide the {channels} channels "
                                 "and be at most H*W (0 means min(16, channels))")
            pairs = lowest_frequency_pairs(groups, stack.shape[0], stack.shape[1])
            gates = fca_gates(stack, params, freq_pairs=pairs)
            stack *= gates
        gates_record["gates"] = [float(g) for g in gates]

    gates_text = _json_line(gates_record, "gate")  # before the first file is written
    _write_container(args.out, stack)
    if args.gates:
        _write_text(args.gates, gates_text)
    return EXIT_OK


def _cmd_excite(args) -> int:
    matrix = _read_input_field(args.input)
    if matrix.ndim != 2:
        raise UsageError("--input must hold a 2-D instances-by-channels matrix")
    center = not args.strict_paper_mode if args.center is None else args.center
    covariance = excitation_covariance(matrix, center=center)
    record = excitation_report(covariance, args.delta)
    _write_text(args.out, fio.excite_record_json(record))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_acceptance(
        strict=args.strict_paper_mode,
        artifacts_dir=args.artifacts,
        threads=_resolve_threads(args),
    )
    if args.json:
        payload = {
            "mode": results[0].mode if results else "default",
            "results": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 4),
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` leaves a parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="mfcal",
        description="Cascade generation, exponent maps, spectra, recalibration.",
    )
    parser.add_argument("--version", action="version", version=f"mfcal {__version__}")
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--threads", type=_THREADS, default=None,
                        help="worker cap (default: MFCAL_THREADS or the CPUs available)")
    parser.add_argument("--strict-paper-mode", action="store_true",
                        help="disable MLP biases and covariance centering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cascade", help="generate a cascade measure")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--spectrum", help="also write the exact spectrum CSV here")
    p.add_argument("--points", type=_ranged(int, 3), default=101)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("holder", help="local exponent map of a field")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scales", type=_parse_scales, default="2,3,4")
    p.add_argument("--epsilon", type=_ranged(float, 0.0), default=DEFAULT_EPSILON)
    p.add_argument("--means", help="write per-channel mean JSON here")
    p.set_defaults(func=_cmd_holder)

    p = sub.add_parser("spectrum", help="estimate a spectrum from cascades")
    p.add_argument("--method", choices=("histogram", "moments", "clt"), required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p.add_argument("--depth-min", type=int, default=8)
    p.add_argument("--depth-max", type=int, default=12)
    p.add_argument("--depth", type=int, default=10, help="single depth (clt)")
    p.add_argument("--bins", type=_ranged(int, 4), default=32)
    p.add_argument("--q-min", type=_ranged(float), default=-5.0)
    p.add_argument("--q-max", type=_ranged(float), default=5.0)
    p.add_argument("--q-step", type=_ranged(float, 0.0, open_low=True), default=0.25)
    p.add_argument("--scales", type=_parse_scales, default="2,3,4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("recalibrate", help="apply a recalibration function")
    p.add_argument("--method", required=True,
                   choices=("cse", "scse", "srm", "fca", "mono", "multi"))
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gates", help="write the gate record JSON here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--Q", dest="q", type=_ranged(int, 1), default=16)
    p.add_argument("--reduction", type=_ranged(int, 1), default=2)
    p.add_argument("--groups", type=_ranged(int, 0), default=0,
                   help="cosine frequency groups (default: min(16, channels))")
    p.add_argument("--scales", type=_parse_scales, default="2,3,4")
    p.add_argument("--epsilon", type=_ranged(float, 0.0), default=DEFAULT_EPSILON)
    p.set_defaults(func=_cmd_recalibrate)

    p = sub.add_parser("excite", help="excitation covariance SVD threshold")
    p.add_argument("--input", required=True,
                   help="container holding an instances-by-channels matrix")
    p.add_argument("--delta", type=_ranged(float, 0.0, 1.0, open_low=True), default=0.95)
    center = p.add_mutually_exclusive_group()
    center.add_argument("--center", dest="center", action="store_true", default=None)
    center.add_argument("--no-center", dest="center", action="store_false")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_excite)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--json", action="store_true")
    p.add_argument("--artifacts", help="keep deterministic artifacts here")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _load_config(path: str) -> list:
    """Turn key=value lines into flag tokens inserted after the subcommand."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key=value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens.append(f"--{key}={value}")
    return tokens


def _inject_config(argv: list) -> list:
    """Splice config-derived tokens right after the subcommand so explicit
    flags (which come later) win."""
    config_path = None
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                break
            config_path = argv[i + 1]
            i += 2
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
            i += 1
        elif token == "--threads":
            i += 2
        elif token.startswith("--"):
            i += 1
        else:
            break  # subcommand position
    if config_path is None or i >= len(argv):
        return argv
    return argv[: i + 1] + _load_config(config_path) + argv[i + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_inject_config(argv))
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except SystemExit as exc:  # argparse's usage errors, --help and --version
        return int(exc.code or 0)
    except FloatingPointError as exc:
        print(f"mfcal: float64 arithmetic failed on this input ({exc}); nothing was written",
              file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # a size no memory holds, such as --bins 10**12
        print(f"mfcal: out of memory ({exc}); nothing was written", file=sys.stderr)
        return EXIT_NUMERIC
    except UsageError as exc:
        print(f"mfcal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, fio.ContainerError, fio.PgmError) as exc:
        print(f"mfcal: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"mfcal: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
