"""Acceptance harness: one self-contained check per shipping criterion.

Every criterion re-derives its expected values through an independent
route (closed forms, explicit Python loops, dense tensors, finite
differences) and compares the library's vectorized paths against them
at a pinned tolerance, within a pinned runtime budget.  The CLI
``selftest`` command and the acceptance test module both run this
harness.

Each reference lives here once; the tests import it rather than keep a
copy: ``_brute_window_measures`` (window sums), ``_brute_holder`` (the
exponent map), ``_brute_frozen_norm`` (the stored-statistics
normalization), ``_dense_level_sets`` (the level-set forward over a
materialized (..., Q) tensor), the central-difference probe
``_probe_gradient``, and the random draws ``_random_norm``,
``_random_mono_params``, ``_random_level_sets``, ``_random_orthogonal``
and ``_spectrum_matrix``.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as fio
from .analysis import excitation_report, jacobi_eigh, singular_values
from .attention import (
    MonoParams,
    MultiParams,
    dct_basis,
    fca_gates,
    gap,
    init_mono_params,
    init_multi_params,
    mono_backward,
    multi_backward,
    multi_forward,
    multi_membership,
    scse_forward,
    se_forward,
    srm_gates,
)
from .cascade import (
    analytic_alpha,
    analytic_tau,
    bitcount_measure,
    generate_binomial,
    generate_product_2d,
)
from .holder import VAR_EPS, NormState, ScaleSet, holder_map, interior_view, mean_alpha, normalize
from .spectrum import box_dimension, histogram_spectrum, moments_spectrum

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

_SCALES = ScaleSet((2, 3, 4))
_P = 2.0 / 3.0
_ALPHA_1D = analytic_alpha(0.5, _P)      # 1.0849625007211562
_ALPHA_2D = 2.0 * _ALPHA_1D


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    limit: float | None
    detail: str
    mode: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:2d} {self.name} ({self.seconds:.2f}s) {self.detail}"


# ---------------------------------------------------------------------------
# small pure-Python references


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _brute_mlp_gates(z, params: MonoParams):
    hidden = []
    for i in range(params.w1.shape[0]):
        acc = float(params.b1[i]) if params.use_bias else 0.0
        for j in range(len(z)):
            acc += params.w1[i, j] * z[j]
        hidden.append(max(acc, 0.0))
    gates = []
    for i in range(params.w2.shape[0]):
        acc = float(params.b2[i]) if params.use_bias else 0.0
        for j in range(len(hidden)):
            acc += params.w2[i, j] * hidden[j]
        gates.append(_sigmoid(acc))
    return np.array(gates)


def _brute_window_measures(stack, sides, epsilon):
    h, w, c = stack.shape
    out = [np.zeros((h, w, c)) for _ in sides]
    for si, side in enumerate(sides):
        off = side // 2
        for i in range(h):
            r0, r1 = max(0, i - off), min(h, i - off + side)
            for j in range(w):
                c0, c1 = max(0, j - off), min(w, j - off + side)
                for ch in range(c):
                    acc = 0.0
                    for r in range(r0, r1):
                        for cc in range(c0, c1):
                            acc += stack[r, cc, ch]
                    out[si][i, j, ch] = acc + epsilon
    return out


def _brute_holder(stack, sides, epsilon):
    """Per-pixel OLS slope of log mass on log side over the clipped windows.

    Adds ``w_k * log(mass_k)`` with the OLS weights in ascending side
    order, as the library does, so integer-valued stacks agree bit for bit.
    """
    measures = _brute_window_measures(stack, sides, epsilon)
    xs = np.log(np.array(sides, dtype=np.float64))
    dev = xs - xs.mean()
    weights = dev / np.dot(dev, dev)
    alpha = np.zeros(stack.shape)
    for pos in np.ndindex(*stack.shape):
        acc = 0.0
        for weight, mass in zip(weights, measures):
            acc += weight * math.log(mass[pos])
        alpha[pos] = acc
    return alpha


def _brute_frozen_norm(values, state: NormState):
    out = np.zeros_like(values)
    for ch in range(values.shape[-1]):
        scale = math.sqrt(state.running_var[ch] + 1e-5)
        out[..., ch] = (
            (values[..., ch] - state.running_mean[ch]) / scale * state.gamma[ch]
            + state.beta[ch]
        )
    return out


def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _spectrum_matrix(values, rng):
    q = _random_orthogonal(len(values), rng)
    a = q @ np.diag(np.asarray(values, dtype=np.float64)) @ q.T
    return (a + a.T) / 2.0


def _random_norm(channels, rng) -> NormState:
    """Random affine and frozen statistics, drawn in field order."""
    return NormState(rng.uniform(0.5, 1.5, channels), rng.uniform(-0.5, 0.5, channels),
                     rng.uniform(-0.2, 0.2, channels), rng.uniform(0.5, 1.5, channels))


def _random_mono_params(channels, rng, use_bias) -> MonoParams:
    """Reduction-2 MLP, random biases when ``use_bias``, random frozen statistics."""
    params = init_mono_params(channels, 2, rng=rng, use_bias=use_bias)
    if use_bias:
        params.b1 = rng.normal(scale=0.2, size=params.b1.shape)
        params.b2 = rng.normal(scale=0.2, size=params.b2.shape)
    params.norm = _random_norm(channels, rng)
    return params


def _random_level_sets(alpha, q, rng) -> MultiParams:
    """``q`` level sets over the range of ``alpha``, random sharpness and affine."""
    params = init_multi_params(q, float(alpha.min()), float(alpha.max()))
    params.sharpness = rng.uniform(0.5, 2.0, q)
    params.norm.gamma = rng.uniform(0.5, 1.5, q)
    params.norm.beta = rng.uniform(-0.5, 0.5, q)
    return params


def _dense_level_sets(stack, alpha, params: MultiParams):
    """Level-set recalibration over a materialized (..., Q) membership tensor.

    Softmax memberships, each level set standardized by its statistics
    over every position, rectified, summed over the level sets and
    squashed.  Returns ``(gate, stack + gate, (member, normed, cache))``;
    ``cache = (xhat, sigma, gamma, axes)`` is what the normalization's
    reverse reads.
    """
    logits = -params.sharpness * (alpha[..., None] - params.centers) ** 2
    logits -= logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits)
    member = expl / expl.sum(axis=-1, keepdims=True)
    axes = tuple(range(member.ndim - 1))
    sigma = np.sqrt(member.var(axis=axes) + VAR_EPS)
    xhat = (member - member.mean(axis=axes)) / sigma
    normed = params.norm.gamma * xhat + params.norm.beta
    # the pooled sum is >= 0, so exp(-sum) cannot overflow
    gate = 1.0 / (1.0 + np.exp(-np.maximum(normed, 0.0).sum(axis=-1)))
    return gate, stack + gate, (member, normed, (xhat, sigma, params.norm.gamma, axes))


def _probe_gradient(loss, arrays, analytic, rng, count):
    """Worst relative error of analytic partials against central differences.

    Probes ``count`` distinct entries of each named array, drawn without
    replacement (every entry when ``count`` reaches the array's size), at
    step 1e-5, relative to ``max(|analytic|, |fd|, 1e-6)``.  Returns
    ``(error, name, index)`` of the worst entry, so a failure says where.
    """
    step = 1e-5
    worst = (0.0, None, None)
    for name, arr in arrays.items():
        flat = arr.ravel()  # a view: the loss sees each perturbation
        grad = analytic[name].ravel()
        for idx in rng.choice(flat.size, size=min(count, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + step
            up = loss()
            flat[idx] = old - step
            down = loss()
            flat[idx] = old
            fd = (up - down) / (2.0 * step)
            exact = float(grad[idx])
            rel = abs(exact - fd) / max(abs(exact), abs(fd), 1e-6)
            if not math.isfinite(rel):  # NaN compares false: count it as worst
                rel = math.inf
            if rel >= worst[0]:
                worst = (rel, name, int(idx))
    return worst


# ---------------------------------------------------------------------------
# criteria


def _criterion_cascade_exactness(ctx):
    worst = 0.0
    for depth in range(1, 13):
        generated = generate_binomial(_P, depth)
        closed_form = bitcount_measure(_P, depth)
        worst = max(worst, float(np.abs(generated - closed_form).max()))
        exponents = np.round(-np.log2(generated) / depth, 12)
        counts = np.unique(exponents, return_counts=True)[1]
        expected = [math.comb(depth, n0) for n0 in range(depth, -1, -1)]
        if counts.tolist() != expected:
            return False, f"exponent histogram mismatch at depth {depth}"
    ok = worst <= 1e-12
    return ok, f"max |generated - closed form| = {worst:.2e}"


def _criterion_monofractal_limit(ctx):
    field = np.full((128, 128), 0.7)
    alpha = holder_map(field, _SCALES, epsilon=0.0, threads=ctx["threads"])
    interior = interior_view(alpha, _SCALES)
    worst = float(np.abs(interior - 2.0).max())
    mean_err = abs(float(interior.mean()) - 2.0)
    ok = worst <= 1e-9 and mean_err <= 1e-9
    return ok, f"max |alpha - 2| = {worst:.2e}, |mean - 2| = {mean_err:.2e}"


def _criterion_multifractal_oracle(ctx):
    field = generate_product_2d(_P, 10)
    alpha = holder_map(field, _SCALES, epsilon=0.0, threads=ctx["threads"])
    mean = float(interior_view(alpha, _SCALES).mean())
    mean_err = abs(mean - _ALPHA_2D)
    del field, alpha

    depth_fields = [generate_product_2d(_P, k) for k in range(8, 13)]
    # odd bin count centers one bin exactly on the modal exponent
    curve = histogram_spectrum(depth_fields, bins=33)
    del depth_fields
    peak_alpha, peak_f = curve.peak
    ok = (
        mean_err <= 0.05
        and abs(peak_f - 2.0) <= 0.1
        and abs(peak_alpha - _ALPHA_2D) <= 0.1
    )
    return ok, (
        f"mean interior alpha = {mean:.4f} (err {mean_err:.4f}), "
        f"histogram peak = ({peak_alpha:.4f}, {peak_f:.4f})"
    )


def _criterion_moments_method(ctx):
    fields = [generate_binomial(_P, k) for k in range(8, 13)]
    q = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.25), 10)
    partition, curve = moments_spectrum(fields, q)
    tau_err = float(np.abs(partition.tau - analytic_tau(_P, q)).max())
    tau_one = abs(float(partition.tau[np.flatnonzero(q == 1.0)[0]]))
    legendre_gap = float(np.max(curve.f - curve.alpha))
    ok = tau_err <= 0.02 and tau_one <= 1e-9 and legendre_gap <= 1e-6
    return ok, (
        f"max |tau - analytic| = {tau_err:.2e}, |tau(1)| = {tau_one:.2e}, "
        f"max(f - alpha) = {legendre_gap:.2e}"
    )


def _criterion_box_dimension(ctx):
    scales = ScaleSet((2, 4, 8))
    full = np.ones((64, 64))
    point = np.zeros((64, 64))
    point[17, 42] = 1.0
    line = np.zeros((64, 64))
    line[32, :] = 1.0
    d_full = box_dimension(full, scales)
    d_point = box_dimension(point, scales)
    d_line = box_dimension(line, scales)
    ok = (
        abs(d_full - 2.0) <= 1e-9
        and abs(d_point) <= 1e-9
        and abs(d_line - 1.0) <= 0.05
    )
    return ok, f"full = {d_full:.6f}, point = {d_point:.6f}, line = {d_line:.6f}"


def _criterion_recalibration_contracts(ctx):
    rng = np.random.default_rng(61)
    use_bias = not ctx["strict"]
    h = w = c = 8
    stack = rng.uniform(0.1, 1.0, (h, w, c))
    worst = 0.0

    # membership normalization, Q = 16
    params16 = init_multi_params(16, 1.0, 3.0)
    params16.sharpness = rng.uniform(0.5, 2.0, 16)
    member = multi_membership(rng.normal(2.0, 0.4, (h, w, c)), params16)
    member_err = float(np.abs(member.sum(axis=-1) - 1.0).max())
    if member_err > 1e-12:
        return False, f"membership sums deviate by {member_err:.2e}"

    def track(err):
        nonlocal worst
        worst = max(worst, float(err))

    # channel squeeze (spatial-mean source)
    params = _random_mono_params(c, rng, use_bias)
    gates, out = se_forward(stack, params, source="features")
    ref_z = np.array([stack[:, :, ch].mean() for ch in range(c)])
    ref_gates = _brute_mlp_gates(ref_z, params)
    track(np.abs(gates - ref_gates).max())
    track(np.abs(out - stack * ref_gates).max())

    # maxout of channel and spatial branches
    spatial_w = rng.normal(size=c)
    spatial_b = float(rng.normal())
    scse_gates, scse_out = scse_forward(stack, params, spatial_w, spatial_b)
    track(np.abs(scse_gates - ref_gates).max())
    ref_spatial = np.zeros((h, w, c))
    for i in range(h):
        for j in range(w):
            logit = spatial_b + float(stack[i, j] @ spatial_w)
            ref_spatial[i, j] = stack[i, j] * _sigmoid(logit)
    ref_scse = np.maximum(stack * ref_gates, ref_spatial)
    track(np.abs(scse_out - ref_scse).max())

    # mean/std-pooled gate
    w_mean = rng.normal(size=c)
    w_std = rng.normal(size=c)
    norm = _random_norm(c, rng)
    ref_t = np.empty(c)
    for ch in range(c):
        vals = stack[:, :, ch].ravel()
        mean = vals.mean()
        std = math.sqrt(((vals - mean) ** 2).mean())
        ref_t[ch] = w_mean[ch] * mean + w_std[ch] * std
    ref_srm_gates = np.array([_sigmoid(v) for v in _brute_frozen_norm(ref_t, norm)])
    track(np.abs(srm_gates(stack, w_mean, w_std, norm) - ref_srm_gates).max())

    # cosine squeezes: brute double sum per group
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    fparams = _random_mono_params(c, rng, use_bias)
    fgates = fca_gates(stack, fparams, freq_pairs=pairs)
    group = c // len(pairs)
    ref_z = np.zeros(c)
    for g, (i, j) in enumerate(pairs):
        basis = dct_basis(h, w, i, j)
        for ch in range(g * group, (g + 1) * group):
            acc = 0.0
            for r in range(h):
                for cc in range(w):
                    acc += stack[r, cc, ch] * basis[r, cc]
            ref_z[ch] = acc
    track(np.abs(fgates - _brute_mlp_gates(ref_z, fparams)).max())

    # zero-frequency squeeze equals H*W*GAP bit-exactly
    ones = dct_basis(h, w, 0, 0)
    squeeze = np.array([(stack[:, :, ch] * ones).sum() for ch in range(c)])
    if not np.array_equal(squeeze, h * w * gap(stack)):
        return False, "zero-frequency squeeze != H*W*GAP"

    # exponent-driven channel gate
    mparams = _random_mono_params(c, rng, use_bias)
    mgates, mout = se_forward(stack, mparams, source="alpha-map",
                              scales=_SCALES, epsilon=1e-6, threads=ctx["threads"])
    ref_alpha = _brute_holder(stack, _SCALES.sides, 1e-6)
    ref_norm = _brute_frozen_norm(ref_alpha, mparams.norm)
    ref_z = np.array([ref_norm[:, :, ch].mean() for ch in range(c)])
    ref_mgates = _brute_mlp_gates(ref_z, mparams)
    track(np.abs(mgates - ref_mgates).max())
    track(np.abs(mout - stack * ref_mgates).max())

    # level-set recalibration
    qn = 4
    alpha = rng.normal(2.0, 0.4, (h, w, c))
    qparams = _random_level_sets(alpha, qn, rng)
    gate, mout = multi_forward(stack, alpha, qparams, threads=ctx["threads"])
    ref_gate, ref_out, _ = _dense_level_sets(stack, alpha, qparams)
    track(np.abs(gate - ref_gate).max())
    track(np.abs(mout - ref_out).max())

    ok = worst <= 1e-9
    return ok, f"max brute-force deviation = {worst:.2e}"


def _criterion_gradient_checks(ctx):
    rng = np.random.default_rng(1789)
    use_bias = not ctx["strict"]
    threads = ctx["threads"]

    # exponent-gated squeeze, frozen statistics (full chain incl. window adjoints)
    while True:
        stack = rng.uniform(0.5, 1.5, (2, 2, 4))
        params = _random_mono_params(4, rng, use_bias)
        probe_z = normalize(
            mean_alpha(holder_map(stack, _SCALES, 1e-6, threads)), params.norm
        )
        a1 = params.w1 @ probe_z + (params.b1 if use_bias else 0.0)
        if np.abs(a1).min() > 1e-3:  # keep clear of the rectifier kink
            break
    upstream = rng.normal(size=stack.shape)
    grads = mono_backward(stack, params, upstream, _SCALES, 1e-6, threads)

    def mono_loss():
        _, out = se_forward(stack, params, source="alpha-map",
                            scales=_SCALES, epsilon=1e-6, threads=threads)
        return float((upstream * out).sum())

    arrays = {"w1": params.w1, "w2": params.w2, "gamma": params.norm.gamma,
              "beta": params.norm.beta, "stack": stack}
    analytic = {"w1": grads.w1, "w2": grads.w2, "gamma": grads.gamma,
                "beta": grads.beta, "stack": grads.stack}
    if use_bias:
        arrays.update(b1=params.b1, b2=params.b2)
        analytic.update(b1=grads.b1, b2=grads.b2)
    mono_probes = sum(a.size for a in arrays.values())
    mono = _probe_gradient(mono_loss, arrays, analytic, rng, mono_probes)

    # level-set pipeline, per-instance statistics
    while True:
        stack = rng.uniform(0.5, 1.5, (2, 2, 4))
        alpha = rng.normal(2.0, 0.3, (2, 2, 4))
        qparams = _random_level_sets(alpha, 4, rng)
        normed = _dense_level_sets(stack, alpha, qparams)[2][1]
        if np.abs(normed).min() > 1e-3:  # keep clear of the rectifier kink
            break
    upstream = rng.normal(size=stack.shape)
    qgrads = multi_backward(stack, alpha, qparams, upstream, threads)

    def multi_loss():
        _, out = multi_forward(stack, alpha, qparams, threads)
        return float((upstream * out).sum())

    arrays = {"centers": qparams.centers, "sharpness": qparams.sharpness,
              "gamma": qparams.norm.gamma, "beta": qparams.norm.beta,
              "stack": stack, "alpha": alpha}
    analytic = {"centers": qgrads.centers, "sharpness": qgrads.sharpness,
                "gamma": qgrads.gamma, "beta": qgrads.beta,
                "stack": qgrads.stack, "alpha": qgrads.alpha}
    multi_probes = sum(a.size for a in arrays.values())
    multi = _probe_gradient(multi_loss, arrays, analytic, rng, multi_probes)

    ok = mono[0] < 1e-4 and multi[0] < 1e-4
    return ok, (
        f"worst relative error: exponent-gate {mono[0]:.2e} at {mono[1]}[{mono[2]}], "
        f"level-set {multi[0]:.2e} at {multi[1]}[{multi[2]}]; every entry probed "
        f"({mono_probes} and {multi_probes})"
    )


def _criterion_excitation_threshold(ctx):
    rng = np.random.default_rng(2024)
    a = _spectrum_matrix([10.0, 3.0, 1.0], rng)
    k95 = excitation_report(a, 0.95)["k"]
    if k95 != 2:
        return False, f"{{10,3,1}} spectrum at delta 0.95 gave k = {k95}, want 2"
    v = rng.normal(size=5)
    rank1 = np.outer(v, v)
    k_rank1 = excitation_report(rank1, 0.4)["k"]
    if k_rank1 != 1:
        return False, f"rank-1 matrix gave k = {k_rank1}, want 1"
    k_full = excitation_report(a, 1.0)["k"]
    deficient = _spectrum_matrix([10.0, 3.0, 0.0], rng)
    k_deficient = excitation_report(deficient, 1.0)["k"]
    if k_full != 3 or k_deficient != 2:
        return False, f"delta = 1 gave k = {k_full}/{k_deficient}, want rank 3/2"
    for _ in range(20):
        q = _random_orthogonal(3, rng)
        conj = q @ a @ q.T
        conj = (conj + conj.T) / 2.0
        if excitation_report(conj, 0.95)["k"] != 2:
            return False, "threshold changed under orthogonal conjugation"
    # Jacobi rotations are the independent route to the same spectrum
    b = rng.normal(size=(16, 16))
    b = (b + b.T) / 2.0
    jacobi_err = float(np.abs(singular_values(b) - np.abs(jacobi_eigh(b)[0])).max())
    if jacobi_err > 1e-10:
        return False, f"singular values deviate from Jacobi by {jacobi_err:.2e}"
    return True, (
        "k(0.95) = 2, rank-1 k = 1, delta=1 k = rank, 20 conjugations stable, "
        f"singular values vs Jacobi {jacobi_err:.2e}"
    )


def _selftest_artifacts(directory: Path, threads: int) -> list:
    """Deterministic artifact set exercised by the determinism criterion."""
    directory.mkdir(parents=True, exist_ok=True)
    field2 = generate_product_2d(_P, 8)
    (directory / "cascade-2d.mfr").write_bytes(fio.write_field(field2))
    alpha = holder_map(field2, _SCALES, epsilon=0.0, threads=threads)
    (directory / "alpha-2d.mfr").write_bytes(fio.write_field(alpha))

    # a multi-channel map of one row band, so it runs on the calling thread
    stack = np.random.default_rng(7).uniform(0.1, 1.0, (64, 64, 8))
    alpha_stack = holder_map(stack, _SCALES, epsilon=1e-6, threads=threads)
    (directory / "alpha-stack.mfr").write_bytes(fio.write_field(alpha_stack))
    # per-channel reductions follow the map's memory layout, so a layout that
    # depended on the thread count would show here first
    means = [float(v) for v in mean_alpha(alpha_stack)]
    (directory / "alpha-stack-means.json").write_text(json.dumps(means) + "\n")
    # its 64 * 64 * 8 positions span four blocks of the level-set passes,
    # which split over the workers
    qparams = init_multi_params(16, float(alpha_stack.min()), float(alpha_stack.max()))
    gate, _ = multi_forward(stack, alpha_stack, qparams, threads=threads)
    (directory / "multi-gate.mfr").write_bytes(fio.write_field(gate))
    cotangent = np.random.default_rng(8).normal(size=stack.shape)
    grads = mono_backward(stack, init_mono_params(8, rng=9), cotangent, _SCALES, 1e-6, threads)
    (directory / "mono-grad-stack.mfr").write_bytes(fio.write_field(grads.stack))
    # 64 channels make five row bands of 13 rows, for the map and for its
    # adjoint (taller halo), so both split over the workers
    wide = np.random.default_rng(10).uniform(0.1, 1.0, (64, 64, 64))
    cotangent = np.random.default_rng(11).normal(size=wide.shape)
    grads = mono_backward(wide, init_mono_params(64, rng=12), cotangent, _SCALES, 1e-6, threads)
    (directory / "mono-grad-banded.mfr").write_bytes(fio.write_field(grads.stack))

    lines = [generate_binomial(_P, k) for k in range(8, 12)]
    hist = histogram_spectrum(lines, bins=16)
    (directory / "histogram.csv").write_text(fio.write_spectrum_csv(hist))
    partition, curve = moments_spectrum(lines, np.arange(-2.0, 2.01, 0.25))
    (directory / "moments.csv").write_text(fio.write_moments_csv(partition))
    (directory / "legendre.csv").write_text(fio.write_spectrum_csv(curve))

    matrix = _spectrum_matrix([10.0, 3.0, 1.0], np.random.default_rng(99))
    record = excitation_report(matrix, 0.95)
    (directory / "excite.json").write_text(fio.excite_record_json(record))
    return [
        "cascade-2d.mfr", "alpha-2d.mfr", "alpha-stack.mfr", "alpha-stack-means.json",
        "multi-gate.mfr", "mono-grad-stack.mfr", "mono-grad-banded.mfr", "histogram.csv",
        "moments.csv", "legendre.csv", "excite.json",
    ]


def _criterion_determinism(ctx):
    keep = ctx["artifacts_dir"]
    with tempfile.TemporaryDirectory(prefix="mfcal-selftest-") as tmp:
        base = Path(keep) if keep else Path(tmp) / "threads-1"
        other = Path(tmp) / "threads-2"
        names = _selftest_artifacts(base, threads=1)
        _selftest_artifacts(other, threads=2)
        for name in names:
            if (base / name).read_bytes() != (other / name).read_bytes():
                return False, f"artifact {name} differs across thread counts"
    return True, f"{len(names)} artifacts byte-identical across thread counts 1 and 2"


def _criterion_io_round_trips(ctx):
    rng = np.random.default_rng(4096)
    for _ in range(50):
        ndim = int(rng.integers(2, 5))
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        field = rng.normal(size=shape)
        blob = fio.write_field(field)
        back = fio.read_field(blob)
        if back.dtype != np.float64 or not np.array_equal(
            back.view(np.uint64), field.view(np.uint64)
        ):
            return False, "container round trip is not bit-exact"
    for _ in range(50):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        maxval = int(rng.choice([255, 1000, 65535]))
        dtype = np.uint8 if maxval < 256 else ">u2"
        pixels = rng.integers(0, maxval + 1, size=(h, w)).astype(dtype)
        header = f"P5\n# synthetic fixture\n{w} {h}\n{maxval}\n".encode()
        decoded = fio.read_pgm(header + pixels.tobytes())
        expected = pixels.astype(np.float64) / maxval
        if not np.array_equal(decoded, expected):
            return False, "PGM round trip is not bit-exact"

    checks = [
        (lambda: fio.read_pgm(b"P4\n1 1\n255\n\x00"), fio.PgmMagicError),
        (lambda: fio.read_pgm(b"P5\n2 2\n255\n\x00\x00"), fio.PgmTruncatedError),
        (lambda: fio.read_pgm(b"P5\n1 1\n0\n\x00"), fio.PgmMaxvalError),
        (lambda: fio.read_field(b"NOPE" + bytes(16)), fio.ContainerMagicError),
        (
            lambda: fio.read_field(b"MFR1" + bytes([9, 1, 2]) + bytes(16)),
            fio.ContainerVersionError,
        ),
        (
            lambda: fio.read_field(b"MFR1" + bytes([1, 7, 2]) + bytes(16)),
            fio.ContainerDtypeError,
        ),
        (
            lambda: fio.read_field(fio.write_field(np.ones((2, 2)))[:-8]),
            fio.ContainerDimsError,
        ),
    ]
    for trigger, expected_cls in checks:
        try:
            trigger()
        except expected_cls:
            continue
        except Exception as exc:  # noqa: BLE001
            return False, f"expected {expected_cls.__name__}, got {type(exc).__name__}"
        else:
            return False, f"expected {expected_cls.__name__}, got no error"
    return True, "100 round trips bit-exact; malformed inputs raise the right classes"


CRITERIA = (
    (1, "cascade-exactness", 1.0, _criterion_cascade_exactness),
    (2, "monofractal-limit", 1.0, _criterion_monofractal_limit),
    (3, "multifractal-oracle", 30.0, _criterion_multifractal_oracle),
    (4, "moments-method", 30.0, _criterion_moments_method),
    (5, "box-dimension", 1.0, _criterion_box_dimension),
    (6, "recalibration-contracts", 5.0, _criterion_recalibration_contracts),
    (7, "gradient-checks", 60.0, _criterion_gradient_checks),
    (8, "excitation-threshold", 5.0, _criterion_excitation_threshold),
    (9, "determinism", None, _criterion_determinism),
    (10, "io-round-trips", None, _criterion_io_round_trips),
)


def run_acceptance(strict: bool = False, artifacts_dir=None, threads: int = 1):
    """Run every criterion; returns a list of :class:`CriterionResult`."""
    ctx = {
        "strict": strict,
        "artifacts_dir": str(artifacts_dir) if artifacts_dir else None,
        "threads": max(int(threads or 1), 1),
    }
    mode = "strict-paper" if strict else "default"
    results = []
    for number, name, limit, fn in CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crashed criterion is a failure, not a crash
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        passed = bool(passed)  # numpy comparisons yield np.bool_, which json rejects
        if passed and limit is not None and elapsed > limit:
            passed = False
            detail += f" [runtime {elapsed:.2f}s exceeded the {limit:.0f}s budget]"
        results.append(
            CriterionResult(number, name, passed, elapsed, limit, detail, mode)
        )
    return results
