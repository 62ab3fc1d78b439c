"""Recalibration forwards against hand-rolled references."""

import numpy as np
import pytest

from mfcal import attention
from mfcal.attention import (
    dct_basis,
    fca_gates,
    gap,
    init_mono_params,
    init_multi_params,
    lowest_frequency_pairs,
    MultiParams,
    multi_backward,
    multi_forward,
    multi_membership,
    scse_forward,
    se_forward,
    sigmoid,
    srm_gates,
)
from mfcal.holder import NormState, ScaleSet, holder_map, normalize
from mfcal.selftest import _random_norm

SCALES = ScaleSet((2, 3, 4))


def mono_fixture(channels, rng, use_bias=True):
    params = init_mono_params(channels, 2, rng=rng, use_bias=use_bias)
    params.b1 = rng.normal(scale=0.3, size=params.b1.shape)
    params.b2 = rng.normal(scale=0.3, size=params.b2.shape)
    params.norm = _random_norm(channels, rng)
    return params


class TestPooling:
    def test_gap_constant_channel(self):
        assert gap(np.full((3, 3, 1), 4.2))[0] == pytest.approx(4.2)

    def test_gap_two_pixels(self):
        stack = np.array([[[0.0]], [[2.0]]])  # 2 x 1 x 1
        assert gap(stack)[0] == 1.0

    def test_gap_equals_brute_force_mean(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(8, 8, 3))
        brute = np.array([stack[:, :, c].ravel().mean() for c in range(3)])
        assert np.array_equal(gap(stack), brute)

    # above 8192 pixels, NumPy's reductions work through more than one
    # buffer; a 224x224 channel row is larger than the chunk buffer, and
    # 56x56x64 copies several channels a chunk, with a shorter last chunk
    @pytest.mark.parametrize("shape", [(100, 100, 3), (224, 224, 2), (224, 224, 3), (56, 56, 64)])
    def test_pooling_is_byte_equal_to_a_per_channel_loop(self, shape):
        stack = np.random.default_rng(2).normal(size=shape)
        channels = range(shape[2])
        means = np.array([stack[:, :, c].mean() for c in channels])
        assert np.array_equal(gap(stack), means)
        # srm_gates pools the std alongside the mean
        stds = np.array([stack[:, :, c].std() for c in channels])
        w_mean, w_std = np.full(shape[2], 0.5), np.full(shape[2], 2.0)
        norm = NormState.identity(shape[2])
        expected = sigmoid(normalize(w_mean * means + w_std * stds, norm))
        assert np.array_equal(srm_gates(stack, w_mean, w_std, norm), expected)


def masked_sigmoid(x):
    """The branch-by-mask form of the stable logistic, as a byte reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def select_sigmoid(x):
    """The single-select form of the stable logistic, as a byte reference."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
             -2.2250738585072014e-308, 709.8, -709.8, 745.0, -745.0, 745.2, -745.2]

    def test_matches_the_masked_form_byte_for_byte(self):
        rng = np.random.default_rng(19)
        x = np.concatenate([rng.normal(size=4096) * s for s in (1, 5, 50, 800)] + [self.EDGES])
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
        for shape in ((3, 4), (2, 3, 5)):
            grid = x[:np.prod(shape)].reshape(shape)
            assert sigmoid(grid).tobytes() == masked_sigmoid(grid).tobytes()

    @pytest.mark.parametrize("signs", ["mixed", "non-negative", "non-positive", "near zero"])
    def test_matches_the_select_form_byte_for_byte(self, signs):
        # an input with no negative entry takes the select-free evaluation
        rng = np.random.default_rng(28)
        x = np.concatenate([rng.normal(size=2048) * s for s in (1, 5, 50, 800)] + [self.EDGES])
        x = {"mixed": x, "non-negative": np.abs(x), "non-positive": -np.abs(x),
             "near zero": np.append(rng.uniform(-1.0, 1.0, 4096), [0.0, -0.0])}[signs]
        for values in (x, x.reshape(2, -1), x[:1].reshape(()), x[:0]):
            got, expected = sigmoid(values), select_sigmoid(values)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert sigmoid(np.array([np.nan, 1.0])).tobytes() == select_sigmoid(np.array([np.nan, 1.0])).tobytes()

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1e308, -800.0, 0.0, 800.0, 1e308]))
        assert out.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


class TestSeForward:
    def test_zero_logits_halve_the_stack(self):
        rng = np.random.default_rng(2)
        stack = rng.uniform(size=(4, 4, 4))
        params = init_mono_params(4, 2, rng=rng)
        params.w2[:] = 0.0
        gates, out = se_forward(stack, params, source="features")
        assert np.all(gates == 0.5)
        np.testing.assert_allclose(out, stack / 2.0, rtol=0, atol=0)

    def test_large_logits_saturate(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(size=(4, 4, 4))
        params = init_mono_params(4, 2, rng=rng)
        params.w2[:] = 0.0
        params.b2[:] = 50.0
        gates, out = se_forward(stack, params, source="features")
        assert np.all(gates > 1.0 - 1e-9)
        np.testing.assert_allclose(out, stack, rtol=1e-9)

    def test_matches_hand_rolled_two_layer_evaluation(self):
        rng = np.random.default_rng(4)
        stack = rng.uniform(size=(6, 6, 4))
        params = mono_fixture(4, rng)
        gates, out = se_forward(stack, params, source="features")
        z = np.array([stack[:, :, c].mean() for c in range(4)])
        hidden = np.maximum(params.w1 @ z + params.b1, 0.0)
        expected = 1.0 / (1.0 + np.exp(-(params.w2 @ hidden + params.b2)))
        np.testing.assert_allclose(gates, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, stack * expected, rtol=0, atol=1e-12)

    def test_multiplicative_contract_is_exact(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.1, 1.0, size=(5, 5, 4))
        gates, out = se_forward(stack, mono_fixture(4, rng), source="alpha-map",
                                scales=SCALES)
        assert np.array_equal(out, stack * gates)
        assert np.all((gates > 0.0) & (gates < 1.0))

    def test_gate_argmax_is_scale_invariant_on_the_exponent_path(self):
        rng = np.random.default_rng(6)
        stack = rng.uniform(0.5, 1.5, size=(8, 8, 6))
        params = mono_fixture(6, rng)
        gates, _ = se_forward(stack, params, source="alpha-map", scales=SCALES,
                              epsilon=0.0)
        scaled, _ = se_forward(211.7 * stack, params, source="alpha-map",
                               scales=SCALES, epsilon=0.0)
        assert np.argmax(gates) == np.argmax(scaled)
        np.testing.assert_allclose(gates, scaled, rtol=0, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="channel"):
            se_forward(np.ones((4, 4, 3)), init_mono_params(4, 2, rng=rng))

    def test_unknown_source_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="source"):
            se_forward(np.ones((4, 4, 4)), init_mono_params(4, 2, rng=rng),
                       source="wavelet")


class TestScse:
    def test_zero_spatial_weights_give_half_gate(self):
        rng = np.random.default_rng(9)
        stack = rng.uniform(size=(4, 4, 4))
        params = mono_fixture(4, rng)
        gates, out = scse_forward(stack, params, np.zeros(4))
        se_gates, channel_branch = se_forward(stack, params, source="features")
        assert np.array_equal(gates, se_gates)
        np.testing.assert_allclose(out, np.maximum(channel_branch, stack / 2.0),
                                   rtol=0, atol=0)

    def test_identical_branches_are_idempotent(self):
        rng = np.random.default_rng(10)
        stack = rng.uniform(size=(3, 3, 2))
        params = init_mono_params(2, 1, rng=rng)
        params.w1[:] = 0.0
        params.w2[:] = 0.0
        params.b2[:] = 0.0  # channel gates = 0.5 everywhere
        _, out = scse_forward(stack, params, np.zeros(2))
        np.testing.assert_allclose(out, stack / 2.0, rtol=0, atol=0)

    def test_matches_brute_force_maxout(self):
        rng = np.random.default_rng(11)
        stack = rng.uniform(size=(5, 5, 4))
        params = mono_fixture(4, rng)
        weights = rng.normal(size=4)
        bias = 0.3
        _, out = scse_forward(stack, params, weights, bias)
        gates, channel_branch = se_forward(stack, params, source="features")
        spatial = sigmoid(stack @ weights + bias)[:, :, None]
        np.testing.assert_allclose(out, np.maximum(channel_branch, stack * spatial),
                                   rtol=0, atol=1e-12)


class TestSrm:
    def test_zero_std_weight_reduces_to_mean_gate(self):
        rng = np.random.default_rng(12)
        stack = rng.uniform(size=(6, 6, 3))
        w_mean = rng.normal(size=3)
        norm = NormState.identity(3)
        gates = srm_gates(stack, w_mean, np.zeros(3), norm)
        expected = sigmoid((w_mean * gap(stack)) / np.sqrt(1.0 + 1e-5))
        np.testing.assert_allclose(gates, expected, rtol=0, atol=1e-12)

    def test_constant_stack_kills_the_std_term(self):
        stack = np.full((4, 4, 2), 3.0)
        norm = NormState.identity(2)
        with_std = srm_gates(stack, np.ones(2), np.full(2, 5.0), norm)
        without = srm_gates(stack, np.ones(2), np.zeros(2), norm)
        np.testing.assert_allclose(with_std, without, rtol=0, atol=0)

    def test_matches_hand_rolled_evaluation(self):
        rng = np.random.default_rng(13)
        stack = rng.uniform(size=(7, 5, 3))
        w_mean, w_std = rng.normal(size=3), rng.normal(size=3)
        norm = NormState.identity(3)
        norm.gamma = rng.uniform(0.5, 1.5, 3)
        norm.beta = rng.normal(size=3)
        norm.running_mean = rng.normal(size=3) * 0.1
        norm.running_var = rng.uniform(0.5, 1.5, 3)
        gates = srm_gates(stack, w_mean, w_std, norm)
        brute_std = np.array(
            [np.sqrt(((stack[:, :, c] - stack[:, :, c].mean()) ** 2).mean()) for c in range(3)]
        )
        t = w_mean * gap(stack) + w_std * brute_std
        normed = (t - norm.running_mean) / np.sqrt(norm.running_var + 1e-5)
        expected_gates = sigmoid(norm.gamma * normed + norm.beta)
        np.testing.assert_allclose(gates, expected_gates, rtol=0, atol=1e-12)

    def test_std_term_uses_the_population_convention(self):
        stack = np.array([[[0.0]], [[2.0]]])  # std 1, where the sample std is sqrt(2)
        norm = NormState.identity(1)
        gates = srm_gates(stack, np.zeros(1), np.ones(1), norm)
        assert np.array_equal(gates, sigmoid(normalize(np.ones(1), norm)))

    def test_a_pooled_value_at_the_running_mean_gates_at_sigmoid_beta(self):
        # standardizing by the stored mean sends t_c = running_mean_c to 0,
        # whatever gamma and running_var; any other stored mean moves the gate
        rng = np.random.default_rng(14)
        stack = rng.uniform(size=(6, 5, 3))
        w_mean, w_std = rng.normal(size=3), rng.normal(size=3)
        norm = NormState.identity(3)
        norm.gamma = rng.uniform(0.5, 1.5, 3)
        norm.beta = rng.normal(size=3)
        norm.running_var = rng.uniform(0.5, 2.0, 3)
        rows = np.ascontiguousarray(stack.transpose(2, 0, 1)).reshape(3, -1)
        pooled = w_mean * rows.mean(axis=1) + w_std * rows.std(axis=1)
        norm.running_mean = pooled.copy()
        assert np.array_equal(srm_gates(stack, w_mean, w_std, norm), sigmoid(norm.beta))
        norm.running_mean = pooled + 0.1
        moved = srm_gates(stack, w_mean, w_std, norm)
        assert not np.any(moved == sigmoid(norm.beta))

    @pytest.mark.parametrize("length", [1, 2], ids=["one", "channels-minus-one"])
    @pytest.mark.parametrize("name", ["w_mean", "w_std"])
    def test_weights_need_one_value_per_channel(self, name, length):
        weights = {"w_mean": np.ones(3), "w_std": np.ones(3), name: np.ones(length)}
        with pytest.raises(ValueError, match=f"{name} needs one weight per channel"):
            srm_gates(np.ones((4, 4, 3)), weights["w_mean"], weights["w_std"],
                      NormState.identity(3))


class TestDctBasis:
    def test_zero_frequency_is_all_ones(self):
        assert np.array_equal(dct_basis(8, 8, 0, 0), np.ones((8, 8)))

    def test_distinct_pairs_are_orthogonal(self):
        pairs = lowest_frequency_pairs(6, 8, 8)
        fields = [dct_basis(8, 8, i, j).ravel() for i, j in pairs]
        for a in range(len(fields)):
            for b in range(a + 1, len(fields)):
                assert abs(fields[a] @ fields[b]) < 1e-9

    def test_zero_frequency_squeeze_equals_hw_gap(self):
        rng = np.random.default_rng(14)
        stack = rng.uniform(size=(8, 8, 4))
        basis = dct_basis(8, 8, 0, 0)
        squeeze = np.array([(stack[:, :, c] * basis).sum() for c in range(4)])
        assert np.array_equal(squeeze, 8 * 8 * gap(stack))

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            dct_basis(4, 4, 4, 0)
        with pytest.raises(ValueError, match="frequency"):
            dct_basis(4, 4, 0, -1)

    def test_lowest_pairs_start_at_dc(self):
        pairs = lowest_frequency_pairs(16, 224, 224)
        assert pairs[0] == (0, 0)
        assert len(set(pairs)) == 16


def sorted_frequency_pairs(count, height, width):
    """Every pair sorted by (i + j, max(i, j), i), then cut: the oracle."""
    pairs = sorted(
        ((i, j) for i in range(height) for j in range(width)),
        key=lambda p: (p[0] + p[1], max(p), p[0]),
    )
    return pairs[:count]


class TestLowestFrequencyPairs:
    @pytest.mark.parametrize("height, width", [(1, 1), (1, 7), (7, 1), (3, 3), (2, 50)])
    def test_every_count_matches_the_sorted_oracle(self, height, width):
        for count in range(1, height * width + 1):
            assert (lowest_frequency_pairs(count, height, width)
                    == sorted_frequency_pairs(count, height, width))

    @pytest.mark.parametrize("side", [56, 224])
    def test_sixteen_pairs_match_the_sorted_oracle(self, side):
        assert lowest_frequency_pairs(16, side, side) == sorted_frequency_pairs(16, side, side)

    @pytest.mark.parametrize("height, width", [(1, 1), (1, 7), (7, 1), (3, 3), (2, 50)])
    def test_one_pair_too_many_raises(self, height, width):
        with pytest.raises(ValueError, match="not enough frequency pairs"):
            lowest_frequency_pairs(height * width + 1, height, width)


class TestFca:
    @pytest.mark.parametrize("groups", ["one", "per-channel"])
    @pytest.mark.parametrize("shape", [(100, 100, 3), (224, 224, 2), (224, 224, 3), (56, 56, 64)])
    def test_squeeze_is_byte_equal_to_a_per_channel_loop(self, shape, groups, monkeypatch):
        h, w, c = shape
        stack = np.random.default_rng(3).uniform(size=shape)
        pairs = lowest_frequency_pairs(1 if groups == "one" else c, h, w)
        size = c // len(pairs)
        expected = np.empty(c)
        for g, (i, j) in enumerate(pairs):
            basis = dct_basis(h, w, i, j)
            for ch in range(g * size, (g + 1) * size):
                expected[ch] = (stack[:, :, ch] * basis).sum()
        squeezes = []
        gate = attention._gate_from_squeeze
        monkeypatch.setattr(attention, "_gate_from_squeeze",
                            lambda z, params: squeezes.append(z.copy()) or gate(z, params))
        fca_gates(stack, init_mono_params(c, 1, rng=0), freq_pairs=pairs)
        assert len(squeezes) == 1 and np.array_equal(squeezes[0], expected)

    def test_all_zero_frequencies_reduce_to_scaled_se(self):
        rng = np.random.default_rng(15)
        stack = rng.uniform(size=(8, 8, 4))
        params = mono_fixture(4, rng)
        gates = fca_gates(stack, params, freq_pairs=[(0, 0)])
        se_gates, _ = se_forward(8 * 8 * stack, params, source="features")
        np.testing.assert_allclose(gates, se_gates, rtol=0, atol=1e-12)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(16)
        stack = rng.uniform(size=(8, 8, 8))
        params = mono_fixture(8, rng)
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        gates = fca_gates(stack, params, freq_pairs=pairs)
        z = np.zeros(8)
        for g, (i, j) in enumerate(pairs):
            basis = dct_basis(8, 8, i, j)
            for c in range(2 * g, 2 * g + 2):
                acc = 0.0
                for h in range(8):
                    for w in range(8):
                        acc += stack[h, w, c] * basis[h, w]
                z[c] = acc
        hidden = np.maximum(params.w1 @ z + params.b1, 0.0)
        expected = sigmoid(params.w2 @ hidden + params.b2)
        np.testing.assert_allclose(gates, expected, rtol=0, atol=1e-9)

    def test_the_frequency_pairs_are_required(self):
        with pytest.raises(TypeError, match="freq_pairs"):
            fca_gates(np.ones((8, 8, 8)), init_mono_params(8, 2, rng=0))

    def test_indivisible_grouping_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError, match="divisible"):
            fca_gates(np.ones((8, 8, 8)), init_mono_params(8, 2, rng=rng),
                      freq_pairs=[(0, 0), (0, 1), (1, 0)])


class TestMultiMembership:
    def test_single_level_set_is_constant_one(self):
        params = init_multi_params(1, 0.0, 4.0)
        member = multi_membership(np.random.default_rng(18).normal(size=(3, 3, 2)),
                                  params)
        assert np.all(member == 1.0)

    def test_dominant_logit_saturates(self):
        params = init_multi_params(2, 0.0, 100.0)
        member = multi_membership(np.zeros((2, 2, 1)), params)
        np.testing.assert_allclose(member[..., 0], 1.0, atol=1e-12)

    def test_memberships_sum_to_one(self):
        rng = np.random.default_rng(19)
        params = init_multi_params(16, 1.0, 3.0)
        params.sharpness = rng.uniform(0.5, 2.0, 16)
        member = multi_membership(rng.normal(2.0, 0.5, (8, 8, 8)), params)
        np.testing.assert_allclose(member.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_shift_invariance_of_the_softmax(self):
        # the stabilized implementation must equal the plain exponential form
        rng = np.random.default_rng(20)
        params = init_multi_params(4, 0.0, 3.0)
        params.sharpness = rng.uniform(0.5, 2.0, 4)
        alpha = rng.normal(1.5, 0.5, (4, 4, 2))
        member = multi_membership(alpha, params)
        logits = -params.sharpness * (alpha[..., None] - params.centers) ** 2
        plain = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(member, plain, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponents_are_rejected(self, bad):
        # a NaN would give NaN memberships, and an infinity a NaN from the
        # max-subtracted redo (-inf - -inf)
        alpha = np.random.default_rng(28).normal(2.0, 0.3, (2, 2, 1))
        alpha[1, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            multi_membership(alpha, init_multi_params(4, 1.0, 3.0))

    def test_a_1d_exponent_array_is_refused_as_the_forward_refuses_it(self):
        alpha = np.linspace(1.0, 3.0, 8)
        params = init_multi_params(4, 1.0, 3.0)
        messages = []
        for call in (lambda: multi_membership(alpha, params),
                     lambda: multi_forward(np.ones((2, 2, 2)), alpha, params)):
            with pytest.raises(ValueError, match="shape") as refused:
                call()
            messages.append(str(refused.value))
        assert messages[0] == messages[1]


class TestMultiForward:
    def test_dead_rectifier_adds_one_half(self):
        rng = np.random.default_rng(21)
        stack = rng.uniform(size=(4, 4, 3))
        alpha = rng.normal(2.0, 0.3, (4, 4, 3))
        params = init_multi_params(4, 1.0, 3.0)
        params.norm.beta = np.full(4, -50.0)  # every normalized membership < 0
        gate, out = multi_forward(stack, alpha, params)
        assert np.all(gate == 0.5)
        np.testing.assert_allclose(out, stack + 0.5, rtol=0, atol=0)

    def test_single_level_set_standardizes_to_half(self):
        rng = np.random.default_rng(22)
        stack = rng.uniform(size=(4, 4, 3))
        alpha = rng.normal(2.0, 0.3, (4, 4, 3))
        gate, out = multi_forward(stack, alpha, init_multi_params(1, 1.0, 3.0))
        assert np.all(gate == 0.5)
        np.testing.assert_allclose(out, stack + 0.5, rtol=0, atol=0)

    def test_additive_contract_is_exact(self):
        rng = np.random.default_rng(23)
        stack = rng.uniform(size=(6, 6, 4))
        alpha = rng.normal(2.0, 0.4, (6, 6, 4))
        params = init_multi_params(8, float(alpha.min()), float(alpha.max()))
        params.sharpness = rng.uniform(0.5, 2.0, 8)
        gate, out = multi_forward(stack, alpha, params)
        assert np.array_equal(out, stack + gate)
        assert np.all((gate > 0.0) & (gate < 1.0))

    def test_folded_norm_cancels_at_the_variance_floor(self):
        # one level set: every membership is 1 and sigma is sqrt(VAR_EPS), so
        # the folded scale gamma / sigma (about 538) cancels against the
        # shift beta - scale * mean and leaves beta, up to rounding
        rng = np.random.default_rng(25)
        stack = rng.uniform(size=(5, 4, 3))
        alpha = rng.normal(2.0, 0.3, (5, 4, 3))
        norm = NormState(gamma=[1.7], beta=[0.3], running_mean=[0.0], running_var=[1.0])
        params = MultiParams(centers=[2.0], sharpness=[1.0], norm=norm)
        gate, _ = multi_forward(stack, alpha, params)
        assert np.abs(gate - sigmoid(0.3)).max() <= 1e-13

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            multi_forward(np.ones((4, 4, 2)), np.ones((4, 4, 3)),
                          init_multi_params(2, 0.0, 1.0))

    def test_negative_sharpness_is_rejected(self):
        # with sharpness >= 0 every logit is <= 0, so exp of it cannot overflow
        with pytest.raises(ValueError, match="sharpness"):
            MultiParams(centers=[1.0, 2.0], sharpness=[1.0, -0.5], norm=NormState.identity(2))
        rng = np.random.default_rng(26)
        stack = rng.uniform(size=(4, 4, 2))
        alpha = rng.normal(2.0, 0.3, (4, 4, 2))
        params = init_multi_params(2, 1.0, 3.0)
        params.sharpness = np.array([1.0, -0.5])  # assigned after construction
        for call in (lambda: multi_forward(stack, alpha, params),
                     lambda: multi_backward(stack, alpha, params, stack),
                     lambda: multi_membership(alpha, params)):
            with pytest.raises(ValueError, match="sharpness"):
                call()

    def test_zero_sharpness_gives_uniform_memberships(self):
        alpha = np.random.default_rng(27).normal(2.0, 0.3, (4, 4, 2))
        params = init_multi_params(4, 1.0, 3.0)
        params.sharpness = np.zeros(4)
        assert np.all(multi_membership(alpha, params) == 0.25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_exponents_are_rejected(self, bad):
        # statistics over every position would spread one bad exponent to every gate
        alpha = np.random.default_rng(24).normal(2.0, 0.3, (4, 4, 2))
        alpha[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            multi_forward(np.ones((4, 4, 2)), alpha, init_multi_params(4, 1.0, 3.0))


def reference_squeezes(stack, pairs):
    """Per-channel loops over ``stack[:, :, c]``: the means, stds and cosine squeezes."""
    h, w, c = stack.shape
    size = c // len(pairs)
    cosine = [(stack[:, :, ch] * dct_basis(h, w, *pairs[ch // size])).sum() for ch in range(c)]
    return (np.array([stack[:, :, ch].mean() for ch in range(c)]),
            np.array([stack[:, :, ch].std() for ch in range(c)]), np.array(cosine))


class TestChunkedSqueezes:
    """The channel squeezes copy a chunk of channel rows at a time into one buffer."""

    def test_the_default_chunk_splits_the_pooling_shapes_as_their_comment_says(self):
        per_chunk = attention.CHUNK_BYTES // (56 * 56 * 8)
        assert attention.CHUNK_BYTES < 224 * 224 * 8 and 1 < per_chunk < 64 and 64 % per_chunk

    # 3000 bytes hold 3 channels of 13x9 (a last chunk of 2) and 2 rows of
    # 9x20 in the scSE maxout (a last chunk of 1); 56x56 then takes one
    # channel or one row a chunk
    @pytest.mark.parametrize("chunk_bytes", [None, 3000])
    @pytest.mark.parametrize("shape", [(13, 9, 20), (56, 56, 64)])
    def test_squeezes_are_byte_equal_to_per_channel_loops(self, shape, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:
            monkeypatch.setattr(attention, "CHUNK_BYTES", chunk_bytes)
        h, w, c = shape
        stack = np.random.default_rng(30).normal(size=shape)
        pairs = lowest_frequency_pairs(4, h, w)
        means, stds, cosine = reference_squeezes(stack, pairs)
        assert gap(stack).tobytes() == means.tobytes()
        w_mean, w_std = np.full(c, 0.5), np.full(c, 2.0)
        norm = NormState.identity(c)
        expected = sigmoid(normalize(w_mean * means + w_std * stds, norm))
        assert srm_gates(stack, w_mean, w_std, norm).tobytes() == expected.tobytes()
        squeezes = []
        gate = attention._gate_from_squeeze
        monkeypatch.setattr(attention, "_gate_from_squeeze",
                            lambda z, params: squeezes.append(z.copy()) or gate(z, params))
        fca_gates(stack, init_mono_params(c, 1, rng=0), freq_pairs=pairs)
        assert squeezes[0].tobytes() == cosine.tobytes()

    # srm and fca work in place in their chunk; one channel is the shape
    # whose channel rows are already contiguous in the stack
    @pytest.mark.parametrize("channels", [20, 1])
    def test_the_input_stack_is_left_unchanged(self, channels):
        stack = np.random.default_rng(31).normal(size=(13, 9, channels))
        before = stack.tobytes()
        gap(stack)
        srm_gates(stack, np.ones(channels), np.ones(channels), NormState.identity(channels))
        fca_gates(stack, init_mono_params(channels, 1, rng=0), lowest_frequency_pairs(1, 13, 9))
        assert stack.tobytes() == before


def forward_cases(stack, rng):
    """``name -> (forward(x, out) -> (gates, output), reference(x, gates) -> output)``.

    Each reference is the method's output formed from whole-stack
    temporaries, the way it was computed before the forwards took ``out=``.
    """
    c = stack.shape[2]
    params = mono_fixture(c, rng)
    weights, bias = rng.normal(size=c) / np.sqrt(c), 0.2
    alpha = holder_map(stack, SCALES, threads=1)
    level_sets = init_multi_params(4, float(alpha.min()), float(alpha.max()))
    return {
        "cse": (lambda x, out: se_forward(x, params, out=out),
                lambda x, gates: x * gates),
        "mono": (lambda x, out: se_forward(x, params, source="alpha-map", scales=SCALES,
                                           threads=2, out=out),
                 lambda x, gates: x * gates),
        "scse": (lambda x, out: scse_forward(x, params, weights, bias, out=out),
                 lambda x, gates: np.maximum(x * gates,
                                             x * sigmoid(x @ weights + bias)[:, :, None])),
        "multi": (lambda x, out: multi_forward(x, alpha, level_sets, threads=2, out=out),
                  lambda x, gate: x + gate),
    }


class TestOutIntoTheStack:
    @pytest.mark.parametrize("chunk_bytes", [None, 3000])
    @pytest.mark.parametrize("method", ["cse", "mono", "scse", "multi"])
    @pytest.mark.parametrize("shape", [(13, 9, 20), (56, 56, 64)])
    def test_out_stack_gives_the_bytes_of_out_none(self, shape, method, chunk_bytes,
                                                   monkeypatch):
        if chunk_bytes is not None:
            monkeypatch.setattr(attention, "CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(32)
        stack = np.maximum(rng.normal(size=shape), 0.0)
        forward, reference = forward_cases(stack, rng)[method]
        gates, fresh = forward(stack, None)
        assert fresh is not stack
        own = stack.copy()
        own_gates, out = forward(own, own)
        assert out is own
        assert own_gates.tobytes() == gates.tobytes()
        assert out.tobytes() == fresh.tobytes() == reference(stack, gates).tobytes()

    def test_out_none_leaves_the_stack_unchanged(self):
        rng = np.random.default_rng(33)
        stack = np.maximum(rng.normal(size=(13, 9, 20)), 0.0)
        before = stack.tobytes()
        for forward, _ in forward_cases(stack, rng).values():
            forward(stack, None)
        assert stack.tobytes() == before


class TestInit:
    def test_mono_init_is_deterministic_and_fan_bounded(self):
        a = init_mono_params(8, 2, rng=42)
        b = init_mono_params(8, 2, rng=42)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        bound = np.sqrt(6.0 / (8 + 4))
        assert np.abs(a.w1).max() <= bound
        assert np.all(a.b1 == 0.0) and np.all(a.b2 == 0.0)
        assert a.w1.shape == (4, 8) and a.w2.shape == (8, 4)

    @pytest.mark.parametrize("reduction", [0, -1, 8])
    def test_mono_init_rejects_a_reduction_outside_one_to_channels(self, reduction):
        with pytest.raises(ValueError, match="1 <= reduction < channels"):
            init_mono_params(8, reduction, rng=0)

    def test_multi_init_spans_the_calibration_range(self):
        params = init_multi_params(4, 1.0, 3.0)
        np.testing.assert_allclose(params.centers, [1.0, 5 / 3, 7 / 3, 3.0])
        assert np.all(params.sharpness == 1.0)

    def test_multi_init_validates(self):
        with pytest.raises(ValueError):
            init_multi_params(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            init_multi_params(2, 2.0, 1.0)
