"""Loss-component tests with hand-computed oracle values."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from cotrain import losses as L
from cotrain import tensor as T
from cotrain.errors import (
    BatchSizeError,
    ConfigError,
    ContractError,
    LabelError,
    NumericError,
    RegistryError,
)
from cotrain.gradcheck import finite_diff_check
from cotrain.rng import Rng
from cotrain.tensor import Tensor


def t64(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestVarianceLoss:
    def test_spread_batch_has_zero_loss(self):
        # Per-dim variance 2 (B-1 divisor), std sqrt(2) > 1, hinge inactive.
        z = t64([[1.0, -1.0], [-1.0, 1.0]])
        assert float(L.variance_loss(z, eps=0.0).data) == 0.0

    def test_constant_batch_saturates_hinge(self):
        z = t64(np.zeros((3, 4)))
        npt.assert_allclose(float(L.variance_loss(z, eps=1e-4).data), 0.99, atol=1e-9)

    def test_partially_spread_batch(self):
        z = t64([[0.0, 0.0], [0.3, 0.8]])
        want = ((1.0 - math.sqrt(0.045)) + (1.0 - math.sqrt(0.32))) / 2.0
        npt.assert_allclose(float(L.variance_loss(z, eps=0.0).data), want, atol=1e-12)

    def test_gradient(self):
        x = Rng(41, 0).normal((4, 3)) * 0.5
        err = finite_diff_check(lambda v: L.variance_loss(v), t64(x))
        assert err < 1e-7

    def test_single_row_rejected(self):
        with pytest.raises(BatchSizeError):
            L.variance_loss(t64([[1.0, 2.0]]))


class TestCovarianceLoss:
    def test_perfectly_correlated_dims(self):
        # Covariance [[2,2],[2,2]]; off-diagonal squares sum to 8, over d=2.
        z = t64([[1.0, 1.0], [-1.0, -1.0]])
        npt.assert_allclose(float(L.covariance_loss(z).data), 4.0, atol=1e-12)

    def test_dead_dimension_is_uncorrelated(self):
        z = t64([[1.0, 0.0], [-1.0, 0.0]])
        assert float(L.covariance_loss(z).data) == 0.0

    def test_hand_value_three_rows(self):
        # mean (3,4); deviations (-2,-2),(0,0),(2,2); C = [[4,4],[4,4]];
        # off-diagonal squares sum 32, over d=2.
        z = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        npt.assert_allclose(float(L.covariance_loss(z).data), 16.0, atol=1e-12)

    def test_gradient(self):
        x = Rng(43, 0).normal((5, 3))
        err = finite_diff_check(lambda v: L.covariance_loss(v), t64(x))
        assert err < 1e-7


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = t64(np.zeros((2, 4)))
        loss = L.cross_entropy(logits, np.array([0, 3]))
        npt.assert_allclose(float(loss.data), math.log(4.0), atol=1e-12)

    def test_hand_value(self):
        loss = L.cross_entropy(t64([[1.0, 2.0, 3.0]]), np.array([2]))
        npt.assert_allclose(float(loss.data), 0.40761, atol=5e-6)

    def test_batch_mean(self):
        a = float(L.cross_entropy(t64([[1.0, 2.0, 3.0]]), np.array([2])).data)
        b = float(L.cross_entropy(t64([[0.0, 0.0, 0.0]]), np.array([1])).data)
        both = L.cross_entropy(
            t64([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), np.array([2, 1])
        )
        npt.assert_allclose(float(both.data), (a + b) / 2.0, atol=1e-12)

    def test_empty_batch_returns_none(self):
        assert L.cross_entropy(t64(np.zeros((0, 3))), np.zeros(0, dtype=int)) is None

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            L.cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))

    def test_label_shape_mismatch(self):
        with pytest.raises(LabelError):
            L.cross_entropy(t64(np.zeros((2, 3))), np.array([0]))

    def test_extreme_logits_stay_finite(self):
        loss = L.cross_entropy(t64([[1000.0, 0.0], [-1000.0, 0.0]]), np.array([0, 1]))
        assert math.isfinite(float(loss.data))
        npt.assert_allclose(float(loss.data), 0.0, atol=1e-12)


def tiny_bank(counts=(4, 3)):
    return L.ProjectionBank(counts)


class TestProjectionBank:
    def test_zero_init_and_pair_shapes(self):
        bank = tiny_bank()
        assert bank.pairs() == [(0, 1), (1, 0)]
        assert bank.pair(0, 1).shape == (3, 4)
        assert bank.pair(1, 0).shape == (4, 3)
        npt.assert_array_equal(bank.pair(0, 1).data, 0.0)

    def test_unknown_pair_rejected(self):
        with pytest.raises(RegistryError):
            tiny_bank().pair(0, 0)

    def test_selector_entry_routes_one_class(self):
        # A single 1 at (c, c') adds source class c' onto target class c.
        bank = tiny_bank()
        bank.pair(0, 1).data[2, 3] = 1.0
        logits = {0: t64([[1.0, 2.0, 3.0, 4.0]]), 1: t64([[10.0, 20.0, 30.0]])}
        out = L.project_logits(1, logits, bank)
        npt.assert_allclose(out.data, [[10.0, 20.0, 34.0]], atol=1e-12)

    def test_zero_bank_is_identity_on_logits(self):
        bank = tiny_bank()
        logits = {0: t64([[1.0, 2.0, 3.0, 4.0]]), 1: t64([[5.0, 6.0, 7.0]])}
        out = L.project_logits(1, logits, bank)
        npt.assert_array_equal(out.data, logits[1].data)

    def test_gradients_reach_bank_and_both_heads(self):
        bank = tiny_bank()
        bank.pair(0, 1).data[:] = Rng(45, 0).normal((3, 4))
        own = t64(Rng(45, 1).normal((2, 3)))
        other = t64(Rng(45, 2).normal((2, 4)))
        out = L.project_logits(1, {0: other, 1: own}, bank)
        (out * out).sum().backward()
        assert np.abs(own.grad).max() > 0
        assert np.abs(other.grad).max() > 0
        assert np.abs(bank.pair(0, 1).grad).max() > 0

    def test_missing_head_rejected(self):
        with pytest.raises(ContractError):
            L.project_logits(1, {1: t64([[1.0, 2.0, 3.0]])}, tiny_bank())

    def test_projection_only_excludes_own_head(self):
        bank = tiny_bank()
        bank.pair(0, 1).data[0, 0] = 2.0
        logits = {0: t64([[3.0, 0.0, 0.0, 0.0]]), 1: t64([[100.0, 100.0, 100.0]])}
        out = L.projection_only_logits(1, logits, bank)
        npt.assert_allclose(out.data, [[6.0, 0.0, 0.0]], atol=1e-12)

    def test_projection_only_needs_two_datasets(self):
        with pytest.raises(ContractError):
            L.projection_only_logits(0, {0: t64([[1.0]])}, L.ProjectionBank((1,)))

    def test_zero_underscore_resets(self):
        bank = tiny_bank()
        bank.pair(0, 1).data[:] = 1.0
        bank.zero_()
        npt.assert_array_equal(bank.pair(0, 1).data, 0.0)


class TestUncertaintyWeighting:
    def make_sigma(self, values):
        params = L.SigmaParams(len(values))
        params.log_sigma.data = np.log(np.asarray(values, dtype=np.float64))
        return params

    def test_hand_total(self):
        # L=(2,8), sigma=(1,2): 2/2 + ln 1 + 8/8 + ln 2 = 2 + ln 2.
        sigma = self.make_sigma([1.0, 2.0])
        total, report = L.total_loss(None, None, {0: t64(2.0), 1: t64(8.0)}, sigma)
        npt.assert_allclose(float(total.data), 2.0 + math.log(2.0), atol=1e-6)
        assert report.sigmas[0] == pytest.approx(1.0)
        assert report.sigmas[1] == pytest.approx(2.0)

    def test_sigma_gradient_closed_form(self):
        # d total / d sigma = -L/sigma^3 + 1/sigma; with the log
        # parameterization the chain rule multiplies by sigma.
        for loss_value, sigma_value in [(4.0, 2.0), (2.0, 1.0), (9.0, 1.5), (0.5, 3.0)]:
            sigma = self.make_sigma([sigma_value])
            total, _ = L.total_loss(None, None, {0: t64(loss_value)}, sigma)
            total.backward()
            d_sigma = -loss_value / sigma_value**3 + 1.0 / sigma_value
            npt.assert_allclose(sigma.log_sigma.grad[0], d_sigma * sigma_value, atol=1e-6)

    def test_stationary_at_sigma_squared_equals_loss(self):
        sigma = self.make_sigma([2.0])
        total, _ = L.total_loss(None, None, {0: t64(4.0)}, sigma)
        total.backward()
        npt.assert_allclose(sigma.log_sigma.grad[0], 0.0, atol=1e-9)

    def test_absent_dataset_gets_no_gradient(self):
        sigma = self.make_sigma([1.0, 2.0])
        total, _ = L.total_loss(None, None, {1: t64(8.0)}, sigma)
        total.backward()
        assert sigma.log_sigma.grad[0] == 0.0
        assert sigma.log_sigma.grad[1] != 0.0

    def test_vanilla_sum_without_sigma(self):
        total, report = L.total_loss(None, None, {0: t64(2.0), 1: t64(8.0)}, None)
        assert float(total.data) == 10.0
        assert report.sigmas is None

    def test_regularizers_enter_unweighted(self):
        sigma = self.make_sigma([1.0])
        total, report = L.total_loss(t64(0.25), t64(0.5), {0: t64(2.0)}, sigma)
        npt.assert_allclose(float(total.data), 2.0 / 2.0 + 0.25 + 0.5, atol=1e-9)
        assert report.variance == 0.25
        assert report.covariance == 0.5

    def test_needs_at_least_one_branch(self):
        with pytest.raises(ContractError):
            L.total_loss(None, None, {0: None}, None)

    def test_nonpositive_sigma_init_rejected(self):
        with pytest.raises(ConfigError):
            L.SigmaParams(2, sigma_init=0.0)


class TestLossReport:
    def test_check_finite_names_component(self):
        report = L.LossReport(
            total=float("nan"), variance=0.0, covariance=0.0, per_dataset={}, sigmas=None
        )
        with pytest.raises(NumericError, match="total"):
            report.check_finite(step=7)

    def test_check_finite_covers_sigmas(self):
        report = L.LossReport(
            total=0.0,
            variance=0.0,
            covariance=0.0,
            per_dataset={0: 1.0},
            sigmas={0: float("inf")},
        )
        with pytest.raises(NumericError, match="sigma"):
            report.check_finite()


class TestTopProjectionPairs:
    def test_single_entry_lookup(self):
        bank = tiny_bank((4, 4))
        bank.pair(0, 1).data[2, 3] = 5.0
        pairs = L.top_projection_pairs(bank, 0, 1, 1)
        assert pairs == [("3", "2", 5.0)]

    def test_ties_break_by_target_then_source(self):
        bank = tiny_bank((3, 3))
        w = bank.pair(0, 1)
        w.data[1, 2] = 1.0
        w.data[0, 1] = 1.0
        w.data[2, 0] = 3.0
        pairs = L.top_projection_pairs(bank, 0, 1, 3)
        assert pairs == [("0", "2", 3.0), ("1", "0", 1.0), ("2", "1", 1.0)]

    def test_n_clamped_to_matrix_size(self):
        bank = tiny_bank((2, 2))
        assert len(L.top_projection_pairs(bank, 0, 1, 99)) == 4

    def test_class_names_used(self):
        bank = tiny_bank((2, 2))
        bank.pair(0, 1).data[0, 1] = 1.0
        pairs = L.top_projection_pairs(
            bank, 0, 1, 1, class_names_i=["src/00", "src/01"], class_names_k=["dst/00", "dst/01"]
        )
        assert pairs[0] == ("src/01", "dst/00", 1.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigError):
            L.top_projection_pairs(tiny_bank(), 0, 1, 0)


class TestExpander:
    def test_shape_preserved(self):
        exp = L.Expander(6, 12, Rng(47, 0))
        out = exp(Tensor(Rng(47, 1).normal((3, 6)).astype(np.float32)))
        assert out.shape == (3, 6)

    def test_rejects_single_row(self):
        exp = L.Expander(6, 12, Rng(47, 0))
        with pytest.raises(BatchSizeError):
            exp(Tensor(np.zeros((1, 6), dtype=np.float32)))

    def test_gradient_through_informative_losses(self):
        exp = L.Expander(4, 8, Rng(49, 0)).to_dtype(np.float64)
        for _, p in exp.named_parameters():
            p.data = Rng(49, 1).normal(p.shape, std=0.5)

        def f(z):
            out = exp.net(z)
            return L.variance_loss(out) + L.covariance_loss(out)

        err = finite_diff_check(f, t64(Rng(49, 2).normal((5, 4)) * 0.5))
        assert err < 1e-6
