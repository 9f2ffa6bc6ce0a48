"""Schedule arithmetic and AdamW update contracts."""

import math

import numpy as np
import pytest

from vidcorr.encoder import EncoderParams, ModelConfig
from vidcorr.numerics import Rng, Tensor, named_list_bytes, parse_named_list
from vidcorr.harness import (
    CheckpointError,
    build_run_config,
    canonical_config_text,
    checkpoint_bytes,
    load_checkpoint,
    restore_state,
)
from vidcorr.objectives import TeacherState
from vidcorr.optimizer import (
    OptimizerConfig,
    OptState,
    Schedule,
    adamw_step,
    base_lr,
    decay_exempt,
    lr_at,
    wd_at,
)

MICRO = dict(patch_size=2, embed_dim=8, depth=1, heads=2, mlp_ratio=2,
             proj_layers=1, proj_dim=6, proj_hidden=12,
             pe_base_resolution=2, inference_layer=1)


def micro_params(seed):
    config = ModelConfig(**MICRO)
    return EncoderParams.init(config, Rng(seed), dtype=np.float64)


def small_config(batch_size=16, clip_len=4, **opt):
    """The schedule of a 25-epoch run of 10 steps per epoch, 5 of them
    warmup; opt overrides opt.* settings."""
    return Schedule(OptimizerConfig(**{"warmup_epochs": 5, **opt}), batch_size,
                    clip_len, steps_per_epoch=10, total_epochs=25)


class TestConfig:
    def test_warmup_must_stay_below_total(self):
        with pytest.raises(ValueError, match="warmup"):
            build_run_config({"epochs": 25, "opt.warmup_epochs": 25})

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            OptimizerConfig(wd_start=0.0)

    def test_betas_bounded(self):
        with pytest.raises(ValueError, match="betas"):
            OptimizerConfig(beta2=1.0)

    def test_step_counts(self):
        config = small_config()
        assert config.warmup_steps == 50
        assert config.total_steps == 250


class TestBaseLr:
    def test_full_scale_value(self):
        """0.003 * 16 * 4 / 1024 = 1.875e-4."""
        assert base_lr(small_config()) == pytest.approx(1.875e-4, rel=1e-12)

    def test_large_dataset_value(self):
        """0.0003 * 32 * 4 / 1024 = 3.75e-5."""
        config = small_config(batch_size=32, lr_scale_constant=0.0003)
        assert base_lr(config) == pytest.approx(3.75e-5, rel=1e-12)

    def test_normalization_point(self):
        """batch * L = 1024 returns the scale constant itself."""
        config = small_config(batch_size=256, clip_len=4)
        assert base_lr(config) == pytest.approx(0.003, rel=1e-12)


class TestLrSchedule:
    def test_starts_at_zero(self):
        assert lr_at(0, small_config()) == 0.0

    def test_linear_through_warmup(self):
        config = small_config()
        base = base_lr(config)
        assert lr_at(25, config) == pytest.approx(base / 2, rel=1e-12)

    def test_continuous_at_warmup_boundary(self):
        config = small_config()
        base = base_lr(config)
        warm = config.warmup_steps
        assert abs(lr_at(warm, config) - base) < 1e-12 * base
        assert lr_at(warm - 1, config) < lr_at(warm, config)

    def test_cosine_midpoint(self):
        config = small_config()
        base = base_lr(config)
        floor = 1e-6 * base
        mid = (config.warmup_steps + config.total_steps) // 2
        assert lr_at(mid, config) == pytest.approx((base + floor) / 2, rel=1e-12)

    def test_nonincreasing_after_warmup(self):
        config = small_config()
        values = [lr_at(s, config) for s in range(config.warmup_steps,
                                                  config.total_steps + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_clamps_past_the_end(self):
        config = small_config()
        floor = 1e-6 * base_lr(config)
        assert lr_at(config.total_steps, config) == pytest.approx(floor, rel=1e-12)
        assert lr_at(config.total_steps + 123, config) == lr_at(
            config.total_steps, config)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            lr_at(-1, small_config())


class TestWdSchedule:
    def test_endpoints_exact(self):
        config = small_config()
        assert wd_at(0, config) == 0.04
        assert wd_at(config.total_steps, config) == 0.4

    def test_midpoint(self):
        config = small_config()
        assert wd_at(config.total_steps // 2, config) == pytest.approx(
            0.22, rel=1e-12)

    def test_nondecreasing(self):
        config = small_config()
        values = [wd_at(s, config) for s in range(config.total_steps + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_clamps_past_the_end(self):
        config = small_config()
        assert wd_at(config.total_steps + 7, config) == 0.4

    def test_no_warmup_on_decay(self):
        """wd already moves during the lr warmup phase."""
        config = small_config()
        assert wd_at(1, config) > 0.04


class ScalarParams:
    """Minimal named-parameter tree: one scalar weight, one bias."""

    def __init__(self, weight, bias=0.0):
        self._tensors = {
            "w": Tensor(np.array([[float(weight)]])),
            "b": Tensor(np.array([float(bias)])),
        }

    def named_parameters(self):
        return list(self._tensors.items())

    def __getitem__(self, name):
        return self._tensors[name]


class TestAdamwStep:
    def test_zero_grads_zero_wd_is_identity(self):
        params = ScalarParams(1.5, bias=-0.25)
        state = OptState.init(params)
        adamw_step(params, {}, state, lr=1e-3, wd=0.0, config=OptimizerConfig())
        assert params["w"].data[0, 0] == 1.5
        assert params["b"].data[0] == -0.25
        assert state.step == 1

    def test_two_step_manual_trace(self):
        """Spreadsheet-style recurrence on one scalar weight."""
        config = OptimizerConfig()
        params = ScalarParams(2.0)
        state = OptState.init(params)
        grads = [0.5, -1.0]
        theta, m, v = 2.0, 0.0, 0.0
        lr, wd, eps = 0.01, 0.1, config.eps
        b1, b2 = config.beta1, config.beta2
        for t, g in enumerate(grads, start=1):
            adamw_step(params, {"w": np.array([[g]])}, state, lr, wd, config)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta = theta - lr * (mhat / (math.sqrt(vhat) + eps) + wd * theta)
            assert params["w"].data[0, 0] == pytest.approx(theta, rel=1e-12)
        assert state.step == 2

    def test_decay_shrinks_without_gradient(self):
        """Decoupling: zero grads, wd > 0 is a pure multiplicative decay
        on decayed parameters and a no-op on exempt ones."""
        params = ScalarParams(4.0, bias=3.0)
        state = OptState.init(params)
        adamw_step(params, {}, state, lr=0.25, wd=0.1, config=OptimizerConfig())
        assert params["w"].data[0, 0] == pytest.approx(4.0 * (1 - 0.25 * 0.1), rel=1e-12)
        assert params["b"].data[0] == 3.0

    def test_exemption_list(self):
        """1-d tensors and the two tokens never decay."""
        params = micro_params(1)
        config = OptimizerConfig()
        state = OptState.init(params)
        before = {n: t.data.copy() for n, t in params.named_parameters()}
        adamw_step(params, {}, state, lr=0.1, wd=0.4, config=config)
        for name, t in params.named_parameters():
            if decay_exempt(name, t):
                np.testing.assert_array_equal(t.data, before[name], err_msg=name)
            else:
                assert t.data.ndim > 1
                np.testing.assert_allclose(
                    t.data, before[name] * (1 - 0.1 * 0.4), rtol=1e-12, err_msg=name)
        assert decay_exempt("cls_token", params["cls_token"])
        assert decay_exempt("mask_token", params["mask_token"])
        assert not decay_exempt("patch_proj/weight", params["patch_proj/weight"])

    def test_shape_mismatch_rejected(self):
        params = ScalarParams(1.0)
        state = OptState.init(params)
        with pytest.raises(ValueError, match="shape"):
            adamw_step(params, {"w": np.zeros(3)}, state, 0.1, 0.0, OptimizerConfig())

    def test_deterministic_across_runs(self):
        config = OptimizerConfig()
        g = np.random.default_rng(2)
        grads = {n: g.normal(size=t.shape)
                 for n, t in micro_params(3).named_parameters()}
        results = []
        for _ in range(2):
            params = micro_params(3)
            state = OptState.init(params)
            for _ in range(3):
                adamw_step(params, grads, state, 1e-3, 0.05, config)
            results.append({n: t.data.copy() for n, t in params.named_parameters()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_gradient_dict_order_irrelevant(self):
        config = OptimizerConfig()
        g = np.random.default_rng(4)
        items = [(n, g.normal(size=t.shape))
                 for n, t in micro_params(5).named_parameters()]
        outs = []
        for ordering in (items, items[::-1]):
            params = micro_params(5)
            state = OptState.init(params)
            adamw_step(params, dict(ordering), state, 1e-3, 0.05, config)
            outs.append({n: t.data.copy() for n, t in params.named_parameters()})
        for name in outs[0]:
            np.testing.assert_array_equal(outs[0][name], outs[1][name])

    def test_descends_a_quadratic_bowl(self):
        """One small-lr step on f(x) = x^2 lowers f."""
        params = ScalarParams(3.0)
        state = OptState.init(params)
        grad = {"w": np.array([[2.0 * 3.0]])}
        adamw_step(params, grad, state, lr=1e-3, wd=0.0, config=OptimizerConfig())
        x = params["w"].data[0, 0]
        assert x ** 2 < 9.0


class TestOptStateSerialization:
    """The optimizer state goes to disk inside a checkpoint:
    checkpoint_bytes writes it and restore_state reads it back."""

    def checkpoint(self, tmp_path, edit=lambda records: records):
        """(path, run, opt_state) after two AdamW steps on fresh float32
        parameters; edit rewrites the record list before it is saved."""
        run = build_run_config({f"model.{k}": v for k, v in MICRO.items()})
        params = EncoderParams.init(run.model, Rng(6))
        state = OptState.init(params)
        g = np.random.default_rng(7)
        grads = {n: g.normal(size=t.shape).astype(np.float32)
                 for n, t in params.named_parameters()}
        for _ in range(2):
            adamw_step(params, grads, state, 1e-3, 0.1, OptimizerConfig())
        teacher = TeacherState.from_student(params, 0.9, 0.9)
        text = canonical_config_text(run)
        blob = checkpoint_bytes(params, teacher, state, 2, text)
        header = 17 + len(text.encode())
        records, _ = parse_named_list(blob, header)
        path = tmp_path / "ck.ckpt"
        path.write_bytes(blob[:header] + named_list_bytes(edit(records)))
        return path, run, state

    def test_round_trip_through_records(self, tmp_path):
        path, run, state = self.checkpoint(tmp_path)
        ckpt = load_checkpoint(path)
        student, teacher, back = restore_state(ckpt, run)
        assert back.step == 2
        assert list(back.m) == list(back.v) == list(state.m)
        for name in state.m:
            np.testing.assert_array_equal(back.m[name], state.m[name])
            np.testing.assert_array_equal(back.v[name], state.v[name])
        assert checkpoint_bytes(student, teacher, back, ckpt.step,
                                ckpt.config_text) == path.read_bytes()

    def test_unknown_record_rejected(self, tmp_path):
        path, run, _ = self.checkpoint(
            tmp_path, lambda records: records + [("opt/zz/x", np.zeros(1))])
        with pytest.raises(CheckpointError, match="record opt/zz/x is unexpected"):
            restore_state(load_checkpoint(path), run)

    def test_unpaired_moments_rejected(self, tmp_path):
        path, run, _ = self.checkpoint(
            tmp_path, lambda records: [(n, a) for n, a in records
                                       if n != "opt/v/cls_token"])
        with pytest.raises(CheckpointError, match="record opt/v/cls_token is missing"):
            restore_state(load_checkpoint(path), run)
