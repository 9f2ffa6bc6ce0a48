"""Objective-function contracts: hand-computed oracles for every loss,
centering and EMA arithmetic, and end-to-end gradient fidelity on a
micro model."""

import math

import numpy as np
import pytest

from vidcorr.encoder import (
    EncoderParams,
    ModelConfig,
    apply_mask_tokens,
    forward_batch,
    patchify_batch,
)
from vidcorr.numerics import (
    Rng,
    add,
    backward,
    gather_rows,
    grad_check,
    l2_normalize_rows,
    reshape,
    Tensor,
)
import vidcorr.objectives as objectives
from vidcorr.objectives import (
    LossBreakdown,
    TeacherState,
    TemperatureConfig,
    build_affinity,
    center_update,
    ema_update,
    loss_in_aff,
    loss_in_mim,
    loss_out_g2g,
    loss_out_l2g,
    student_distribution,
    teacher_distribution,
    total_loss,
    zero_loss,
)
from vidcorr.harness import RunConfig, step_losses
from vidcorr.views import ViewConfig, make_frame_pairs

# the run knobs' one declaration: what a run passes when nothing is set
RUN = RunConfig()

MICRO = dict(patch_size=2, embed_dim=8, depth=1, heads=2, mlp_ratio=2,
             proj_layers=1, proj_dim=6, proj_hidden=12,
             pe_base_resolution=2, inference_layer=1)


def micro_params(seed, requires_grad=True):
    config = ModelConfig(**MICRO)
    rng = Rng(seed)
    return config, EncoderParams.init(config, rng, requires_grad=requires_grad,
                                      dtype=np.float64)


def dist_rows(shape, seed):
    """Random rows on the simplex, float64, entries well above the
    cross-entropy clamp."""
    g = np.random.default_rng(seed)
    rows = g.dirichlet(np.ones(shape[-1]), size=shape[:-1]) * 0.7
    return rows + 0.3 / shape[-1]


def entropy(p):
    return float(-(p * np.log(p)).sum())


def ce(t, s):
    return float(-(t * np.log(s)).sum())


class TestTemperatureConfig:
    def test_defaults(self):
        """Student 0.1, teacher 0.04, teacher the sharper of the two."""
        temps = TemperatureConfig()
        assert temps.student == 0.1
        assert temps.teacher == 0.04

    def test_teacher_hotter_than_student_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            TemperatureConfig(student=0.04, teacher=0.1)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            TemperatureConfig(student=0.0, teacher=0.0)


class TestDistributions:
    def test_teacher_zero_center_unit_temperature(self):
        """exp([0, ln3, 0, 0]) = [1, 3, 1, 1] -> [1/6, 1/2, 1/6, 1/6]."""
        _, params = micro_params(0, requires_grad=False)
        state = TeacherState(params, RUN.ema_momentum, RUN.center_momentum)
        temps = TemperatureConfig(student=1.0, teacher=1.0)
        state.center_cls = Tensor(np.zeros(4))
        logits = Tensor(np.array([0.0, math.log(3.0), 0.0, 0.0]))
        out = teacher_distribution(logits, state, temps, "cls")
        np.testing.assert_allclose(
            out.data, [1 / 6, 1 / 2, 1 / 6, 1 / 6], atol=1e-12)

    def test_center_subtracted_before_softmax(self):
        _, params = micro_params(1, requires_grad=False)
        state = TeacherState(params, RUN.ema_momentum, RUN.center_momentum)
        temps = TemperatureConfig(student=0.5, teacher=0.2)
        g = np.random.default_rng(3)
        center = g.normal(size=6)
        logits = g.normal(size=(5, 6))
        state.center_cls = Tensor(center)
        out = teacher_distribution(Tensor(logits), state, temps, "cls")
        shifted = (logits - center) / 0.2
        expect = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        expect /= expect.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_patch_kind_uses_patch_center(self):
        _, params = micro_params(2, requires_grad=False)
        state = TeacherState(params, RUN.ema_momentum, RUN.center_momentum)
        temps = TemperatureConfig()
        state.center_cls = Tensor(np.full(6, 100.0))
        state.center_patch = Tensor(np.zeros(6))
        logits = Tensor(np.zeros((2, 6)))
        out = teacher_distribution(logits, state, temps, "patch")
        np.testing.assert_allclose(out.data, np.full((2, 6), 1 / 6), atol=1e-12)

    def test_unknown_kind_rejected(self):
        _, params = micro_params(3, requires_grad=False)
        state = TeacherState(params, RUN.ema_momentum, RUN.center_momentum)
        with pytest.raises(ValueError, match="kind"):
            teacher_distribution(Tensor(np.zeros(6)), state, TemperatureConfig(), "globals")

    def test_teacher_rejects_graph_tracking_logits(self):
        """The teacher side is stop-gradient by construction."""
        _, params = micro_params(4, requires_grad=False)
        state = TeacherState(params, RUN.ema_momentum, RUN.center_momentum)
        live = Tensor(np.zeros(6), requires_grad=True)
        with pytest.raises(ValueError, match="detached"):
            teacher_distribution(live, state, TemperatureConfig(), "cls")

    def test_student_is_plain_tempered_softmax(self):
        """exp([0, 2 ln 3]) = [1, 9] at temperature 0.5."""
        temps = TemperatureConfig(student=0.5, teacher=0.2)
        out = student_distribution(Tensor(np.array([0.0, math.log(3.0)])), temps)
        np.testing.assert_allclose(out.data, [0.1, 0.9], atol=1e-12)


def oracle_g2g(teacher, student, pairs):
    terms = []
    for a, b in pairs:
        terms.append(ce(teacher[a], student[b]))
        terms.append(ce(teacher[b], student[a]))
    return sum(terms) / len(pairs), len(terms)


def oracle_l2g(teacher, locals_, pairs):
    terms = []
    for a, b in pairs:
        for t in (a, b):
            for frame in (a, b):
                for j in range(locals_.shape[1]):
                    terms.append(ce(teacher[t], locals_[frame, j]))
    return sum(terms) / len(pairs), len(terms)


class TestClassTokenLosses:
    def test_g2g_identical_distributions_give_twice_entropy(self):
        """Every cross term collapses to H(p), two terms per pair."""
        p = dist_rows((5,), 0)
        full = np.tile(p, (4, 1))
        pairs = make_frame_pairs(4)
        value = loss_out_g2g(Tensor(full), Tensor(full), pairs)
        assert value.data == pytest.approx(2 * entropy(p), abs=1e-12)

    def test_g2g_matches_double_loop(self):
        teacher = dist_rows((6, 7), 1)
        student = dist_rows((6, 7), 2)
        pairs = make_frame_pairs(6)
        expect, count = oracle_g2g(teacher, student, pairs)
        assert count == 2 * len(pairs)
        value = loss_out_g2g(Tensor(teacher), Tensor(student), pairs)
        assert value.data == pytest.approx(expect, rel=1e-12)

    def test_g2g_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            loss_out_g2g(Tensor(dist_rows((4, 5), 0)),
                         Tensor(dist_rows((4, 6), 0)), [(0, 2)])

    def test_g2g_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            loss_out_g2g(Tensor(dist_rows((4, 5), 0)),
                         Tensor(dist_rows((4, 5), 1)), [])

    def test_l2g_single_local_two_frames(self):
        """M=1, L=2, all distributions equal: 4 terms of H(p), one pair."""
        p = dist_rows((5,), 3)
        teacher = np.tile(p, (2, 1))
        locals_ = np.tile(p, (2, 1, 1))
        value = loss_out_l2g(Tensor(teacher), Tensor(locals_), [(0, 1)])
        assert value.data == pytest.approx(4 * entropy(p), abs=1e-12)

    def test_l2g_matches_double_loop(self):
        teacher = dist_rows((4, 5), 4)
        locals_ = dist_rows((4, 3, 5), 5)
        pairs = make_frame_pairs(4)
        expect, count = oracle_l2g(teacher, locals_, pairs)
        assert count == 4 * 3 * len(pairs)
        value = loss_out_l2g(Tensor(teacher), Tensor(locals_), pairs)
        assert value.data == pytest.approx(expect, rel=1e-12)

    def test_l2g_teacher_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            loss_out_l2g(Tensor(dist_rows((2, 4), 0)),
                         Tensor(dist_rows((2, 3, 5), 1)), [(0, 1)])

    def test_gradient_reaches_student_only(self):
        """Teacher rows enter as constants; student logits get a grad."""
        logits = Tensor(np.random.default_rng(6).normal(size=(4, 5)),
                        requires_grad=True)
        student = student_distribution(logits, TemperatureConfig())
        teacher = Tensor(dist_rows((4, 5), 7))
        value = loss_out_g2g(teacher, student, make_frame_pairs(4))
        backward(value)
        assert logits.grad is not None
        assert teacher.grad is None


class TestMaskedPrediction:
    def rows(self, teacher, student, bits):
        """The masked positions' rows of (L, P, k) grids, frame by frame,
        as step_losses gathers them."""
        frame, token = np.nonzero(np.array(bits, dtype=bool))
        return Tensor(teacher[frame, token]), Tensor(student[frame, token])

    def test_matches_double_loop(self):
        teacher = dist_rows((2, 4, 3), 8)
        student = dist_rows((2, 4, 3), 9)
        bits = [[1, 0, 0, 1], [0, 1, 0, 0]]
        expect = sum(ce(teacher[i, j], student[i, j])
                     for i in range(2) for j in range(4) if bits[i][j]) / 2
        value = loss_in_mim(*self.rows(teacher, student, bits), 2)
        assert value.data == pytest.approx(expect, rel=1e-12)

    def test_all_clear_masks_give_zero(self):
        teacher = dist_rows((2, 4, 3), 11)
        bits = [[0, 0, 0, 0], [0, 0, 0, 0]]
        assert loss_in_mim(*self.rows(teacher, teacher, bits), 2).data == 0.0

    def test_saturated_equal_distributions(self):
        """All P tokens masked, teacher = student = uniform: the frame
        sums contribute P * ln(k) after the 1/L average."""
        p, k = 4, 3
        uniform = np.full((2, p, k), 1.0 / k)
        bits = [[1] * p, [1] * p]
        value = loss_in_mim(*self.rows(uniform, uniform, bits), 2)
        assert value.data == pytest.approx(p * math.log(k), rel=1e-12)


class TestAffinity:
    def test_orthonormal_rows_unit_temperature(self):
        """Identity similarities: diagonal e / (e + K - 1)."""
        q = Tensor(np.eye(3))
        aff = build_affinity(q, q, 1.0)
        e = math.e
        expect = np.full((3, 3), 1.0 / (e + 2.0))
        np.fill_diagonal(expect, e / (e + 2.0))
        np.testing.assert_allclose(aff.data, expect, atol=1e-12)

    def test_single_token_is_certain(self):
        aff = build_affinity(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))), 0.07)
        assert aff.data[0, 0] == 1.0

    def test_rows_are_stochastic(self):
        g = np.random.default_rng(16)
        q_a = l2_normalize_rows(Tensor(g.normal(size=(6, 4))))
        q_b = l2_normalize_rows(Tensor(g.normal(size=(6, 4))))
        aff = build_affinity(q_a, q_b, 0.07)
        assert aff.shape == (6, 6)
        np.testing.assert_allclose(aff.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_temperature_divides_similarities(self):
        root = 1.0 / math.sqrt(2.0)
        q_a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        q_b = Tensor(np.array([[root, root], [1.0, 0.0]]))
        aff = build_affinity(q_a, q_b, 0.5)
        sims = np.array([[root, 1.0], [root, 0.0]]) / 0.5
        expect = np.exp(sims - sims.max(axis=-1, keepdims=True))
        expect /= expect.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(aff.data, expect, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            build_affinity(Tensor(np.eye(3)), Tensor(np.eye(4)), 0.07)

    def test_non_stochastic_values_rejected(self, monkeypatch):
        """Rows summing to 1 +- 4e-5 are refused; 1 + 1e-5 is inside the
        tolerance."""
        q = Tensor(np.eye(2))

        def rows_of(entry):
            monkeypatch.setattr(objectives, "softmax_t",
                                lambda x, temperature: Tensor(np.full(x.shape, entry)))
            return build_affinity(q, q, 0.07)

        for entry in (0.5 + 2e-5, 0.5 - 2e-5):
            with pytest.raises(ValueError, match="sum"):
                rows_of(entry)
        assert (rows_of(0.5 + 5e-6).data == 0.5 + 5e-6).all()


class TestAffinityLoss:
    def build(self, rows, temperature):
        q = l2_normalize_rows(Tensor(rows))
        return build_affinity(q, q, temperature)

    def test_equal_matrices_give_row_entropies(self):
        """Uniform K x K rows: each transition contributes K ln K."""
        k = 4
        uniform = Tensor(np.full((k, k), 1.0 / k))
        mats = [uniform] * 3
        value = loss_in_aff(mats, mats)
        assert value.data == pytest.approx(k * math.log(k), rel=1e-12)

    def test_matches_double_loop(self):
        g = np.random.default_rng(17)
        teacher = [self.build(g.normal(size=(5, 3)), 0.04) for _ in range(2)]
        student = [self.build(g.normal(size=(5, 3)), 0.1) for _ in range(2)]
        expect = sum(ce(t.data[j], s.data[j])
                     for t, s in zip(teacher, student)
                     for j in range(5)) / 2
        value = loss_in_aff(teacher, student)
        assert value.data == pytest.approx(expect, rel=1e-12)

    def test_transition_count_mismatch_rejected(self):
        mat = self.build(np.random.default_rng(18).normal(size=(3, 2)), 0.07)
        with pytest.raises(ValueError, match="counts"):
            loss_in_aff([mat, mat], [mat])

    def test_size_mismatch_rejected(self):
        g = np.random.default_rng(19)
        small = self.build(g.normal(size=(3, 2)), 0.07)
        big = self.build(g.normal(size=(4, 2)), 0.07)
        with pytest.raises(ValueError, match="differ"):
            loss_in_aff([small], [big])

    def test_no_transitions_rejected(self):
        with pytest.raises(ValueError, match="no frame transitions"):
            loss_in_aff([], [])


class TestTotalLoss:
    def test_equal_weight_sum(self):
        parts = [Tensor(np.float64(v)) for v in (1.25, 0.5, 2.0, 0.125)]
        breakdown = total_loss(*parts)
        assert breakdown.total.data == 3.875
        assert breakdown.floats() == (1.25, 0.5, 2.0, 0.125, 3.875)

    def test_gated_terms_leave_sum_bitwise_intact(self):
        """With the mask gate off the total must equal the two class-token
        terms exactly, not just approximately."""
        g2g = Tensor(np.float64(0.7613451337814331))
        l2g = Tensor(np.float64(1.9732118845176))
        gated = total_loss(g2g, l2g, zero_loss(np.float64), zero_loss(np.float64))
        assert gated.total.data == add(g2g, l2g).data

    def test_log_line_layout(self):
        parts = [Tensor(np.float64(v)) for v in (1.0, 2.0, 3.0, 4.0)]
        line = total_loss(*parts).log_line(17, 1.875e-4, 0.04, True)
        fields = line.split("\t")
        assert len(fields) == 9
        assert fields[0] == "17"
        assert float(fields[5]) == pytest.approx(10.0)
        assert fields[8] == "1"


class TestTeacherStateAndEma:
    def test_from_student_copies_without_graph(self):
        _, student = micro_params(20)
        state = TeacherState.from_student(student, RUN.ema_momentum, RUN.center_momentum)
        for (name, t), (_, s) in zip(state.params.named_parameters(),
                                     student.named_parameters()):
            assert not t.requires_grad, name
            np.testing.assert_array_equal(t.data, s.data)
        t0 = state.params["cls_token"]
        t0.data[...] = 5.0
        assert not np.array_equal(student["cls_token"].data, t0.data)

    def test_rejects_graph_tracking_parameters(self):
        _, student = micro_params(21)
        with pytest.raises(ValueError, match="gradients"):
            TeacherState(student, RUN.ema_momentum, RUN.center_momentum)

    def test_momentum_one_freezes_teacher(self):
        _, student = micro_params(22)
        state = TeacherState.from_student(student, 1.0, RUN.center_momentum)
        before = {n: t.data.copy() for n, t in state.params.named_parameters()}
        _, other = micro_params(23)
        ema_update(state, other)
        for name, t in state.params.named_parameters():
            np.testing.assert_array_equal(t.data, before[name])

    def test_momentum_zero_copies_student(self):
        _, student = micro_params(24)
        _, other = micro_params(25)
        state = TeacherState.from_student(student, 0.0, RUN.center_momentum)
        ema_update(state, other)
        for (name, t), (_, s) in zip(state.params.named_parameters(),
                                     other.named_parameters()):
            np.testing.assert_array_equal(t.data, s.data)

    def test_default_momentum_blend(self):
        """The run config's default EMA momentum, the one a run passes:
        0.996 * 0 + 0.004 * 1 = 0.004 on every element. The teacher
        itself declares no default."""
        _, student = micro_params(26)
        with pytest.raises(TypeError):
            TeacherState.from_student(student)
        state = TeacherState.from_student(student, RUN.ema_momentum, RUN.center_momentum)
        assert state.momentum == 0.996
        for _, t in state.params.named_parameters():
            t.data[...] = 0.0
        for _, s in student.named_parameters():
            s.data[...] = 1.0
        ema_update(state, student)
        for name, t in state.params.named_parameters():
            np.testing.assert_allclose(t.data, 0.004, atol=1e-12, err_msg=name)

    def test_mismatched_trees_rejected(self):
        _, student = micro_params(27)
        other_config = ModelConfig(**{**MICRO, "depth": 2})
        deeper = EncoderParams.init(other_config, Rng(1), dtype=np.float64)
        state = TeacherState.from_student(student, RUN.ema_momentum, RUN.center_momentum)
        with pytest.raises(ValueError, match="trees"):
            ema_update(state, deeper)

    def test_update_stays_outside_graph(self):
        _, student = micro_params(28)
        state = TeacherState.from_student(student, RUN.ema_momentum, RUN.center_momentum)
        ema_update(state, student)
        for _, t in state.params.named_parameters():
            assert not t.requires_grad
            assert t.grad is None


class TestCenterUpdate:
    def state(self, seed, center_momentum=None):
        _, params = micro_params(seed, requires_grad=False)
        if center_momentum is None:
            center_momentum = RUN.center_momentum
        return TeacherState(params, RUN.ema_momentum, center_momentum)

    def test_momentum_zero_is_batch_mean(self):
        state = self.state(29, center_momentum=0.0)
        g = np.random.default_rng(30)
        cls = g.normal(size=(10, 6))
        patch = g.normal(size=(3, 4, 6))
        center_update(state, Tensor(cls), Tensor(patch))
        np.testing.assert_allclose(state.center_cls.data, cls.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(state.center_patch.data,
                                   patch.reshape(-1, 6).mean(axis=0), atol=1e-12)

    def test_running_blend(self):
        state = self.state(31)
        state.center_cls = Tensor(np.full(6, 2.0))
        cls = np.zeros((4, 6))
        center_update(state, Tensor(cls), Tensor(cls))
        np.testing.assert_allclose(state.center_cls.data, 1.8, atol=1e-12)

    def test_default_momentum(self):
        """The run config's default center momentum, the one a run
        passes; the teacher itself declares no default."""
        _, params = micro_params(32, requires_grad=False)
        with pytest.raises(TypeError):
            TeacherState(params, RUN.ema_momentum)
        assert self.state(32).center_momentum == 0.9

    def test_empty_batch_rejected(self):
        state = self.state(33)
        with pytest.raises(ValueError, match="empty"):
            center_update(state, Tensor(np.zeros((0, 6))), Tensor(np.zeros((2, 6))))

    def test_accepts_tensor_input(self):
        state = self.state(34, center_momentum=0.0)
        cls = Tensor(np.ones((2, 6)))
        center_update(state, cls, cls)
        np.testing.assert_allclose(state.center_cls.data, 1.0, atol=1e-12)

    def test_constant_shift_absorbed_into_center(self):
        """Shift every teacher logit by c, refresh the center with
        momentum 0: the teacher distributions are unchanged."""
        temps = TemperatureConfig()
        g = np.random.default_rng(35)
        logits = g.normal(size=(8, 6))
        shift = g.normal(size=6)

        plain = self.state(36, center_momentum=0.0)
        center_update(plain, Tensor(logits), Tensor(logits))
        base = teacher_distribution(Tensor(logits), plain, temps, "cls")

        shifted = self.state(36, center_momentum=0.0)
        center_update(shifted, Tensor(logits + shift), Tensor(logits + shift))
        moved = teacher_distribution(Tensor(logits + shift), shifted, temps, "cls")
        np.testing.assert_allclose(moved.data, base.data, atol=1e-9)


def masked_rows(patch, masks):
    """Rows of the masked positions of (L, P, k) patch tensors, frame by
    frame, as step_losses gathers them; masks is (L, P) bool."""
    clip_len, p, k = patch.shape
    frame, token = np.nonzero(masks)
    return gather_rows(reshape(patch, (clip_len * p, k)), frame * p + token)


def masked_q(patch_logits, masks):
    """Unit-norm rows of the masked positions, one (K, k) block per frame."""
    clip_len, p, k = patch_logits.shape
    flat = reshape(patch_logits, (clip_len * p, k))
    out = []
    for i, frame_mask in enumerate(masks):
        rows = i * p + np.nonzero(frame_mask)[0]
        out.append(l2_normalize_rows(gather_rows(flat, rows)))
    return out


def pipeline_loss(student, teacher, temps, config, globals_, locals_, masks, pairs):
    """All four losses on one micro clip, mirroring a training step:
    teacher sees unmasked globals only; the student adds local crops and
    a mask-token forward for the two patch objectives."""
    clip_len = len(globals_)
    m = len(locals_) // clip_len
    k = config.proj_dim

    t_cls, t_patch = forward_batch(
        patchify_batch(globals_, teacher.params, config), teacher.params, config)
    td_cls = teacher_distribution(t_cls, teacher, temps, "cls")
    td_patch = teacher_distribution(t_patch, teacher, temps, "patch")

    s_cls, _ = forward_batch(
        patchify_batch(globals_, student, config), student, config)
    sd_cls = student_distribution(s_cls, temps)

    l_cls, _ = forward_batch(
        patchify_batch(locals_, student, config), student, config)
    sd_locals = student_distribution(reshape(l_cls, (clip_len, m, k)), temps)

    g2g = loss_out_g2g(td_cls, sd_cls, pairs)
    l2g = loss_out_l2g(td_cls, sd_locals, pairs)
    if masks is None:
        return total_loss(g2g, l2g, zero_loss(np.float64), zero_loss(np.float64))

    seq = patchify_batch(globals_, student, config)
    masked = apply_mask_tokens(seq, masks, student)
    _, s_patch = forward_batch(masked, student, config)
    mim = loss_in_mim(masked_rows(td_patch, masks),
                      masked_rows(student_distribution(s_patch, temps), masks), clip_len)

    q_teacher = masked_q(t_patch, masks)
    q_student = masked_q(s_patch, masks)
    t_aff = [build_affinity(q_teacher[i], q_teacher[i + 1], temps.teacher)
             for i in range(clip_len - 1)]
    s_aff = [build_affinity(q_student[i], q_student[i + 1], temps.student)
             for i in range(clip_len - 1)]
    aff = loss_in_aff(t_aff, s_aff)
    return total_loss(g2g, l2g, mim, aff)


class TestEndToEnd:
    def setup_method(self):
        self.config, self.student = micro_params(40)
        self.teacher = TeacherState.from_student(self.student, RUN.ema_momentum,
                                                   RUN.center_momentum)
        self.temps = TemperatureConfig()
        g = np.random.default_rng(41)
        self.globals_ = g.uniform(size=(2, 4, 4, 3))
        self.locals_ = g.uniform(size=(2, 4, 4, 3))
        self.masks = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=bool)
        self.pairs = [(0, 1)]

    def total(self):
        return pipeline_loss(self.student, self.teacher, self.temps, self.config,
                             self.globals_, self.locals_, self.masks, self.pairs)

    def test_teacher_parameters_never_receive_gradients(self):
        breakdown = self.total()
        backward(breakdown.total)
        for name, t in self.teacher.params.named_parameters():
            assert t.grad is None, name
        live = [n for n, s in self.student.named_parameters() if s.grad is not None]
        assert "patch_proj/weight" in live
        assert "mask_token" in live
        assert "head/out_weight" in live

    def test_gate_off_drops_patch_terms_bitwise(self):
        gated = pipeline_loss(self.student, self.teacher, self.temps, self.config,
                              self.globals_, self.locals_, None, self.pairs)
        assert gated.in_mim.data == 0.0 and gated.in_aff.data == 0.0
        assert gated.total.data == add(gated.out_g2g, gated.out_l2g).data

    @pytest.mark.parametrize("name", [
        "cls_token",
        "mask_token",
        "patch_proj/weight",
        "block0/attn/qkv_weight",
        "head/out_weight",
    ])
    def test_total_loss_gradient_fidelity(self, name):
        """Analytic d(total)/d(param) vs central differences at 1e-4."""
        base = dict(self.student.named_parameters())
        shape = base[name].shape

        def f(flat):
            tensors = {n: (reshape(flat, shape) if n == name else t)
                       for n, t in base.items()}
            candidate = EncoderParams(self.config, tensors)
            return pipeline_loss(candidate, self.teacher, self.temps, self.config,
                                 self.globals_, self.locals_, self.masks,
                                 self.pairs).total

        # Temperatures of 0.04/0.1 scale logits 25x/10x before softmax,
        # and fan-in-scaled weights steepen the landscape further, so
        # coarse steps leave visible O(h^2) truncation; the error drops
        # fourfold per halving, confirming it is not a vjp defect. 5e-6
        # keeps truncation ~1e-5 with roundoff still orders below that.
        probe = Tensor(base[name].data.reshape(-1).copy(), name=name)
        report = grad_check(f, probe, h=5e-6)
        assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error:.3e}"


def clip_crops(g, clip_len, m, global_size, local_size):
    """Random (global, local) crop stacks of one clip, as make_crops
    shapes them."""
    return (g.uniform(size=(clip_len, global_size, global_size, 3)),
            g.uniform(size=(clip_len * m, local_size, local_size, 3)))


def clip_masks(*frames, tokens=9):
    """(L, tokens) bool masks with the given masked positions per frame."""
    masks = np.zeros((len(frames), tokens), dtype=bool)
    for i, positions in enumerate(frames):
        masks[i, list(positions)] = True
    return masks


# per clip a (2, 9) mask (clip_len 2), or None when the gate is off; the
# gated clips mask K = 2 and K = 3 of 9 tokens
GATED_K2 = clip_masks([0, 4], [5, 8])
GATED_K3 = clip_masks([1, 2, 7], [0, 3, 6])


class TestStepLosses:
    """harness.step_losses, the training step's loss assembly, whose
    student head sees only the rows the losses read, against the
    all-rows pipeline_loss reference."""

    def setup_method(self):
        self.config, self.student = micro_params(50)
        self.teacher = TeacherState.from_student(self.student, RUN.ema_momentum,
                                                   RUN.center_momentum)
        g = np.random.default_rng(51)
        k = self.config.proj_dim
        self.teacher.center_cls.data = g.normal(scale=0.1, size=k)
        self.teacher.center_patch.data = g.normal(scale=0.1, size=k)
        self.run = RunConfig(view=ViewConfig(clip_len=2, locals_per_frame=2),
                             model=self.config)
        # 6x6 globals give a 3x3 token grid; 4x4 locals a 2x2 one
        self.crops = [clip_crops(g, 2, 2, 6, 4) for _ in range(3)]

    def reference(self, student, crops, masks_per_clip):
        """Batch mean of pipeline_loss's per-clip terms."""
        terms = np.zeros(5)
        for (globals_, locals_), masks in zip(crops, masks_per_clip):
            breakdown = pipeline_loss(student, self.teacher, self.run.temp, self.config,
                                      globals_, locals_, masks, make_frame_pairs(2))
            terms += breakdown.floats()
        return terms / len(crops)

    @pytest.mark.parametrize("masks_per_clip", [
        [GATED_K2, GATED_K3],
        [GATED_K3, None, GATED_K2],
        [None, None],
    ], ids=["two-gated", "gate-off-between", "all-gate-off"])
    def test_terms_match_all_rows_reference(self, masks_per_clip):
        crops = self.crops[:len(masks_per_clip)]
        breakdown, t_cls, t_patch = step_losses(crops, masks_per_clip, self.student,
                                                self.teacher, self.run)
        expected = self.reference(self.student, crops, masks_per_clip)
        np.testing.assert_allclose(breakdown.floats(), expected, rtol=1e-12, atol=0)
        gated = any(m is not None for m in masks_per_clip)
        assert (breakdown.in_mim.data > 0) == gated
        assert (breakdown.in_aff.data > 0) == gated
        assert t_cls.shape == (2 * len(masks_per_clip), self.config.proj_dim)
        assert t_patch.shape == (2 * len(masks_per_clip), 9, self.config.proj_dim)

    @pytest.mark.parametrize("name", ["head/out_weight", "mask_token"])
    def test_total_gradient_fidelity(self, name):
        """d(total)/d(param) through step_losses vs central differences
        at 1e-4, with two gated clips of different K and one gate-off."""
        base = dict(self.student.named_parameters())
        shape = base[name].shape
        masks_per_clip = [GATED_K2, None, GATED_K3]

        def f(flat):
            tensors = {n: (reshape(flat, shape) if n == name else t)
                       for n, t in base.items()}
            candidate = EncoderParams(self.config, tensors)
            return step_losses(self.crops, masks_per_clip, candidate, self.teacher,
                               self.run)[0].total

        probe = Tensor(base[name].data.reshape(-1).copy(), name=name)
        report = grad_check(f, probe, h=5e-6)
        assert np.abs(report.analytic).max() > 0
        assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error:.3e}"
