"""Acceptance gate: nine verifiable claims about the whole pipeline,
one test per claim, each printing a single pass/fail line.

The expensive entries are criterion 5 (the exhaustive propagation
reference is deliberately slow) and criterion 7 (six short training
runs plus nine evaluations); everything else is sub-second. Run with
plain pytest; the verdict lines bypass output capture."""

import time
from pathlib import Path

import numpy as np
import pytest

from reference_propagation import propagate_frame_reference
from test_metrics import oracle_f
from vidcorr.encoder import EncoderParams, ModelConfig
from vidcorr.harness import (
    build_run_config,
    evaluate,
    gen_synthetic_dataset,
    params_from_checkpoint,
    parse_config_text,
    train,
)
from vidcorr.harness.fidelity import loss_fidelity_report
from vidcorr.metrics import (
    TrackScores,
    aggregate,
    contour_accuracy_F,
    region_similarity_J,
)
from vidcorr.numerics import Rng, Tensor, l2_normalize_rows
from vidcorr.objectives import (
    TeacherState,
    TemperatureConfig,
    build_affinity,
    center_update,
    ema_update,
    loss_in_aff,
    loss_in_mim,
    loss_out_g2g,
    loss_out_l2g,
    teacher_distribution,
)
from vidcorr.optimizer import OptimizerConfig, Schedule, base_lr, lr_at, wd_at
from vidcorr.propagation import (
    FeatureMap,
    LabelMap,
    PropagationConfig,
    propagate_frame,
)
from vidcorr.views import make_frame_pairs, sample_clip_masks


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


MICRO_MODEL = dict(patch_size=2, embed_dim=8, depth=1, heads=2, mlp_ratio=2,
                   proj_layers=1, proj_dim=16, proj_hidden=16,
                   pe_base_resolution=2, inference_layer=1)


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_micro")
    gen_synthetic_dataset(root, seed=5, train_videos=4, eval_videos=2,
                          canvas=16, frames=6)
    return root


def test_criterion_1_gradient_fidelity(capsys):
    """Analytic gradients of the four losses and their total against
    central differences (h = 1e-3, 64-bit) on the micro setup: two
    frames, two locals per frame, a 2x2 token grid, 16-way
    distributions."""
    t0 = time.perf_counter()
    rows = loss_fidelity_report(seed=0, h=1e-3)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in rows)
    ok = worst < 1e-4 and elapsed < 60 and len(rows) == 5
    detail = ", ".join(f"{name} {err:.1e}" for name, err in rows)
    verdict(capsys, 1, "gradient fidelity", ok,
            f"{detail}; {elapsed:.1f}s of 60")
    assert len(rows) == 5
    for name, err in rows:
        assert err < 1e-4, f"{name}: {err:.3e}"
    assert elapsed < 60


def test_criterion_2_loss_identities(capsys):
    """With teacher distribution == student distribution == p every
    cross-entropy term is H(p); recovering the term totals from the
    loss values pins the counts: 2 per pair for the global loss, 4M per
    pair for the locals loss, one per masked cell, one per affinity
    row."""
    k, m_locals = 16, 3
    g = np.random.default_rng(7)
    p = g.dirichlet(np.ones(k)) * 0.7 + 0.3 / k  # clear of the log clamp
    hp = float(-(p * np.log(p)).sum())

    worst = 0.0
    counts_ok = True
    for clip_len in (2, 4, 6):
        pairs = make_frame_pairs(clip_len)
        counts_ok &= len(pairs) == clip_len // 2
        counts_ok &= sorted(i for ab in pairs for i in ab) == list(range(clip_len))

        td = Tensor(np.tile(p, (clip_len, 1)))
        g2g = float(loss_out_g2g(td, Tensor(np.tile(p, (clip_len, 1))), pairs).data)
        worst = max(worst, abs(g2g - 2 * hp))
        counts_ok &= round(g2g * len(pairs) / hp) == 2 * len(pairs)

        locals_ = Tensor(np.tile(p, (clip_len, m_locals, 1)))
        l2g = float(loss_out_l2g(td, locals_, pairs).data)
        worst = max(worst, abs(l2g - 4 * m_locals * hp))
        counts_ok &= round(l2g * len(pairs) / hp) == 4 * m_locals * len(pairs)

        tokens = 4
        # frame i masks its first 1 + i % 2 tokens
        masks = np.arange(tokens) < 1 + np.arange(clip_len)[:, None] % 2
        masked_total = int(masks.sum())
        grid = np.tile(p, (clip_len, tokens, 1))
        frame, token = np.nonzero(masks)
        rows = grid[frame, token]  # the masked rows, as step_losses gathers them
        mim = float(loss_in_mim(Tensor(rows), Tensor(rows.copy()), clip_len).data)
        worst = max(worst, abs(mim - masked_total * hp / clip_len))

        affs, expected = [], 0.0
        for t in range(clip_len - 1):
            rows = g.normal(size=(4, 8))
            q = l2_normalize_rows(Tensor(rows))
            aff = build_affinity(q, q, 0.07)
            affs.append(aff)
            v = aff.data
            expected += float(-(v * np.log(v)).sum())
        aff_loss = float(loss_in_aff(affs, affs).data)
        worst = max(worst, abs(aff_loss - expected / (clip_len - 1)))

    ok = worst < 1e-6 and counts_ok
    verdict(capsys, 2, "loss identities", ok,
            f"CE == H(p) and term counts hold for L in (2,4,6); "
            f"max deviation {worst:.1e}")
    assert worst < 1e-6
    assert counts_ok


def test_criterion_3_teacher_machinery(capsys):
    """EMA blend at momentum 0.996 to 1e-7; with center momentum 0 and
    dyadic inputs (integer logits, power-of-two batch) a constant logit
    shift is absorbed bitwise."""
    config = ModelConfig(**MICRO_MODEL)
    student_a = EncoderParams.init(config, Rng(1).substream("init"))
    student_b = EncoderParams.init(config, Rng(2).substream("init"))
    snap = {n: t.data.copy() for n, t in student_a.named_parameters()}
    state = TeacherState.from_student(student_a, 0.996, 0.9)
    ema_update(state, student_b)
    ema_err = max(
        float(np.abs(t.data - (0.996 * snap[n] + 0.004
                               * dict(student_b.named_parameters())[n].data)).max())
        for n, t in state.params.named_parameters())

    k, batch = 16, 8
    g = np.random.default_rng(3)
    logits = g.integers(-8, 9, size=(batch, k)).astype(np.float64)
    shift = g.integers(-4, 5, size=k).astype(np.float64)
    temps = TemperatureConfig()
    plain = TeacherState.from_student(student_a, 0.996, 0.0)
    shifted = TeacherState.from_student(student_a, 0.996, 0.0)
    center_update(plain, Tensor(logits), Tensor(logits))
    center_update(shifted, Tensor(logits + shift), Tensor(logits + shift))
    d_plain = teacher_distribution(Tensor(logits), plain, temps, "cls").data
    d_shift = teacher_distribution(Tensor(logits + shift), shifted, temps, "cls").data
    bitwise = d_plain.tobytes() == d_shift.tobytes()

    ok = ema_err < 1e-7 and bitwise
    verdict(capsys, 3, "teacher machinery", ok,
            f"EMA max error {ema_err:.1e}; centered distributions "
            f"{'bitwise equal' if bitwise else 'DIFFER'} under constant shift")
    assert ema_err < 1e-7
    assert bitwise


def test_criterion_4_affinity_contracts(capsys):
    """1000 draws: rows sum to 1 within 1e-6, the K x K shape carries
    K = round(P * r) from the mask draw, and row argmax survives
    positive per-row rescaling of the raw features."""
    g = np.random.default_rng(11)
    rng = Rng(11)
    worst_row = 0.0
    flips = 0
    structure_ok = True
    for draw in range(1000):
        tokens = 16 if draw % 2 == 0 else 64
        draw_rng = rng.substream(f"draw{draw}")
        pattern = sample_clip_masks(tokens, 1, draw_rng, 1.0, (0.1, 0.5))[0]
        # the ratio r, replayed from the substream the mask draw takes it from
        ratio = draw_rng.substream("ratio").uniform(0.1, 0.5)
        k = int(pattern.sum())
        structure_ok &= 0.1 < ratio < 0.5
        structure_ok &= k == round(tokens * ratio)

        raw_a = g.normal(size=(k, 8))
        raw_b = g.normal(size=(k, 8))
        temp = (0.04, 0.07, 0.1)[draw % 3]
        aff = build_affinity(l2_normalize_rows(Tensor(raw_a)),
                             l2_normalize_rows(Tensor(raw_b)), temp)
        structure_ok &= aff.shape == (k, k)
        worst_row = max(worst_row, float(np.abs(aff.data.sum(axis=-1) - 1.0).max()))

        scale_a = g.uniform(0.25, 4.0, size=(k, 1))
        scale_b = g.uniform(0.25, 4.0, size=(k, 1))
        rescaled = build_affinity(l2_normalize_rows(Tensor(raw_a * scale_a)),
                                  l2_normalize_rows(Tensor(raw_b * scale_b)), temp)
        flips += int((aff.data.argmax(axis=-1) != rescaled.data.argmax(axis=-1)).sum())

    ok = worst_row < 1e-6 and flips == 0 and structure_ok
    verdict(capsys, 4, "affinity contracts", ok,
            f"1000 draws: max |row sum - 1| {worst_row:.1e}, "
            f"{flips} argmax flips under rescaling, shapes K = round(P*r)")
    assert worst_row < 1e-6
    assert flips == 0
    assert structure_ok


def _propagation_instance(seed, frames=10, h=16, w=16, d=8, classes=4):
    g = np.random.default_rng(seed)

    def unit_grid():
        z = g.normal(size=(h, w, d))
        return z / np.sqrt((z * z).sum(axis=-1, keepdims=True))

    target = FeatureMap(unit_grid())
    context = [(FeatureMap(unit_grid()),
                LabelMap(np.eye(classes)[g.integers(0, classes, size=(h, w))]))
               for _ in range(frames)]
    return target, context


def test_criterion_5_propagation_oracle(capsys):
    """The production kernel against the exhaustive reference, bitwise,
    on 104 seeded 16x16 instances with 10-frame contexts and top-5
    ranking; radius 2 and radius 40 both appear, and any radius at
    least the grid side matches the unrestricted result."""
    instances = bitwise = 0
    by_radius = {2: 0, 40: 0}
    for seed in range(104):
        radius = 40 if seed % 4 == 3 else 2
        target, context = _propagation_instance(seed)
        feats = np.stack([f.grid for f, _ in context])
        labels = np.stack([l.grid for _, l in context])
        ref = propagate_frame_reference(target.grid, feats, labels,
                                        radius, 5, 0.07)
        got = propagate_frame(target, context,
                              PropagationConfig(top_k=5, context_size=10,
                                                radius=radius))
        instances += 1
        by_radius[radius] += 1
        bitwise += got.grid.tobytes() == ref.tobytes()

    window_ok = True
    for seed in (0, 1):
        target, context = _propagation_instance(seed, frames=3)
        outs = [propagate_frame(target, context,
                                PropagationConfig(top_k=5, context_size=10,
                                                  radius=r)).grid.tobytes()
                for r in (16, 1000)]
        window_ok &= outs[0] == outs[1]

    ok = bitwise == instances == 104 and window_ok
    verdict(capsys, 5, "propagation oracle", ok,
            f"{bitwise}/{instances} instances bitwise equal "
            f"({by_radius[2]} at radius 2, {by_radius[40]} at radius 40); "
            f"radius >= grid {'matches' if window_ok else 'DIFFERS FROM'} "
            f"unrestricted")
    assert bitwise == instances == 104
    assert window_ok


def test_criterion_6_metric_oracles(capsys):
    """Hand-counted region and contour cases plus a hand-filled
    aggregation table."""
    def square(h, w, y0, y1, x0, x1):
        m = np.zeros((h, w), dtype=np.int64)
        m[y0:y1 + 1, x0:x1 + 1] = 1
        return m

    truth = square(8, 8, 2, 5, 2, 5)
    shifted = square(8, 8, 2, 5, 3, 6)  # overlap 12, union 20
    j_val = region_similarity_J(shifted, truth, 1)

    blob = square(8, 8, 1, 4, 3, 6)
    f_same = contour_accuracy_F(blob, blob.copy(), 1)

    ring_pred = square(8, 8, 1, 6, 1, 6)  # one-pixel ring around truth
    f_ring = contour_accuracy_F(ring_pred, truth, 1, tolerance=1)
    ring_err = abs(f_ring - oracle_f(ring_pred, truth, 1, 1))

    tracks = [TrackScores("seq", 1, [0.8, 0.6, 1.0], [0.9, 0.7, 0.8]),
              TrackScores("seq", 2, [0.2, 0.4, 0.3], [0.6, 0.55, 0.65])]
    scores = aggregate(tracks)
    # per-track means (0.8, 0.3) and (0.8, 0.6); recall counts > 0.5
    agg_ok = (scores.j_mean == pytest.approx(0.55, abs=1e-12)
              and scores.f_mean == pytest.approx(0.7, abs=1e-12)
              and scores.j_recall == 0.5 and scores.f_recall == 1.0)

    ok = j_val == 0.6 and f_same == 1.0 and ring_err < 1e-9 and agg_ok
    verdict(capsys, 6, "metric oracles", ok,
            f"shifted-square J = {j_val}, identical-mask F = {f_same}, "
            f"ring F off oracle by {ring_err:.1e}, hand aggregates hold")
    assert j_val == 0.6
    assert f_same == 1.0
    assert ring_err < 1e-9
    assert agg_ok


# the desk config users train with, so that criterion 7 checks it
DESK_CONFIG = parse_config_text(
    (Path(__file__).resolve().parents[1] / "examples" / "desk.cfg").read_text())


def test_criterion_7_training_trend(capsys, tmp_path):
    """Desk-scale end-to-end: 8 training videos at 32x32, 200 steps (50
    epochs x 4 steps), 3 seeds. (a) the trained student beats the
    untrained one by at least 0.05 J_m on the 4 held-out clips; (b) the
    full four-term objective is at least as good as training on the
    global class-token pairs alone."""
    t0 = time.perf_counter()
    data = tmp_path / "data"
    gen_synthetic_dataset(data, seed=0, train_videos=8, eval_videos=4,
                          canvas=32, frames=12)
    prop = PropagationConfig()

    def j_mean(params, model):
        scores, _ = evaluate(params, model, prop, data / "val")
        return scores.j_mean

    results = {"full": [], "g2g": [], "untrained": []}
    for seed in (0, 1, 2):
        for mode in ("full", "g2g"):
            out = tmp_path / f"run_{mode}_{seed}"
            run = build_run_config(dict(DESK_CONFIG, seed=str(seed),
                                        loss_mode=mode, data=str(data),
                                        out=str(out)))
            assert run.epochs * 4 <= 200
            train(run)
            params, loaded = params_from_checkpoint(out / "checkpoint_049.ckpt")
            results[mode].append(j_mean(params, loaded.model))
        run = build_run_config(dict(DESK_CONFIG, seed=str(seed),
                                    data=str(data), out="unused"))
        fresh = EncoderParams.init(run.model, Rng(seed).substream("init"),
                                   requires_grad=False)
        results["untrained"].append(j_mean(fresh, run.model))

    mean = {k: float(np.mean(v)) for k, v in results.items()}
    gain = mean["full"] - mean["untrained"]
    margin = mean["full"] - mean["g2g"]
    elapsed = time.perf_counter() - t0
    ok = gain >= 0.05 and margin >= 0.0 and elapsed < 600
    per_seed = {k: "/".join(f"{v:.3f}" for v in vals)
                for k, vals in results.items()}
    verdict(capsys, 7, "training trend", ok,
            f"J_m full {mean['full']:.4f} ({per_seed['full']}), "
            f"untrained {mean['untrained']:.4f} ({per_seed['untrained']}), "
            f"g2g-only {mean['g2g']:.4f} ({per_seed['g2g']}); "
            f"gain {gain:+.4f} (need >= +0.05), "
            f"full-vs-g2g {margin:+.4f} (need >= 0); {elapsed:.0f}s of 600")
    assert gain >= 0.05
    assert margin >= 0.0
    assert elapsed < 600


def test_criterion_8_determinism_and_persistence(capsys, micro_dataset,
                                                 tmp_path):
    """Same config and seed twice gives byte-identical checkpoints, logs
    and score reports; an interrupted run resumed from its checkpoint
    lands on the byte-identical final checkpoint."""
    out = tmp_path / "run"
    pairs = {
        "seed": 0, "epochs": 2, "batch": 2,
        "data": str(micro_dataset), "out": str(out),
        "ema_momentum": 0.9, "gate_probability": 1.0,
        "opt.warmup_epochs": 1, "opt.lr_scale_constant": 0.1,
        "view.clip_len": 2, "view.frameskip": 1, "view.global_size": 16,
        "view.local_size": 8, "view.locals_per_frame": 1,
        "view.local_scale": (0.3, 0.8),
        "model.patch_size": 4, "model.embed_dim": 8, "model.depth": 1,
        "model.heads": 2, "model.mlp_ratio": 2, "model.proj_layers": 1,
        "model.proj_dim": 8, "model.proj_hidden": 16,
        "model.pe_base_resolution": 2, "model.inference_layer": 1,
    }
    prop = PropagationConfig(top_k=3, context_size=2, radius=4)

    def wipe():
        if out.exists():
            for p in out.iterdir():
                p.unlink()

    def run_once():
        train(build_run_config(pairs))
        ckpt = out / "checkpoint_001.ckpt"
        params, run = params_from_checkpoint(ckpt)
        _, text = evaluate(params, run.model, prop, micro_dataset / "val")
        return (ckpt.read_bytes(), (out / "train.log").read_bytes(),
                text.encode())

    first = run_once()
    wipe()
    second = run_once()
    rerun_ok = first == second

    wipe()

    class Interrupt(Exception):
        pass

    def pull_the_plug(step, breakdown):
        if step == 2:
            raise Interrupt

    with pytest.raises(Interrupt):
        train(build_run_config(pairs), progress=pull_the_plug)
    resumed = train(build_run_config(pairs),
                    resume=out / "checkpoint_000.ckpt")
    resume_ok = (resumed.steps == 4
                 and (out / "checkpoint_001.ckpt").read_bytes() == first[0])

    ok = rerun_ok and resume_ok
    verdict(capsys, 8, "determinism and persistence", ok,
            f"rerun checkpoint/log/report {'identical' if rerun_ok else 'DIFFER'}; "
            f"resumed final checkpoint "
            f"{'bitwise equal' if resume_ok else 'DIFFERS'}")
    assert rerun_ok
    assert resume_ok


def test_criterion_9_schedule_values(capsys):
    """Spot values of the linear-scaling rule, exact weight-decay
    endpoints, and warmup/cosine continuity."""
    cfg_a = Schedule(OptimizerConfig(warmup_epochs=5, lr_scale_constant=0.003),
                     batch_size=16, clip_len=4, steps_per_epoch=10, total_epochs=25)
    cfg_b = Schedule(OptimizerConfig(warmup_epochs=5, lr_scale_constant=0.0003),
                     batch_size=32, clip_len=4, steps_per_epoch=10, total_epochs=25)
    lr_ok = base_lr(cfg_a) == 1.875e-4 and base_lr(cfg_b) == 3.75e-5
    wd_ok = wd_at(0, cfg_a) == 0.04 and wd_at(cfg_a.total_steps, cfg_a) == 0.4
    warm = cfg_a.warmup_steps
    ramp_end = base_lr(cfg_a) * warm / warm
    jump = abs(lr_at(warm, cfg_a) - ramp_end)
    cont_ok = jump < 1e-12

    ok = lr_ok and wd_ok and cont_ok
    verdict(capsys, 9, "schedule values", ok,
            f"base_lr {base_lr(cfg_a):.6e} / {base_lr(cfg_b):.6e}, "
            f"wd endpoints {wd_at(0, cfg_a)} / {wd_at(cfg_a.total_steps, cfg_a)}, "
            f"warmup-boundary jump {jump:.1e}")
    assert lr_ok
    assert wd_ok
    assert cont_ok
