"""Acceptance suite: every headline claim checked at its stated tolerance.

One printed verdict line per criterion (run with -s to see them as they
finish). Criteria 1-5 are closed-form oracle comparisons and finish in
seconds to a minute. Criteria 6-9 share one module-scoped experiment that
trains the full desk pipeline for five seeds; expect roughly five minutes
on one core.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from deskspeaker import fileio
from deskspeaker.backend import train_plda
from deskspeaker.config import default_config
from deskspeaker.embednet import (EmbedNetConfig, chunk_loss,
                                  chunk_loss_and_grads, init_embed_net,
                                  kink_margin, load_embed_net, network,
                                  pool_stats, pool_weighted_stats)
from deskspeaker.errors import DegenerateScoreSetError
from deskspeaker.harness import expand_frame_weights, run_pipeline
from deskspeaker.ivector import (TotalVariabilityModel, accumulate_stats,
                                 extract_ivector, train_tvm)
from deskspeaker.metrics import (TrialScoreSet, compute_eer,
                                 compute_min_cprimary,
                                 weight_posterior_correlation)
from deskspeaker.ubm import DiagGmm, train_gmm

SEEDS = (101, 202, 303, 404, 505)


def _verdict(name: str, ok: bool, detail: str):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: uniform-weight reduction equivalences

def test_criterion_1_reduction_equivalences():
    rng = np.random.default_rng(1001)
    worst_pool = 0.0
    for _ in range(30):
        h = rng.standard_normal((int(rng.integers(4, 40)),
                                 int(rng.integers(2, 10))))
        uniform = np.full(h.shape[0], 1.0 / h.shape[0])
        weighted = pool_weighted_stats(h, uniform)
        plain = pool_stats(h)
        worst_pool = max(worst_pool,
                         np.abs(weighted.mean - plain.mean).max(),
                         np.abs(weighted.std - plain.std).max())
    worst_stats = 0.0
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        n_comp = int(rng.integers(1, 4))
        w = rng.random(n_comp) + 0.2
        gmm = DiagGmm(w / w.sum(), rng.standard_normal((n_comp, dim)) * 1.5,
                      rng.random((n_comp, dim)) + 0.4)
        frames = rng.standard_normal((int(rng.integers(3, 30)), dim))
        uniform = np.full(frames.shape[0], 1.0 / frames.shape[0])
        sw = accumulate_stats(frames, gmm, uniform)
        su = accumulate_stats(frames, gmm)
        worst_stats = max(worst_stats, np.abs(sw.n - su.n).max(),
                          np.abs(sw.first - su.first).max())
    ok = worst_pool < 1e-12 and worst_stats < 1e-12
    _verdict("criterion 1, uniform-weight reductions", ok,
             f"pooling max diff {worst_pool:.2e}, "
             f"stats max diff {worst_stats:.2e}, tol 1e-12")


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients vs central finite differences

def _fd_instance(rng, attentive: bool, mode: str) -> float:
    cfg = EmbedNetConfig(input_dim=3, n_speakers=3, hidden_dim=4, pool_dim=5,
                         embed_dim=4, attention_dim=3, attentive=attentive,
                         tdnn_offsets=((-1, 0, 1), (-1, 1), (0,)))
    # redraw anything sitting within the probe step of a ReLU kink or of
    # the sqrt branch point; one-sided differences are meaningless there
    for _ in range(50):
        params = init_embed_net(cfg, rng)
        norms = [layer.norm for layer in params.tdnn]
        if params.attention is not None:
            norms.append(params.attention.norm)
        norms.extend([params.norm1, params.norm2])
        for norm in norms:
            norm.running_mean = rng.standard_normal(norm.running_mean.shape) * 0.2
            norm.running_var = rng.random(norm.running_var.shape) + 0.5
        x = rng.standard_normal((8, 3))
        margin, radicand = kink_margin(params, x, mode)
        if margin > 1e-3 and radicand > 1e-3:
            break
    else:
        pytest.fail("no well-conditioned gradient instance found")
    label = int(rng.integers(0, 3))
    _, grads, _ = chunk_loss_and_grads(params, x, label, mode)
    h = 1e-5
    worst = 0.0
    for name, arr in network._param_items(params):
        # parameters off the active route have zero gradient
        g = np.ravel(grads.get(name, np.zeros(arr.shape)))
        fd = np.zeros(arr.size)
        for j in range(arr.size):
            p0 = arr.flat[j]
            arr.flat[j] = p0 + h
            up = chunk_loss(params, x, label, mode)
            arr.flat[j] = p0 - h
            fd[j] = (up - chunk_loss(params, x, label, mode)) / (2 * h)
            arr.flat[j] = p0
        # the 1e-5 denominator floor keeps the check above the finite-difference
        # roundoff floor (ulp(loss)/2h ~ 1e-10): zero-gradient components must
        # still be confirmed by FD to within 1e-9 absolute
        rel = np.abs(g - fd) / np.maximum(1e-5, np.maximum(np.abs(g), np.abs(fd)))
        worst = max(worst, float(rel.max()))
    return worst


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(1002)
    t0 = time.monotonic()
    worst = 0.0
    n_instances = 0
    for attentive, mode, count in ((True, "internal", 60),
                                   (True, "uniform", 20),
                                   (False, "uniform", 20)):
        for _ in range(count):
            worst = max(worst, _fd_instance(rng, attentive, mode))
            n_instances += 1
    wall = time.monotonic() - t0
    ok = worst < 1e-4 and n_instances >= 100
    _verdict("criterion 2, gradient correctness", ok,
             f"{n_instances} instances, worst rel err {worst:.2e}, "
             f"tol 1e-4, {wall:.0f}s")


# ---------------------------------------------------------------------------
# criterion 3: EM monotonicity at stated tolerances

def test_criterion_3_em_monotonicity():
    rng = np.random.default_rng(1003)
    centers = rng.standard_normal((3, 4)) * 4.0
    frames = np.vstack([c + rng.standard_normal((200, 4)) for c in centers])
    gmm = train_gmm(frames, 4, 20, seed=7)
    gmm_worst = float(np.diff(gmm.em_loglik).min())

    n_comp, dim, rank = 2, 3, 3
    w = rng.random(n_comp) + 0.2
    ubm = DiagGmm(w / w.sum(), rng.standard_normal((n_comp, dim)) * 1.5,
                  rng.random((n_comp, dim)) + 0.4)
    true_t = rng.standard_normal((n_comp * dim, 2))
    stats = []
    for _ in range(40):
        shift = (true_t @ rng.standard_normal(2)).reshape(n_comp, dim)
        utt = np.vstack([ubm.means[c] + shift[c]
                         + rng.standard_normal((15, dim))
                         * np.sqrt(ubm.variances[c])
                         for c in range(n_comp)])
        stats.append(accumulate_stats(utt, ubm))
    tvm = train_tvm(stats, ubm, rank, 10, seed=8)
    tvm_worst = float(np.diff(tvm.em_objective).min())

    n_spk, per_spk, vdim = 30, 4, 8
    v = rng.standard_normal((vdim, 3))
    vecs, labels = [], []
    for s in range(n_spk):
        y = rng.standard_normal(3)
        for _ in range(per_spk):
            vecs.append(v @ y + 0.5 * rng.standard_normal(vdim))
            labels.append(s)
    plda = train_plda(np.array(vecs), labels, 3, 10, seed=9)
    plda_worst = float(np.diff(plda.em_loglik).min())

    ok = gmm_worst >= -1e-9 and tvm_worst >= -1e-6 and plda_worst >= -1e-6
    _verdict("criterion 3, EM monotonicity", ok,
             f"worst iteration deltas: gmm {gmm_worst:.2e} (tol -1e-9), "
             f"tvm {tvm_worst:.2e}, plda {plda_worst:.2e} (tol -1e-6)")


# ---------------------------------------------------------------------------
# criterion 4: i-vector extraction vs dense posterior-mean oracle

def _dense_ivector_oracle(stats, tvm) -> np.ndarray:
    cd, rank = tvm.t_matrix.shape
    dim = cd // stats.n.size
    big_n = np.diag(np.repeat(stats.n, dim))
    inv_sigma = np.diag(1.0 / tvm.sigma)
    precision = np.eye(rank) + tvm.t_matrix.T @ inv_sigma @ big_n @ tvm.t_matrix
    rhs = tvm.t_matrix.T @ inv_sigma @ stats.first.ravel()
    return np.linalg.solve(precision, rhs)


def test_criterion_4_ivector_oracle_equivalence():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        while True:
            n_comp = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 9))
            if n_comp * dim <= 8:
                break
        rank = int(rng.integers(1, 5))
        w = rng.random(n_comp) + 0.2
        gmm = DiagGmm(w / w.sum(), rng.standard_normal((n_comp, dim)) * 1.5,
                      rng.random((n_comp, dim)) + 0.4)
        tvm = TotalVariabilityModel(gmm.means.ravel().copy(),
                                    rng.standard_normal((n_comp * dim, rank)),
                                    gmm.variances.ravel().copy())
        frames = rng.standard_normal((int(rng.integers(5, 25)), dim)) * 1.5
        stats = accumulate_stats(frames, gmm)
        diff = np.abs(extract_ivector(stats, tvm)
                      - _dense_ivector_oracle(stats, tvm)).max()
        worst = max(worst, float(diff))
    ok = worst < 1e-8
    _verdict("criterion 4, i-vector oracle equivalence", ok,
             f"100 models (C*D <= 8, R <= 4), max diff {worst:.2e}, tol 1e-8")


# ---------------------------------------------------------------------------
# criterion 5: EER / minCprimary vs exhaustive threshold oracles

def _rate_curves(trials, points):
    """FNR/FPR at every candidate threshold; accept iff score >= threshold."""
    t = trials.scores[trials.targets]
    n = trials.scores[~trials.targets]
    fnr = (t[None, :] < points[:, None]).sum(axis=1) / t.size
    fpr = (n[None, :] >= points[:, None]).sum(axis=1) / n.size
    return fnr, fpr


def _eer_exhaustive(trials) -> float:
    points = np.concatenate([np.unique(trials.scores),
                             [trials.scores.max() + 1.0]])
    fnr, fpr = _rate_curves(trials, points)
    diff = fnr - fpr
    k = int(np.argmax(diff >= 0))
    if k == 0 or diff[k] == 0.0:
        return float(fnr[k])
    m1, m2, f1, f2 = fnr[k - 1], fnr[k], fpr[k - 1], fpr[k]
    s = (f1 - m1) / ((m2 - m1) - (f2 - f1))
    return float(m1 + s * (m2 - m1))


def _min_cprimary_exhaustive(trials, p_targets) -> float:
    points = np.concatenate([np.unique(trials.scores),
                             [trials.scores.max() + 1.0]])
    fnr, fpr = _rate_curves(trials, points)
    total = 0.0
    for p in p_targets:
        total += ((p * fnr + (1.0 - p) * fpr) / min(p, 1.0 - p)).min()
    return total / len(p_targets)


def test_criterion_5_metric_oracle_equivalence():
    rng = np.random.default_rng(1005)
    p_targets = (0.01, 0.005)
    worst_eer = worst_minc = 0.0
    for _ in range(100):
        n_t = int(rng.integers(5, 400))
        n_n = int(rng.integers(20, 1600))
        sep = rng.random() * 3.0
        scores = np.concatenate([rng.standard_normal(n_t) + sep,
                                 rng.standard_normal(n_n)])
        if rng.random() < 0.3:  # tied scores stress the sweep
            scores = np.round(scores, 1)
        targets = np.concatenate([np.ones(n_t, bool), np.zeros(n_n, bool)])
        trials = TrialScoreSet(scores, targets)
        worst_eer = max(worst_eer,
                        abs(compute_eer(trials) - _eer_exhaustive(trials)))
        worst_minc = max(worst_minc,
                         abs(compute_min_cprimary(trials, p_targets)
                             - _min_cprimary_exhaustive(trials, p_targets)))
    ok = worst_eer < 1e-9 and worst_minc < 1e-9
    _verdict("criterion 5, metric oracle equivalence", ok,
             f"100 trial sets (<= 2000 trials), max diff eer {worst_eer:.2e},"
             f" min_cprimary {worst_minc:.2e}, tol 1e-9")


# ---------------------------------------------------------------------------
# criteria 6-9 share one five-seed desk experiment

@pytest.fixture(scope="module")
def desk_experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    t0 = time.monotonic()
    runs = []
    for seed in SEEDS:
        cfg = default_config(seed=seed, out=str(base / f"seed{seed}"))
        report = run_pipeline(cfg)
        runs.append((Path(cfg.out), report))
    return runs, time.monotonic() - t0


def _mean_eer(runs, system: str, vad: bool) -> float:
    return 100.0 * float(np.mean([rep.get(system, vad).eer
                                  for _, rep in runs]))


def _mean_minc(runs, system: str, vad: bool) -> float:
    return float(np.mean([rep.get(system, vad).min_cprimary
                          for _, rep in runs]))


def _per_seed_eers(runs) -> str:
    """No-VAD EER% of S1-S4 for every seed, for diagnosing a verdict."""
    return "; ".join(
        f"seed {seed}: " + " ".join(
            f"{s} {100.0 * rep.get(s, False).eer:.2f}"
            for s in ("S1", "S2", "S3", "S4"))
        for seed, (_, rep) in zip(SEEDS, runs))


def test_criterion_6_attention_benefit(desk_experiment):
    runs, wall = desk_experiment
    s1 = _mean_eer(runs, "S1", False)
    s2 = _mean_eer(runs, "S2", False)
    s4 = _mean_eer(runs, "S4", False)
    ok = (s2 <= s1 + 0.5) and (s4 > s2)
    _verdict("criterion 6, attentive pooling benefit", ok,
             f"mean EER% S1 {s1:.2f}, S2 {s2:.2f} (need <= S1+0.5), "
             f"S4 {s4:.2f} (need > S2); 5 seeds in {wall / 60:.1f} min; "
             f"{_per_seed_eers(runs)}")


def test_criterion_7_weighted_ivector_benefit(desk_experiment):
    runs, _ = desk_experiment
    s5 = _mean_eer(runs, "S5", False)
    s6 = _mean_eer(runs, "S6", False)
    s2_minc = (_mean_minc(runs, "S2", False), _mean_minc(runs, "S2", True))
    s6_minc = (_mean_minc(runs, "S6", False), _mean_minc(runs, "S6", True))
    ok = (s6 <= s5) and (s2_minc[1] <= s2_minc[0]) \
        and (s6_minc[1] <= s6_minc[0])
    _verdict("criterion 7, attention-weighted i-vector benefit", ok,
             f"mean EER% S5 {s5:.2f}, S6 {s6:.2f} (need <=); soft-VAD "
             f"min_cprimary S2 {s2_minc[0]:.4f}->{s2_minc[1]:.4f}, "
             f"S6 {s6_minc[0]:.4f}->{s6_minc[1]:.4f} (need not increase)")


def test_criterion_8_decoupling_transfer(desk_experiment):
    runs, _ = desk_experiment
    s2 = _mean_eer(runs, "S2", False)
    s3 = _mean_eer(runs, "S3", False)
    ok = abs(s3 - s2) <= 1.0
    _verdict("criterion 8, decoupled-weight transfer", ok,
             f"mean EER% S2 {s2:.2f}, S3 {s3:.2f}, |diff| "
             f"{abs(s3 - s2):.2f}, tol 1.0; {_per_seed_eers(runs)}")


def test_criterion_9_attention_noise_alignment(desk_experiment):
    runs, _ = desk_experiment
    aligned = 0
    considered = 0
    corrs = []
    for out, _ in runs:
        net = load_embed_net(out / "embed" / "att.emb1")
        with open(out / "corpus" / "manifest.tsv") as f:
            rows = [line.split() for line in f]
        for utt, _, part in rows:
            if part != "test":
                continue
            voice = fileio.read_posteriors(
                out / "corpus" / "voice" / f"{utt}.vps") > 0.5
            if voice.all() or not voice.any():
                continue  # nothing to compare on this utterance
            w = fileio.read_frame_weights(out / "weights" / f"{utt}.fwt")
            full = expand_frame_weights(w, voice.size, net.left_context,
                                        net.right_context)
            considered += 1
            if full[~voice].mean() < full[voice].mean():
                aligned += 1
            try:
                corrs.append(weight_posterior_correlation(
                    full, voice.astype(np.float64)))
            except DegenerateScoreSetError:
                pass
    fraction = aligned / considered
    corr = float(np.mean(corrs))
    ok = fraction >= 0.90
    _verdict("criterion 9, attention avoids noise frames", ok,
             f"noise mass below voice mass on {aligned}/{considered} test "
             f"utterances ({100 * fraction:.1f}%, need >= 90%); mean "
             f"weight/posterior correlation {corr:.3f} (reported only)")
