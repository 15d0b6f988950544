"""Pipeline harness tests: weight plumbing, stage bookkeeping, CLI.

The end-to-end tests run a deliberately tiny corpus (6 speakers, 60-frame
utterances, 2 training epochs) so the whole pipeline finishes in seconds.
"""

import argparse
import copy
import dataclasses
import functools
import importlib
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from deskspeaker import fileio, harness, ivector
from deskspeaker.cli import build_parser, main
from deskspeaker.config import (EmbedStageConfig, config_to_dict,
                                default_config, load_config, save_config)
from deskspeaker.embednet import (combine_weights, export_attention_weights,
                                  extract_embedding, load_embed_net, network)
from deskspeaker.errors import (DegenerateWeightsError, FormatError,
                                StageDependencyError)
from deskspeaker.harness import (STAGES, SYSTEMS, Report, SystemResult,
                                 expand_frame_weights, load_report,
                                 run_pipeline, variant_name)
from deskspeaker.ivector import (TotalVariabilityModel, accumulate_stats,
                                 extract_ivector)
from deskspeaker.synth import SynthCorpusConfig
from deskspeaker.ubm import DiagGmm


# ---------------------------------------------------------------------------
# frame-weight plumbing

def test_expand_frame_weights_frozen_example():
    # 4 frames, one frame of context each side: the two valid weights cover
    # frames 1..2 and are replicated onto the flanks before renormalizing.
    w = np.array([0.2, 0.8])
    full = expand_frame_weights(w, 4, 1, 1)
    assert np.allclose(full, [0.1, 0.1, 0.4, 0.4], atol=1e-15)
    assert full.sum() == pytest.approx(1.0, abs=1e-15)


def test_expand_frame_weights_no_context_is_normalization():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.1, 2.0, size=9)
    full = expand_frame_weights(w, 9, 0, 0)
    assert np.allclose(full, w / w.sum(), atol=1e-15)


def test_expand_frame_weights_sweep_alignment():
    rng = np.random.default_rng(21)
    for _ in range(20):
        left = int(rng.integers(0, 4))
        right = int(rng.integers(0, 4))
        n_valid = int(rng.integers(2, 8))
        n = n_valid + left + right
        w = rng.uniform(0.05, 1.0, size=n_valid)
        full = expand_frame_weights(w, n, left, right)
        body = full[left:n - right if right else n]
        assert np.allclose(body / body.sum(), w / w.sum(), atol=1e-12)
        assert np.all(full[:left] == full[left])
        if right:
            assert np.all(full[n - right:] == full[n - right - 1])


def test_expand_frame_weights_rejects_bad_input():
    with pytest.raises(DegenerateWeightsError):
        expand_frame_weights(np.array([0.5, 0.5]), 5, 1, 1)  # wrong length
    with pytest.raises(DegenerateWeightsError):
        expand_frame_weights(np.array([0.5]), 3, 2, 2)  # no valid frames
    with pytest.raises(DegenerateWeightsError):
        expand_frame_weights(np.zeros(3), 5, 1, 1)  # no mass


def test_variant_name():
    assert variant_name("S2", True) == "S2-vad"
    assert variant_name("S5", False) == "S5-novad"


# ---------------------------------------------------------------------------
# end-to-end pipeline on a tiny corpus

def _tiny_config(out_dir):
    cfg = default_config(seed=23, out=str(out_dir))
    cfg.synth = SynthCorpusConfig(
        n_speakers=6, utts_per_speaker=4, frames_per_utt=60, feature_dim=6,
        noise_frame_fraction=0.3, enroll_utts_per_speaker=2)
    cfg.embednet.hidden_dim = 8
    cfg.embednet.pool_dim = 8
    cfg.embednet.embed_dim = 6
    cfg.embednet.attention_dim = 4
    cfg.embednet.epochs = 2
    cfg.embednet.chunk_len = 30
    cfg.embednet.batch_size = 4
    cfg.ubm.n_components = 4
    cfg.ubm.n_iters = 3
    cfg.tvm.rank = 3
    cfg.tvm.n_iters = 2
    cfg.backend.plda_dim_embed = 4
    cfg.backend.plda_dim_ivector = 3
    cfg.backend.n_iters = 3
    return cfg


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_pipeline")
    cfg = _tiny_config(out)
    report = run_pipeline(cfg)
    return cfg, out, report


def test_pipeline_report_covers_every_variant(tiny_run):
    cfg, _, report = tiny_run
    assert isinstance(report, Report)
    got = {(r.system, r.soft_vad) for r in report.results}
    want = {(s, v) for s in cfg.systems for v in (False, True)}
    assert got == want
    for r in report.results:
        assert 0.0 <= r.eer <= 1.0
        assert 0.0 <= r.min_cprimary <= 1.0


def test_pipeline_writes_expected_artifacts(tiny_run):
    cfg, out, _ = tiny_run
    assert (out / "corpus" / "manifest.tsv").exists()
    assert (out / "embed" / "att.emb1").exists()
    assert (out / "embed" / "nonatt.emb1").exists()
    assert (out / "ubm" / "ubm.gmm1").exists()
    assert (out / "tvm" / "tvm.tvm1").exists()
    assert sorted(p.name for p in (out / "weights").iterdir()) \
        == sorted(f"{u}.fwt" for u in _utt_ids(out))
    for variant in (variant_name(s, v) for s in cfg.systems
                    for v in (False, True)):
        for part in ("train", "enroll", "test"):
            assert (out / "vectors" / variant / f"{part}.afs").exists()
        assert (out / "scores" / f"{variant}.txt").exists()
    assert (out / "report" / "report.txt").exists()


def test_voice_flags_are_stored_once(tiny_run):
    # the corpus keeps the ground-truth voice flags; the features stage
    # writes no copy of them
    _, out, _ = tiny_run
    assert sorted(p.name for p in (out / "corpus" / "voice").iterdir()) \
        == sorted(f"{u}.vps" for u in _utt_ids(out))
    assert not (out / "features" / "voice").exists()


def _clone(tiny_run, tmp_path):
    """A copy of the tiny run directory and a config pointing at it."""
    cfg, out, _ = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    cfg2 = copy.deepcopy(cfg)
    cfg2.out = str(clone)
    return cfg2, clone


def _utt_ids(out):
    with open(out / "corpus" / "manifest.tsv") as f:
        return [line.split()[0] for line in f]


def _per_variant_vector(system, vad, frames, q, exported, nets, gmm, tvm):
    """One variant's vector through the public per-utterance functions, each
    running its own TDNN or posterior pass."""
    spec = SYSTEMS[system]
    n = frames.shape[0]
    if spec.kind == "embed":
        net = nets[spec.net]
        left, right = net.left_context, net.right_context
        if not vad and spec.weights != "external":
            return extract_embedding(frames, net, spec.weights)
        if spec.weights == "uniform":
            base = np.full(n - left - right, 1.0 / (n - left - right))
        elif spec.weights == "internal":
            base = export_attention_weights(frames, net)
        else:
            base = exported
        w = combine_weights(base, q[left:n - right]) if vad else base
        return extract_embedding(frames, net, w)
    if spec.weights == "external":
        att = nets["att"]
        w = expand_frame_weights(exported, n, att.left_context,
                                 att.right_context)
        w = combine_weights(w, q) if vad else w
    else:
        w = combine_weights(np.full(n, 1.0 / n), q) if vad else None
    return extract_ivector(accumulate_stats(frames, gmm, w), tvm)


def test_extract_equals_per_variant_recomputation(tiny_run):
    cfg, out, _ = tiny_run
    nets = {kind: load_embed_net(out / "embed" / f"{kind}.emb1")
            for kind in ("att", "nonatt")}
    gmm = DiagGmm.load(out / "ubm" / "ubm.gmm1")
    tvm = TotalVariabilityModel.load(out / "tvm" / "tvm.tvm1")
    with open(out / "features" / "manifest.tsv") as f:
        rows = [line.split() for line in f]
    checked = 0
    for part in ("train", "enroll", "test"):
        for utt in [u for u, _, p in rows if p == part][:2]:
            frames = fileio.read_features(
                out / "features" / "feats" / f"{utt}.afs")
            q = fileio.read_posteriors(out / "features" / "q" / f"{utt}.vps")
            exported = fileio.read_frame_weights(out / "weights" / f"{utt}.fwt")
            for system in cfg.systems:
                for vad in (False, True):
                    ids, stored = fileio.read_vector_set(
                        out / "vectors" / variant_name(system, vad) / part)
                    want = _per_variant_vector(system, vad, frames, q,
                                               exported, nets, gmm, tvm)
                    np.testing.assert_array_equal(
                        stored[ids.index(utt)],
                        want.astype(np.float32).astype(np.float64),
                        err_msg=f"{variant_name(system, vad)} {utt}")
                    checked += 1
    assert checked == 3 * 2 * len(cfg.systems) * 2


def test_exported_weights_in_memory_equal_the_file(tiny_run):
    # extract hands S3 and S6 stored_frame_weights of S2's alpha instead of
    # reading the file it just wrote; both must be the same bits
    _, out, _ = tiny_run
    att = load_embed_net(out / "embed" / "att.emb1")
    for utt in _utt_ids(out):
        frames = fileio.read_features(out / "features" / "feats" / f"{utt}.afs")
        alpha = export_attention_weights(frames, att)
        np.testing.assert_array_equal(
            fileio.stored_frame_weights(alpha),
            fileio.read_frame_weights(out / "weights" / f"{utt}.fwt"), err_msg=utt)


def test_extract_runs_each_shared_pass_once(tiny_run, tmp_path, monkeypatch):
    _, out, _ = tiny_run
    cfg2, clone = _clone(tiny_run, tmp_path)
    (clone / "vectors" / ".stamp.json").unlink()
    forwards, posteriors = Counter(), Counter()
    pools, scores, solves = Counter(), Counter(), Counter()
    tdnn_forward, gmm_posteriors = harness.tdnn_forward, harness.gmm_posteriors
    pool_weighted_stats = network.pool_weighted_stats
    attention_scores, posterior_solve = network.attention_scores, ivector._posteriors

    def counted_forward(frames, params):
        forwards[(np.asarray(frames).tobytes(), id(params))] += 1
        return tdnn_forward(frames, params)

    def counted_posteriors(frames, gmm):
        posteriors[np.asarray(frames).tobytes()] += 1
        return gmm_posteriors(frames, gmm)

    def counted_pool(h, weights, cache=None):
        pools[h.tobytes()] += 1
        return pool_weighted_stats(h, weights, cache)

    def counted_scores(h, params, cache=None):
        scores[h.tobytes()] += 1
        return attention_scores(h, params, cache)

    def counted_solve(counts, first, tvm):
        solves[len(counts)] += 1
        return posterior_solve(counts, first, tvm)

    # also where the per-utterance functions look their passes up, so a
    # pass run through extract_embedding or accumulate_stats counts too
    for module in (harness, network):
        monkeypatch.setattr(module, "tdnn_forward", counted_forward)
    for module in (harness, ivector):
        monkeypatch.setattr(module, "gmm_posteriors", counted_posteriors)
    monkeypatch.setattr(network, "pool_weighted_stats", counted_pool)
    monkeypatch.setattr(network, "attention_scores", counted_scores)
    monkeypatch.setattr(ivector, "_posteriors", counted_solve)
    weight_reads = []
    monkeypatch.setattr(fileio, "read_frame_weights", weight_reads.append)
    lines = []
    run_pipeline(cfg2, stages=["extract"], echo=lines.append)
    assert "[extract]" in lines
    n_utts = len(_utt_ids(out))
    assert len(forwards) == 2 * n_utts  # (utterance, net) pairs
    assert set(forwards.values()) == {1}
    assert len(posteriors) == n_utts
    assert set(posteriors.values()) == {1}
    # one pooling call per (utterance, net) for all of that net's variants,
    # one attention head pass per utterance, and one posterior solve per
    # utterance for its four i-vector variants (S5, S6 x soft VAD off, on)
    assert len(pools) == 2 * n_utts
    assert set(pools.values()) == {1}
    assert len(scores) == n_utts
    assert set(scores.values()) == {1}
    assert solves == {4: n_utts}
    assert weight_reads == []  # the exported weights are not read back
    for path in (out / "vectors").rglob("*.afs"):
        assert (clone / path.relative_to(out)).read_bytes() == path.read_bytes()


def test_report_get_and_text(tiny_run):
    cfg, _, report = tiny_run
    row = report.get("S1", False)
    assert isinstance(row, SystemResult)
    assert row.system == "S1" and row.soft_vad is False
    text = report.to_text()
    assert text.splitlines()[0].split() == ["system", "soft_vad", "eer_pct",
                                            "min_cprimary"]
    assert len(text.splitlines()) == 1 + len(report.results)
    with pytest.raises(KeyError):
        Report([]).get("S1", False)


def test_load_report_round_trip(tiny_run):
    _, out, report = tiny_run
    loaded = load_report(out)
    assert {(r.system, r.soft_vad) for r in loaded.results} \
        == {(r.system, r.soft_vad) for r in report.results}
    for r in report.results:
        back = loaded.get(r.system, r.soft_vad)
        assert back.eer == pytest.approx(r.eer, abs=1e-9)
        assert back.min_cprimary == pytest.approx(r.min_cprimary, abs=1e-9)


def test_config_yaml_round_trip(tiny_run):
    cfg, out, _ = tiny_run
    loaded = load_config(out / "config.yaml")
    assert config_to_dict(loaded) == config_to_dict(cfg)


def test_rerun_skips_fresh_stages(tiny_run):
    cfg, _, report = tiny_run
    lines = []
    again = run_pipeline(cfg, echo=lines.append)
    for stage in STAGES:
        assert f"[{stage}] up to date" in lines
    for r in report.results:
        back = again.get(r.system, r.soft_vad)
        assert back.eer == r.eer
        assert back.min_cprimary == r.min_cprimary


def test_deleted_stage_rebuilds_bit_identical(tiny_run):
    cfg, out, _ = tiny_run
    tvm_dir = out / "tvm"
    before = {p.relative_to(tvm_dir): p.read_bytes()
              for p in tvm_dir.rglob("*") if p.is_file()}
    shutil.rmtree(tvm_dir)
    lines = []
    run_pipeline(cfg, echo=lines.append)
    assert "[features] up to date" in lines
    assert "[train-tvm]" in lines
    after = {p.relative_to(tvm_dir): p.read_bytes()
             for p in tvm_dir.rglob("*") if p.is_file()}
    assert after == before


def test_config_change_invalidates_downstream_only(tiny_run, tmp_path):
    cfg2, _ = _clone(tiny_run, tmp_path)
    cfg2.backend.n_iters += 1
    lines = []
    run_pipeline(cfg2, echo=lines.append)
    assert "[extract] up to date" in lines
    assert "[backend]" in lines and "[backend] up to date" not in lines
    assert "[score]" in lines and "[score] up to date" not in lines


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_selected_stage_refuses_stale_upstream(tiny_run, tmp_path):
    cfg, clone = _clone(tiny_run, tmp_path)
    cfg.embednet.epochs += 1
    with pytest.raises(StageDependencyError, match=r"'train-embed' \(stale\)"):
        run_pipeline(cfg, stages=["extract"])
    lines = []
    run_pipeline(cfg, echo=lines.append)
    assert "[train-embed]" in lines
    assert "[extract]" in lines and "[extract] up to date" not in lines
    fresh = copy.deepcopy(cfg)
    fresh.out = str(tmp_path / "fresh")
    run_pipeline(fresh)
    assert _tree_bytes(clone / "vectors") \
        == _tree_bytes(tmp_path / "fresh" / "vectors")


def test_report_refuses_stale_scores(tiny_run, tmp_path):
    cfg, _ = _clone(tiny_run, tmp_path)
    cfg.backend.n_iters += 1
    with pytest.raises(StageDependencyError, match=r"'score' \(stale\)"):
        run_pipeline(cfg, stages=["report"])


def test_train_embed_gets_the_whole_embednet_section(tiny_run, tmp_path, monkeypatch):
    cfg, clone = _clone(tiny_run, tmp_path)
    (clone / "embed" / ".stamp.json").unlink()
    train_embed_network, seen = harness.train_embed_network, []

    def spy(utterances, labels, net_cfg, utt_ids=None):
        seen.append(net_cfg)
        return train_embed_network(utterances, labels, net_cfg, utt_ids)

    monkeypatch.setattr(harness, "train_embed_network", spy)
    run_pipeline(cfg, stages=["train-embed"])
    assert sorted(c.attentive for c in seen) == [False, True]
    for net_cfg in seen:
        for f in dataclasses.fields(EmbedStageConfig):
            assert getattr(net_cfg, f.name) == getattr(cfg.embednet, f.name), f.name
        assert net_cfg.seed == cfg.seed + 11
    _, out, _ = tiny_run
    for kind in ("att", "nonatt"):
        name = f"{kind}.emb1"
        assert (clone / "embed" / name).read_bytes() == (out / "embed" / name).read_bytes()


def test_failed_stage_leaves_no_stamp(tiny_run, tmp_path, monkeypatch):
    # Under another config the score stage writes one score file, then
    # fails. Back under the first config, whose stamp that stage had left,
    # it must run again rather than pass the mixed files as up to date.
    cfg, clone = _clone(tiny_run, tmp_path)
    before = _tree_bytes(clone / "scores")
    other = copy.deepcopy(cfg)
    other.backend.n_iters += 1
    write_scores = fileio.write_scores

    def write_then_fail(path, scored):
        write_scores(path, scored)
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(fileio, "write_scores", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(other)
    lines = []
    run_pipeline(cfg, echo=lines.append)
    assert "[score]" in lines and "[score] up to date" not in lines
    assert _tree_bytes(clone / "scores") == before


def _config_leaves(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _config_leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}"


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, tuple):
        return value[:-1]
    return f"{value}-changed"  # strings and None


# Fields no stamp may depend on: `out` says where a run lives, not what it
# computes.
_UNHASHED = {"out"}


def test_every_config_field_is_fingerprinted():
    base = default_config()
    fps = harness._stage_fingerprints(base)
    leaves = list(_config_leaves(base))
    assert _UNHASHED <= set(leaves)
    for path in leaves:
        cfg = copy.deepcopy(base)
        *parents, name = path.split(".")
        holder = functools.reduce(getattr, parents, cfg)
        setattr(holder, name, _perturbed(getattr(holder, name)))
        changed = harness._stage_fingerprints(cfg) != fps
        assert changed == (path not in _UNHASHED), path


def test_config_with_synth_seed_is_refused(tmp_path):
    # Keys an earlier version wrote are refused, not ignored: the corpus is
    # drawn from the master seed, with no second seed, the hard energy VAD
    # went with its threshold offset, every frame file carries the one fixed
    # frame period, the per-component speaker gains went unused, and the
    # corpus shape, the soft-VAD logistic and the SGD schedule are constants.
    path = tmp_path / "old.yaml"
    for text, key in [("seed: 5\nsynth:\n  seed: 3\n", "synth.seed"),
                      ("features:\n  vad_offset: -0.5\n", "features.vad_offset"),
                      ("synth:\n  frame_period: 0.01\n", "synth.frame_period"),
                      ("synth:\n  component_speaker_gain: [1, 1, 1, 1]\n",
                       "synth.component_speaker_gain"),
                      ("synth:\n  residual_std: 0.7\n", "synth.residual_std"),
                      ("features:\n  soft_vad_slope: 2.0\n",
                       "features.soft_vad_slope"),
                      ("embednet:\n  lr_decay: 0.5\n", "embednet.lr_decay")]:
        path.write_text(text)
        with pytest.raises(ValueError, match=key):
            load_config(path)


def test_default_fingerprints_are_pinned():
    # Run directories stamped by earlier versions stay valid only while the
    # fingerprint payload is unchanged.
    assert harness._stage_fingerprints(default_config()) == {
        "synth": "8ec43a00c31a683e",
        "features": "119c2eab086609a9",
        "train-embed": "d661c48a428c8c2b",
        "train-ubm": "325af607d18cb091",
        "train-tvm": "c1cfa574ff15e6f4",
        "extract": "b6297ba785930c8b",
        "backend": "17d507490dab8e91",
        "score": "1e0166aef0237854",
        "report": "ff849aa769362378",
    }


@pytest.mark.parametrize("text", [
    b"",
    b"S1.novad.eer=0.25\n",
    b"S1.novad.eer=0.25\nS1.novad.min_cpr",
    b"S1.novad.eer=0.25\nS1.novad.min_cprimary=\n",
    b"S1.novad.eer=0.25\nS1.novad.min_cprimary=0.5=1\n",
    b"S1.maybe.eer=0.25\nS1.maybe.min_cprimary=0.5\n",
    b"S1.novad.eer=0.25\nS1.novad.dcf=0.5\n",
    b"S1.novad.eer=0.25\nS1.novad.min_cprimary=0.\xff\n",
], ids=["empty", "missing-metric", "cut-key", "cut-value", "two-equals",
        "bad-vad", "bad-metric", "not-utf8"])
def test_load_report_rejects_malformed_file(tmp_path, text):
    (tmp_path / "report").mkdir()
    (tmp_path / "report" / "report.kv").write_bytes(text)
    with pytest.raises(FormatError, match="report.kv"):
        load_report(tmp_path)


@pytest.mark.parametrize("text", [
    b"u1 spk1 train\nu2 spk1\n",
    b"u1 spk1 train\n\nu2 spk1 train\n",
    b"u1 spk1 train\nu\xff2 spk1 train\n",
], ids=["two-fields", "blank-line", "not-utf8"])
def test_read_manifest_rejects_malformed_line(tmp_path, text):
    path = tmp_path / "manifest.tsv"
    path.write_bytes(text)
    with pytest.raises(FormatError, match="manifest.tsv"):
        harness._read_manifest(path)


def test_stage_subset_returns_none(tiny_run):
    cfg, _, _ = tiny_run
    assert run_pipeline(cfg, stages=["synth"]) is None


def test_unknown_stage_rejected(tiny_run):
    cfg, _, _ = tiny_run
    with pytest.raises(ValueError, match="unknown stages"):
        run_pipeline(cfg, stages=["polish"])


def test_missing_dependency_raises(tmp_path):
    cfg = _tiny_config(tmp_path / "fresh")
    with pytest.raises(StageDependencyError, match="features"):
        run_pipeline(cfg, stages=["train-ubm"])


def test_systems_subset_skips_unneeded_nets(tmp_path):
    cfg = _tiny_config(tmp_path / "subset")
    cfg.systems = ("S1",)
    cfg.soft_vad = "off"
    report = run_pipeline(cfg)
    assert [(r.system, r.soft_vad) for r in report.results] == [("S1", False)]
    out = tmp_path / "subset"
    assert (out / "embed" / "nonatt.emb1").exists()
    assert not (out / "embed" / "att.emb1").exists()
    assert not (out / "weights").exists()


def test_systems_subset_trains_the_same_plain_net(tiny_run, tmp_path):
    # the plain net's training seed must not depend on which other systems
    # were selected
    cfg, out, report = tiny_run
    sub = copy.deepcopy(cfg)
    sub.out = str(tmp_path / "s1_only")
    sub.systems = ("S1",)
    sub_report = run_pipeline(sub)
    assert (tmp_path / "s1_only" / "embed" / "nonatt.emb1").read_bytes() \
        == (out / "embed" / "nonatt.emb1").read_bytes()
    for vad in (False, True):
        assert sub_report.get("S1", vad) == report.get("S1", vad)


def test_zero_epochs_trains_the_warm_start_and_echoes_no_loss(tmp_path):
    cfg = _tiny_config(tmp_path / "warm")
    cfg.embednet.epochs = 0
    lines = []
    run_pipeline(cfg, stages=["synth", "features", "train-embed"], echo=lines.append)
    for kind in ("att", "nonatt"):
        assert len(load_embed_net(tmp_path / "warm" / "embed" / f"{kind}.emb1").tdnn) > 0
        assert any(line.startswith(f"  {kind}: 0 epochs, no final loss")
                   for line in lines)


# ---------------------------------------------------------------------------
# command line

def test_cli_features_ingests_posterior_dir(tmp_path, capsys):
    # The ground-truth voice flags as external posteriors: the features
    # stage stores them unchanged, and refuses a file one frame short.
    cfg = _tiny_config(tmp_path / "run")
    voice = tmp_path / "run" / "corpus" / "voice"
    cfg.features.posterior_dir = str(voice)
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    assert main(["synth", "--config", str(path)]) == 0
    assert main(["features", "--config", str(path)]) == 0
    q_dir = tmp_path / "run" / "features" / "q"
    assert _tree_bytes(q_dir) == _tree_bytes(voice)

    short = tmp_path / "short"
    shutil.copytree(voice, short)
    utt = _utt_ids(tmp_path / "run")[3]
    q = fileio.read_posteriors(short / f"{utt}.vps")
    fileio.write_posteriors(short / f"{utt}.vps", q[:-1])
    cfg.features.posterior_dir = str(short)
    save_config(cfg, path)
    capsys.readouterr()
    assert main(["features", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deskspeaker: ") and utt in err
    assert f"{len(q) - 1} frames, expected {len(q)}" in err

    # An utterance that is silent throughout is ingested, and its vad
    # variants have no weight mass: extract fails naming it.
    silent = tmp_path / "silent"
    shutil.copytree(voice, silent)
    fileio.write_posteriors(silent / f"{utt}.vps", np.zeros_like(q))
    cfg.features.posterior_dir = str(silent)
    save_config(cfg, path)
    assert main(["features", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["run-all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deskspeaker: ") and f"utterance {utt}" in err
    assert "zero total mass" in err


def test_cli_names_an_utterance_shorter_than_the_context(tmp_path, capsys):
    cfg = _tiny_config(tmp_path / "run")
    cfg.synth.frames_per_utt = 14  # the default offsets span 15 frames
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    assert main(["run-all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deskspeaker: ")
    assert any(f"utterance {utt}: " in err for utt in _utt_ids(tmp_path / "run"))
    assert "14 frames" in err and "15 frames" in err


def test_cli_refuses_an_empty_enroll_partition(tmp_path, capsys):
    # Refused when the config is loaded, before synth stamps a corpus that
    # every model would then be trained on in vain.
    cfg = _tiny_config(tmp_path / "run")
    cfg.synth.enroll_utts_per_speaker = 0
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    assert main(["run-all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deskspeaker: ")
    assert "enroll_utts_per_speaker" in err and "empty" in err
    assert not (tmp_path / "run" / "corpus" / ".stamp.json").exists()


def test_run_pipeline_validates_a_config_changed_after_it_was_built(tmp_path):
    cfg = _tiny_config(tmp_path / "run")
    cfg.synth.enroll_utts_per_speaker = 0
    with pytest.raises(ValueError, match="enroll_utts_per_speaker"):
        run_pipeline(cfg)
    # refused before config.yaml is written or any stage stamps its output
    assert not (tmp_path / "run" / "config.yaml").exists()
    assert not (tmp_path / "run" / "corpus" / ".stamp.json").exists()
    cfg = _tiny_config(tmp_path / "run")
    cfg.soft_vad = "sometimes"
    with pytest.raises(ValueError, match="soft_vad"):
        run_pipeline(cfg)
    assert not (tmp_path / "run").exists()
    for section, name, value in (
            ("embednet", "hidden_dim", 0), ("embednet", "pool_dim", 0),
            ("embednet", "embed_dim", 0), ("embednet", "attention_dim", 0),
            ("embednet", "batch_size", 0), ("embednet", "epochs", -1),
            ("ubm", "n_components", 0), ("ubm", "n_iters", -1),
            ("tvm", "rank", 0), ("tvm", "n_iters", -1),
            ("backend", "plda_dim_embed", -1), ("backend", "plda_dim_ivector", -1),
            ("backend", "n_iters", -1), ("eval", "p_targets", ()),
            ("eval", "p_targets", (0.01, 1.0)), ("eval", "p_targets", (0.0,))):
        cfg = _tiny_config(tmp_path / "run")
        setattr(getattr(cfg, section), name, value)
        with pytest.raises(ValueError, match=f"{section}: {name}"):
            run_pipeline(cfg)
        assert not (tmp_path / "run").exists()


def test_cli_refuses_a_bad_embednet_value(tmp_path, capsys):
    # Refused when the config is loaded: a zero width would otherwise fail
    # with a ZeroDivisionError once synth and features had run.
    cfg = _tiny_config(tmp_path / "run")
    cfg.embednet.hidden_dim = 0
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    assert main(["run-all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deskspeaker: ") and "hidden_dim" in err
    assert not (tmp_path / "run" / "corpus" / ".stamp.json").exists()


@pytest.mark.parametrize("section,field,value", [("ubm", "n_iters", "x"),
                                                  ("embednet", "hidden_dim", "64"),
                                                  ("eval", "p_targets", 0.5)])
def test_cli_refuses_a_config_value_of_the_wrong_type(tmp_path, capsys, section, field, value):
    # Refused when the config is merged: each crashed synth with a TypeError
    path = tmp_path / "cfg.yaml"
    path.write_text(f"out: {tmp_path / 'run'}\n{section}: {{{field}: {value!r}}}\n")
    assert main(["synth", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"deskspeaker: config key {section}.{field} takes type ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model", ["ubm", "tvm"])
def test_cli_zero_em_iterations_save_the_initial_model(tmp_path, capsys, model):
    cfg = _tiny_config(tmp_path / "run")
    getattr(cfg, model).n_iters = 0
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    assert main(["run-all", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("no EM iterations") == 1
    assert "min_cprimary" in out


def test_cli_runs_fresh_pipeline_and_reports(tiny_run, capsys):
    _, out, _ = tiny_run
    code = main(["run-all", "--config", str(out / "config.yaml")])
    captured = capsys.readouterr()
    assert code == 0
    assert "up to date" in captured.out
    assert "min_cprimary" in captured.out


def test_cli_rejects_truncated_fresh_report(tiny_run, tmp_path, capsys):
    _, clone = _clone(tiny_run, tmp_path)
    kv = clone / "report" / "report.kv"
    text = kv.read_text()
    kv.write_text(text[:text.rindex("min_cprimary")])  # cut inside a key
    code = main(["report", "--config", str(clone / "config.yaml"),
                 "--out", str(clone)])
    captured = capsys.readouterr()
    assert code == 2
    assert "[report] up to date" in captured.out
    assert captured.err.startswith("deskspeaker: ")
    assert "report.kv" in captured.err


def test_cli_rejects_fresh_report_cut_at_a_line_boundary(tiny_run, tmp_path, capsys):
    # Dropping the last variant's two lines leaves a well-formed file; only
    # the configured variants tell it from a whole report.
    _, clone = _clone(tiny_run, tmp_path)
    kv = clone / "report" / "report.kv"
    lines = kv.read_text().splitlines(keepends=True)
    kv.write_text("".join(lines[:-2]))
    system, vad, _ = lines[-1].split("=")[0].split(".")
    code = main(["report", "--config", str(clone / "config.yaml"),
                 "--out", str(clone)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("deskspeaker: ")
    assert "report.kv" in captured.err
    assert variant_name(system, vad == "vad") in captured.err


@pytest.mark.parametrize("edit", ["last-line-dropped", "unknown-pair"])
def test_cli_report_rejects_scores_off_the_trial_list(tiny_run, tmp_path, capsys, edit):
    _, clone = _clone(tiny_run, tmp_path)
    (clone / "report" / ".stamp.json").unlink()
    scores = sorted((clone / "scores").glob("S*.txt"))[0]
    lines = scores.read_text().splitlines(keepends=True)
    if edit == "last-line-dropped":
        lines = lines[:-1]
    else:
        enroll, _, score = lines[0].split()
        lines[0] = f"{enroll} nobody {score}\n"
    scores.write_text("".join(lines))
    code = main(["report", "--config", str(clone / "config.yaml"),
                 "--out", str(clone)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("deskspeaker: ")
    assert scores.name in captured.err and "trials.txt" in captured.err


def test_cli_extract_rejects_net_missing_a_tensor(tiny_run, tmp_path, capsys):
    _, clone = _clone(tiny_run, tmp_path)
    net = clone / "embed" / "att.emb1"
    meta, tensors = fileio.read_named_tensors(net, b"EMB1")
    del tensors["att.v"]
    fileio.write_named_tensors(net, b"EMB1", meta, tensors)
    (clone / "vectors" / ".stamp.json").unlink()
    code = main(["extract", "--config", str(clone / "config.yaml"),
                 "--out", str(clone)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("deskspeaker: ")
    assert "att.emb1" in captured.err and "att.v" in captured.err


def test_load_report_checks_expected_variants(tmp_path):
    (tmp_path / "report").mkdir()
    (tmp_path / "report" / "report.kv").write_text(
        "S1.novad.eer=0.25\nS1.novad.min_cprimary=0.5\n")
    assert len(load_report(tmp_path, [("S1", False)]).results) == 1
    with pytest.raises(FormatError, match="S1-vad"):
        load_report(tmp_path, [("S1", False), ("S1", True)])  # missing
    with pytest.raises(FormatError, match="S1-novad"):
        load_report(tmp_path, [("S2", False)])  # extra, and S2 missing


def test_cli_offers_every_stage_with_help():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == STAGES + ("run-all",)
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert set(helps) == set(sub.choices)
    assert all(helps.values())


def test_cli_propagates_stage_errors(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "nothing_here")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("deskspeaker: ")


def test_cli_rejects_malformed_yaml(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("ubm: {n_components: 4\n")
    code = main(["synth", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("deskspeaker: ")
    assert "bad.yaml" in captured.err


def test_package_imports_without_scipy():
    src = Path(harness.__file__).resolve().parents[1]
    code = ("import sys, deskspeaker, deskspeaker.harness, deskspeaker.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["deskspeaker", "deskspeaker.embednet"])
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_cli_overrides_systems_and_seed(tmp_path, capsys):
    out = tmp_path / "cli_out"
    cfg = _tiny_config(out)
    run_pipeline(cfg, stages=["synth"])
    code = main(["synth", "--out", str(out), "--seed", "23",
                 "--systems", "S1,S4", "--soft-vad", "off"])
    capsys.readouterr()
    assert code == 0
    loaded = load_config(out / "config.yaml")
    assert loaded.systems == ("S1", "S4")
    assert loaded.soft_vad == "off"
