"""End-to-end desk experiment: corpus -> features -> models -> scores -> report.

The pipeline is one ordered table of stages (`PIPELINE`). Each stage writes
its artifacts under one subdirectory of the output root and stamps them with a
fingerprint of the configuration slice it reads and of its upstream stages'
fingerprints. The runner applies one rule to every stage: a stage whose stamp
matches is skipped as up to date (a fresh report is loaded, not recomputed);
otherwise it runs only if every upstream stamp matches too, and raises
StageDependencyError naming the missing or stale upstream stages if not. A
stage's old stamp is removed before it runs and the new one written after it
returns, so a stage that fails leaves no stamp. Deleting a stage directory
forces just that stage (and nothing upstream) to be rebuilt, reproducing
identical bytes.

Systems compared (embedding route vs i-vector route, by pooling weights):

    S1  embedding, plain network, uniform pooling
    S2  embedding, attentive network, its own attention weights
    S3  embedding, plain network, weights imported from S2
    S4  embedding, attentive network, forced uniform pooling
    S5  i-vector, uniform frame weights
    S6  i-vector, frame weights imported from S2

Each system runs with and without soft VAD reweighting (config `soft_vad`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .backend import (PldaModel, Preprocessor, apply_preprocess,
                      fit_preprocessor, plda_score_matrix, train_plda)
from .config import PipelineConfig, save_config, validate
from .embednet import (EmbedNetConfig, combine_weights, embed_hidden,
                       fold_tdnn, hidden_attention_weights, load_embed_net,
                       save_embed_net, tdnn_forward, train_embed_network)
from .errors import DegenerateWeightsError, FormatError, StageDependencyError
from .features import soft_vad_posteriors
from .ivector import (TotalVariabilityModel, accumulate_stats,
                      extract_ivector, train_tvm, weighted_stats)
from .metrics import TrialScoreSet, compute_eer, compute_min_cprimary
from .synth import generate_corpus
from .ubm import DiagGmm, gmm_posteriors, train_gmm

WEIGHT_SOURCE_SYSTEM = "S2"


@dataclass(frozen=True)
class SystemSpec:
    name: str
    kind: str     # "embed" | "ivector"
    net: str | None   # "att" | "nonatt" | None (i-vector systems)
    weights: str  # "uniform" | "internal" | "external"


SYSTEMS = {
    "S1": SystemSpec("S1", "embed", "nonatt", "uniform"),
    "S2": SystemSpec("S2", "embed", "att", "internal"),
    "S3": SystemSpec("S3", "embed", "nonatt", "external"),
    "S4": SystemSpec("S4", "embed", "att", "uniform"),
    "S5": SystemSpec("S5", "ivector", None, "uniform"),
    "S6": SystemSpec("S6", "ivector", None, "external"),
}

PARTITIONS = ("train", "enroll", "test")


def variant_name(system: str, vad: bool) -> str:
    return f"{system}-{'vad' if vad else 'novad'}"


def _nets_needed(systems) -> set:
    needed = set()
    for name in systems:
        spec = SYSTEMS[name]
        if spec.net is not None:
            needed.add(spec.net)
        if spec.weights == "external":
            needed.add("att")
    return needed


def _ivector_needed(systems) -> bool:
    return any(SYSTEMS[s].kind == "ivector" for s in systems)


# ---------------------------------------------------------------------------
# frame-weight plumbing shared by the extract stage and external callers

def expand_frame_weights(weights: np.ndarray, n_frames: int,
                         left_context: int, right_context: int) -> np.ndarray:
    """Spread valid-frame weights over the full frame axis of an utterance.

    A network with temporal context emits one weight per *valid* frame
    (n_frames - left - right of them); frame t of that sequence lines up with
    full frame t + left_context. The flanks take the nearest valid weight and
    the result is renormalized to sum to one.
    """
    w = np.asarray(weights, dtype=np.float64)
    n_valid = n_frames - left_context - right_context
    if n_valid <= 0:
        raise DegenerateWeightsError(
            f"no valid frames: {n_frames} frames with context "
            f"({left_context}, {right_context})")
    if w.shape != (n_valid,):
        raise DegenerateWeightsError(
            f"weight length {w.shape} does not match {n_valid} valid frames")
    full = np.empty(n_frames, dtype=np.float64)
    full[left_context:n_frames - right_context] = w
    if left_context:
        full[:left_context] = w[0]
    if right_context:
        full[n_frames - right_context:] = w[-1]
    total = full.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightsError("expanded weights have no mass")
    return full / total


# ---------------------------------------------------------------------------
# fingerprints and stage bookkeeping

def _fingerprint(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _stage_fingerprints(cfg: PipelineConfig) -> dict:
    fps = {}
    for stage in PIPELINE:
        fps[stage.name] = _fingerprint(
            {"config": stage.config_slice(cfg),
             "upstream": [fps[d] for d in stage.deps]})
    return fps


def _stage_dir(out, stage: str) -> Path:
    return Path(out) / _BY_NAME[stage].dir


def _stamp_path(out, stage: str) -> Path:
    return _stage_dir(out, stage) / ".stamp.json"


def _is_fresh(out, stage: str, fps: dict) -> bool:
    try:
        recorded = json.loads(_stamp_path(out, stage).read_text())
        return recorded.get("fingerprint") == fps[stage]
    except (OSError, ValueError, AttributeError):
        return False


def _write_stamp(out, stage: str, fps: dict):
    _stamp_path(out, stage).write_text(
        json.dumps({"stage": stage, "fingerprint": fps[stage]}) + "\n")


# ---------------------------------------------------------------------------
# manifest helpers

def _write_manifest(path, corpus):
    with open(path, "w") as f:
        for utt, spk, part in zip(corpus.utt_ids, corpus.speakers,
                                  corpus.partition):
            f.write(f"{utt}\t{spk}\t{part}\n")


def _read_manifest(path):
    rows = []
    for line in fileio.text_lines(path):
        row = tuple(line.split())
        if len(row) != 3:
            raise FormatError(f"{path}: bad manifest line {line!r}")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: empty manifest")
    return rows


# ---------------------------------------------------------------------------
# the stages

def _stage_synth(cfg: PipelineConfig, out: Path, echo):
    """Generate the synthetic corpus."""
    corpus = generate_corpus(cfg.synth, seed=cfg.seed)
    d = _stage_dir(out, "synth")
    (d / "feats").mkdir(exist_ok=True)
    (d / "voice").mkdir(exist_ok=True)
    for i, utt in enumerate(corpus.utt_ids):
        fileio.write_features(d / "feats" / f"{utt}.afs", corpus.features[i])
        fileio.write_posteriors(d / "voice" / f"{utt}.vps",
                                corpus.voice[i].astype(np.float64))
    _write_manifest(d / "manifest.tsv", corpus)
    if echo:
        parts = {p: len(corpus.indices(p)) for p in PARTITIONS}
        echo(f"  {len(corpus)} utterances "
             f"(train {parts['train']}, enroll {parts['enroll']}, "
             f"test {parts['test']})")


def _stage_features(cfg: PipelineConfig, out: Path, echo):
    """Compute or ingest each utterance's soft-VAD posteriors."""
    fcfg = cfg.features
    src = _stage_dir(out, "synth")
    d = _stage_dir(out, "features")
    for sub in ("feats", "q"):
        (d / sub).mkdir(exist_ok=True)
    rows = _read_manifest(src / "manifest.tsv")
    for utt, _, _ in rows:
        frames = fileio.read_features(src / "feats" / f"{utt}.afs")
        if fcfg.posterior_dir is not None:
            q = fileio.read_posteriors(Path(fcfg.posterior_dir) / f"{utt}.vps")
            if q.shape[0] != frames.shape[0]:
                raise FormatError(
                    f"external posteriors for {utt}: {q.shape[0]} frames, "
                    f"expected {frames.shape[0]}")
        else:
            q = soft_vad_posteriors(frames)
        fileio.write_features(d / "feats" / f"{utt}.afs", frames)
        fileio.write_posteriors(d / "q" / f"{utt}.vps", q)
    (d / "manifest.tsv").write_text((src / "manifest.tsv").read_text())
    if echo:
        source = fcfg.posterior_dir or "soft VAD"
        echo(f"  posteriors for {len(rows)} utterances from {source}")


def _read_processed(out, utt: str) -> np.ndarray:
    return fileio.read_features(
        _stage_dir(out, "features") / "feats" / f"{utt}.afs")


def _rows(out):
    return _read_manifest(_stage_dir(out, "features") / "manifest.tsv")


def _train_rows(out):
    return [r for r in _rows(out) if r[2] == "train"]


def _stage_train_embed(cfg: PipelineConfig, out: Path, echo):
    """Train the embedding network(s)."""
    train = _train_rows(out)
    utts = [_read_processed(out, utt) for utt, _, _ in train]
    speakers = sorted({spk for _, spk, _ in train})
    label_of = {spk: i for i, spk in enumerate(speakers)}
    labels = [label_of[spk] for _, spk, _ in train]
    d = _stage_dir(out, "train-embed")
    # One training seed for both kinds, whichever systems are selected: the
    # plain and attentive nets then differ only by the attention head.
    for kind in sorted(_nets_needed(cfg.systems)):
        net_cfg = EmbedNetConfig(
            **dataclasses.asdict(cfg.embednet), input_dim=utts[0].shape[1],
            n_speakers=len(speakers), attentive=(kind == "att"), seed=cfg.seed + 11)
        t0 = time.monotonic()
        params = train_embed_network(utts, labels, net_cfg,
                                     utt_ids=[utt for utt, _, _ in train])
        save_embed_net(d / f"{kind}.emb1", params)
        if echo:
            # zero epochs train the warm start only: there is no final loss
            loss = (f"final loss {params.train_loss[-1]:.4f}"
                    if len(params.train_loss) else "no final loss")
            echo(f"  {kind}: {net_cfg.epochs} epochs, {loss} "
                 f"({time.monotonic() - t0:.1f}s)")


def _stage_train_ubm(cfg: PipelineConfig, out: Path, echo):
    """Train the background mixture model."""
    frames = np.vstack([_read_processed(out, utt)
                        for utt, _, _ in _train_rows(out)])
    gmm = train_gmm(frames, cfg.ubm.n_components, cfg.ubm.n_iters,
                    seed=cfg.seed + 13)
    gmm.save(_stage_dir(out, "train-ubm") / "ubm.gmm1")
    if echo:
        # zero iterations save the initial model: there is no final loglik
        loglik = (f"final loglik/frame {gmm.em_loglik[-1] / frames.shape[0]:.4f}"
                  if len(gmm.em_loglik) else "no EM iterations")
        echo(f"  {cfg.ubm.n_components} components on {frames.shape[0]} "
             f"frames, {loglik}")


def _stage_train_tvm(cfg: PipelineConfig, out: Path, echo):
    """Train the total-variability subspace."""
    gmm = DiagGmm.load(_stage_dir(out, "train-ubm") / "ubm.gmm1")
    stats_list = [accumulate_stats(_read_processed(out, utt), gmm)
                  for utt, _, _ in _train_rows(out)]
    tvm = train_tvm(stats_list, gmm, cfg.tvm.rank, cfg.tvm.n_iters,
                    seed=cfg.seed + 14)
    tvm.save(_stage_dir(out, "train-tvm") / "tvm.tvm1")
    if echo:
        objective = (f"objective {tvm.em_objective[0]:.3f} -> {tvm.em_objective[-1]:.3f}"
                     if len(tvm.em_objective) else "no EM iterations")
        echo(f"  rank {cfg.tvm.rank}, {objective}")


def _stage_extract(cfg: PipelineConfig, out: Path, echo):
    """Extract vectors for every system variant."""
    rows = _rows(out)
    nets = {kind: load_embed_net(_stage_dir(out, "train-embed") / f"{kind}.emb1")
            for kind in _nets_needed(cfg.systems)}
    folded = {kind: fold_tdnn(net) for kind, net in nets.items()}
    gmm = tvm = None
    if _ivector_needed(cfg.systems):
        gmm = DiagGmm.load(_stage_dir(out, "train-ubm") / "ubm.gmm1")
        tvm = TotalVariabilityModel.load(
            _stage_dir(out, "train-tvm") / "tvm.tvm1")

    d = _stage_dir(out, "extract")
    weights_dir = out / "weights"
    export_weights = "att" in nets
    if export_weights:
        weights_dir.mkdir(exist_ok=True)

    variants = [(s, vad) for s in cfg.systems for vad in cfg.vad_variants]
    collected = {variant_name(s, v): {p: ([], []) for p in PARTITIONS}
                 for s, v in variants}
    qdir = _stage_dir(out, "features") / "q"

    for utt, _, part in rows:
        frames = _read_processed(out, utt)
        n = frames.shape[0]
        q = fileio.read_posteriors(qdir / f"{utt}.vps")

        # The per-utterance work every variant shares, done once: one TDNN
        # pass per net, one UBM posterior pass, one rounding of the exported
        # weights. The variants below only build their weights from these;
        # each net then pools all its variants at once, and the i-vector
        # variants share one posterior solve.
        hidden = {kind: tdnn_forward(frames, net) for kind, net in folded.items()}
        alpha = exported = None
        if export_weights:
            alpha = hidden_attention_weights(hidden["att"], nets["att"])
            fileio.write_frame_weights(weights_dir / f"{utt}.fwt", alpha)
            # S3 and S6 consume the weights as exported (float32, then
            # renormalized); S2 keeps its own float64 alpha.
            exported = fileio.stored_frame_weights(alpha)
        post = gmm_posteriors(frames, gmm) if gmm is not None else None

        pooled = {kind: ([], []) for kind in nets}  # variant names, weight rows
        ivector_names, ivector_stats = [], []
        for system, vad in variants:
            spec = SYSTEMS[system]
            name = variant_name(system, vad)
            if spec.kind == "embed":
                net = nets[spec.net]
                left, right = net.left_context, net.right_context
                n_valid = n - left - right
                if spec.weights == "uniform":
                    base = np.full(n_valid, 1.0 / n_valid)
                elif spec.weights == "internal":
                    base = alpha
                else:
                    base = exported
                names, weights = pooled[spec.net]
                names.append(name)
                weights.append(_vad_weights(base, q[left:n - right], utt) if vad else base)
            else:
                if spec.weights == "external":
                    src_net = nets["att"]
                    w_full = expand_frame_weights(
                        exported, n, src_net.left_context, src_net.right_context)
                    w = _vad_weights(w_full, q, utt) if vad else w_full
                else:
                    # None, not 1/n each: n * (1/n) can round away from 1,
                    # and S5 keeps the statistics the TVM was trained on
                    w = _vad_weights(np.full(n, 1.0 / n), q, utt) if vad else None
                ivector_names.append(name)
                ivector_stats.append(weighted_stats(frames, post, gmm, w))

        results = [(ivector_names, extract_ivector(ivector_stats, tvm))] if ivector_stats else []
        results += [(names, embed_hidden(hidden[kind], nets[kind], np.array(weights)))
                    for kind, (names, weights) in pooled.items() if names]
        for names, vecs in results:
            for name, vec in zip(names, vecs):
                ids, kept = collected[name][part]
                ids.append(utt)
                kept.append(vec)

    for variant, by_part in collected.items():
        vdir = d / variant
        vdir.mkdir(exist_ok=True)
        for part, (ids, vecs) in by_part.items():
            fileio.write_vector_set(vdir / part, ids, np.array(vecs))
    if echo:
        echo(f"  {len(collected)} system variants x {len(rows)} utterances"
             + (", weights exported" if export_weights else ""))


def _vad_weights(weights: np.ndarray, q: np.ndarray, utt: str) -> np.ndarray:
    """combine_weights, naming the utterance whose posteriors leave no mass."""
    try:
        return combine_weights(weights, q)
    except DegenerateWeightsError as exc:
        raise DegenerateWeightsError(f"utterance {utt}: {exc}") from exc


def _variant_names(cfg: PipelineConfig):
    return [variant_name(s, v) for s in cfg.systems for v in cfg.vad_variants]


def _stage_backend(cfg: PipelineConfig, out: Path, echo):
    """Fit the preprocessor and scoring backend per variant."""
    spk_of = {utt: spk for utt, spk, _ in _rows(out)}
    d = _stage_dir(out, "backend")
    for variant in _variant_names(cfg):
        system = variant.split("-")[0]
        ids, vecs = fileio.read_vector_set(
            _stage_dir(out, "extract") / variant / "train")
        prep = fit_preprocessor(vecs)
        proc = apply_preprocess(vecs, prep)
        dim = (cfg.backend.plda_dim_embed if SYSTEMS[system].kind == "embed"
               else cfg.backend.plda_dim_ivector)
        plda = train_plda(proc, [spk_of[u] for u in ids],
                          min(dim, vecs.shape[1]), cfg.backend.n_iters,
                          seed=cfg.seed + 15)
        prep.save(d / f"{variant}.pre1")
        plda.save(d / f"{variant}.pld1")
    if echo:
        echo(f"  fitted preprocessor + backend for "
             f"{len(_variant_names(cfg))} variants")


def _build_trials(rows):
    enroll = [(u, s) for u, s, p in rows if p == "enroll"]
    test = [(u, s) for u, s, p in rows if p == "test"]
    return [(e, t, se == st) for e, se in enroll for t, st in test]


def _stage_score(cfg: PipelineConfig, out: Path, echo):
    """Score all enroll/test trials."""
    trials = _build_trials(_rows(out))
    d = _stage_dir(out, "score")
    fileio.write_trial_list(d / "trials.txt", trials)
    for variant in _variant_names(cfg):
        vdir = _stage_dir(out, "extract") / variant
        e_ids, e_vecs = fileio.read_vector_set(vdir / "enroll")
        t_ids, t_vecs = fileio.read_vector_set(vdir / "test")
        prep = Preprocessor.load(_stage_dir(out, "backend") / f"{variant}.pre1")
        plda = PldaModel.load(_stage_dir(out, "backend") / f"{variant}.pld1")
        scores = plda_score_matrix(apply_preprocess(e_vecs, prep),
                                   apply_preprocess(t_vecs, prep), plda)
        e_pos = {u: i for i, u in enumerate(e_ids)}
        t_pos = {u: i for i, u in enumerate(t_ids)}
        fileio.write_scores(
            d / f"{variant}.txt",
            [(e, t, scores[e_pos[e], t_pos[t]]) for e, t, _ in trials])
    if echo:
        echo(f"  scored {len(trials)} trials per variant")


@dataclass
class SystemResult:
    system: str
    soft_vad: bool
    eer: float
    min_cprimary: float


@dataclass
class Report:
    results: list[SystemResult]

    def get(self, system: str, soft_vad: bool) -> SystemResult:
        for r in self.results:
            if r.system == system and r.soft_vad == soft_vad:
                return r
        raise KeyError(f"no result for {variant_name(system, soft_vad)}")

    def to_text(self) -> str:
        lines = [f"{'system':<8}{'soft_vad':<10}{'eer_pct':>9}"
                 f"{'min_cprimary':>14}"]
        for r in self.results:
            lines.append(f"{r.system:<8}{('on' if r.soft_vad else 'off'):<10}"
                         f"{100.0 * r.eer:>9.3f}{r.min_cprimary:>14.4f}")
        return "\n".join(lines) + "\n"


def _stage_report(cfg: PipelineConfig, out: Path, echo):
    """Compute the error metrics and write the report."""
    d = _stage_dir(out, "report")
    sdir = _stage_dir(out, "score")
    trials = fileio.read_trial_list(sdir / "trials.txt")
    targets = np.array([is_target for _, _, is_target in trials])
    results = []
    for system in cfg.systems:
        for vad in cfg.vad_variants:
            path = sdir / f"{variant_name(system, vad)}.txt"
            scored = fileio.read_scores(path)
            if len(scored) != len(trials) or any(
                    s[:2] != t[:2] for s, t in zip(scored, trials)):
                raise FormatError(f"{path}: (enroll, test) pairs differ from trials.txt")
            tset = TrialScoreSet(np.array([s for _, _, s in scored]), targets)
            results.append(SystemResult(
                system, vad, compute_eer(tset),
                compute_min_cprimary(tset, cfg.eval.p_targets)))
    report = Report(results)
    (d / "report.txt").write_text(report.to_text())
    with open(d / "report.kv", "w") as f:
        for r in results:
            key = f"{r.system}.{'vad' if r.soft_vad else 'novad'}"
            f.write(f"{key}.eer={r.eer:.10f}\n")
            f.write(f"{key}.min_cprimary={r.min_cprimary:.10f}\n")


def load_report(out, variants=None) -> Report:
    """Rebuild a Report from the key-value file a report stage wrote.

    Raises FormatError on a malformed line, an empty file, a variant missing
    one of its two metrics, or a variant missing from or extra to the given
    expected ``variants``, (system, soft_vad) pairs.
    """
    path = _stage_dir(out, "report") / "report.kv"
    table = {}
    for line in fileio.text_lines(path):
        try:
            key, val = line.strip().split("=")
            system, vad, metric = key.split(".")
            if vad not in ("vad", "novad") \
                    or metric not in ("eer", "min_cprimary"):
                raise ValueError
            table.setdefault((system, vad == "vad"), {})[metric] = float(val)
        except ValueError:
            raise FormatError(f"{path}: bad line {line!r}") from None
    incomplete = [variant_name(*k) for k, m in table.items() if len(m) != 2]
    if incomplete or not table:
        raise FormatError(f"{path}: incomplete report "
                          f"(missing metrics for {incomplete or 'every variant'})")
    mismatch = set(table) ^ set(table if variants is None else variants)
    if mismatch:
        raise FormatError(f"{path}: variants missing or not configured: "
                          f"{sorted(variant_name(*k) for k in mismatch)}")
    return Report([SystemResult(system, vad, m["eer"], m["min_cprimary"])
                   for (system, vad), m in table.items()])


# ---------------------------------------------------------------------------
# the stage table and its runner

def _seeded(part, seed: int) -> dict:
    return {**dataclasses.asdict(part), "seed": seed}


@dataclass(frozen=True)
class Stage:
    """One pipeline stage. Its fingerprint hashes `config_slice(cfg)` and the
    fingerprints of `deps`, in that order; `run(cfg, out, echo)` writes under
    `out / dir` and reads only what `deps` and their own upstream stages
    wrote. The CLI's help text for the stage is the first line of `run`'s
    docstring."""

    name: str
    dir: str
    deps: tuple[str, ...]
    config_slice: Callable[[PipelineConfig], dict]
    run: Callable


PIPELINE = (
    Stage("synth", "corpus", (),
          lambda cfg: _seeded(cfg.synth, cfg.seed), _stage_synth),
    Stage("features", "features", ("synth",),
          lambda cfg: dataclasses.asdict(cfg.features), _stage_features),
    Stage("train-embed", "embed", ("features",),
          lambda cfg: {**_seeded(cfg.embednet, cfg.seed),
                       "nets": sorted(_nets_needed(cfg.systems))},
          _stage_train_embed),
    Stage("train-ubm", "ubm", ("features",),
          lambda cfg: _seeded(cfg.ubm, cfg.seed), _stage_train_ubm),
    Stage("train-tvm", "tvm", ("features", "train-ubm"),
          lambda cfg: _seeded(cfg.tvm, cfg.seed), _stage_train_tvm),
    Stage("extract", "vectors",
          ("features", "train-embed", "train-ubm", "train-tvm"),
          lambda cfg: {"systems": sorted(cfg.systems),
                       "soft_vad": cfg.soft_vad}, _stage_extract),
    Stage("backend", "backend", ("extract",),
          lambda cfg: _seeded(cfg.backend, cfg.seed), _stage_backend),
    Stage("score", "scores", ("extract", "backend"),
          lambda cfg: {}, _stage_score),
    Stage("report", "report", ("score",),
          lambda cfg: {"p_targets": list(cfg.eval.p_targets)}, _stage_report),
)

STAGES = tuple(stage.name for stage in PIPELINE)
_BY_NAME = {stage.name: stage for stage in PIPELINE}


def run_pipeline(cfg: PipelineConfig, stages=None, echo=None) -> Report | None:
    """Run the requested stages (default: all) in table order.

    A stage whose stamp matches its fingerprint is skipped. Any other stage
    runs only if every upstream stamp matches its current fingerprint, and
    raises StageDependencyError naming the missing or stale ones otherwise.
    Returns the report read back from the run directory when the report
    stage was selected, else None. The config is validated first, so a
    field changed after it was built is refused before anything is written.
    """
    validate(cfg)
    if stages is None:
        selected = PIPELINE
    else:
        unknown = [s for s in stages if s not in STAGES]
        if unknown:
            raise ValueError(f"unknown stages {unknown}; choose from {STAGES}")
        selected = [stage for stage in PIPELINE if stage.name in set(stages)]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    fps = _stage_fingerprints(cfg)
    say = echo or (lambda line: None)
    for stage in selected:
        if _is_fresh(out, stage.name, fps):
            say(f"[{stage.name}] up to date")
            continue
        unmet = [f"'{d}' ({'stale' if _stamp_path(out, d).exists() else 'missing'})"
                 for d in stage.deps if not _is_fresh(out, d, fps)]
        if unmet:
            raise StageDependencyError(
                f"stage '{stage.name}' needs up-to-date upstream stages under "
                f"{out}: {', '.join(unmet)}; run them first")
        say(f"[{stage.name}]")
        t0 = time.monotonic()
        _stamp_path(out, stage.name).unlink(missing_ok=True)
        _stage_dir(out, stage.name).mkdir(exist_ok=True)
        stage.run(cfg, out, echo)
        _write_stamp(out, stage.name, fps)
        say(f"[{stage.name}] done in {time.monotonic() - t0:.1f}s")
    variants = [(s, v) for s in cfg.systems for v in cfg.vad_variants]
    return load_report(out, variants) if PIPELINE[-1] in selected else None
