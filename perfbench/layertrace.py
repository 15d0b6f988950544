"""Per-layer tracing of one pipeline invocation, installed from outside.

`Tracer.install` wraps every public function of every `deskspeaker` module
and rebinds the wrapper under each name that refers to the original, in every
module namespace. Calls made inside the package look their callees up in
those namespaces, so they are caught too: `extract_embedding` calling
`tdnn_forward` in `embednet.network`, or `harness` calling a function it
imported. Stage boundaries come from the harness's `echo` callback.

Spans stay in memory. `layer_metrics` turns them into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
import time
import types
from collections import defaultdict

PACKAGE = "deskspeaker"
# The entry point is the invocation itself; wrapping it would cover every
# stage and leave no stage self time.
NOT_TRACED = {("harness", "run_pipeline")}
# The benchmark's own list: metric names are fixed by BENCHMARK.json, not by
# whatever stages a later version of the harness has.
STAGES = ("synth", "features", "train-embed", "train-ubm", "train-tvm",
          "extract", "backend", "score", "report")
_STAGE_LINE = re.compile(r"^\[([a-z-]+)\]( up to date| done in .*)?$")


def _layer(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self):
        # (layer, function, stage) -> [calls, seconds]
        self.calls = defaultdict(lambda: [0, 0.0])
        self.work = defaultdict(float)  # work counters filled by _HOOKS
        self.stage = None
        self.stage_start = 0.0
        self.stage_s = {}
        self.covered_s = defaultdict(float)  # stage -> time in outermost spans
        self.stages_run = 0
        self.stages_skipped = 0
        self._depth = 0

    # -- stage boundaries -------------------------------------------------

    def echo(self, message: str):
        m = _STAGE_LINE.match(message)
        if not m:
            return
        stage, tail = m.group(1), m.group(2)
        now = time.perf_counter()
        if tail is None:
            self.stage, self.stage_start = stage, now
        elif tail == " up to date":
            self.stages_skipped += 1
        else:
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + now - self.stage_start
            self.stages_run += 1
            self.stage = None

    # -- wrapping -----------------------------------------------------------

    def install(self) -> int:
        """Wrap the package's public functions; returns how many."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for name, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)
                        and (_layer(module.__name__), name) not in NOT_TRACED):
                    wrappers[fn] = self._wrap(fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, name, wrappers[value])
        return len(wrappers)

    def _wrap(self, fn):
        layer = _layer(fn.__module__)
        name = fn.__name__
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._depth -= 1
                rec = tracer.calls[(layer, name, tracer.stage)]
                rec[0] += 1
                rec[1] += dt
                if tracer._depth == 0 and tracer.stage is not None:
                    tracer.covered_s[tracer.stage] += dt
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, amount in hook(bound.arguments).items():
                        tracer.work[key] += amount

        return traced

    # -- queries ------------------------------------------------------------

    def total(self, layer, name=None, stage=None, prefix="") -> tuple[int, float]:
        """(calls, seconds) of the matching functions, over all stages or one."""
        calls, secs = 0, 0.0
        for (lay, fn, st), (c, t) in self.calls.items():
            if (lay == layer and name in (None, fn) and fn.startswith(prefix)
                    and stage in (None, st)):
                calls += c
                secs += t
        return calls, secs

    def count(self, layer, name=None, stage=None, prefix="") -> int:
        return self.total(layer, name, stage, prefix)[0]

    def seconds(self, layer, name=None, stage=None, prefix="") -> float:
        return self.total(layer, name, stage, prefix)[1]

    def self_s(self) -> float:
        """Stage time not covered by any outermost traced call."""
        return sum(t - self.covered_s[stage] for stage, t in self.stage_s.items())


# ---------------------------------------------------------------------------
# work counters, read from the arguments of a finished call

def _shape0(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return shape[0] if len(shape) > 1 else 1


def _written(paths):
    files = size = 0
    for p in paths:
        if os.path.isfile(p):
            files += 1
            size += os.path.getsize(p)
    return files, size


def _count_write(args) -> dict:
    target = str(next(iter(args.values())))
    paths = [target] if os.path.isfile(target) else [target + ".afs", target + ".ids"]
    files, size = _written(paths)
    return {"files_written": files, "bytes_written": size}


_HOOKS = {
    "train_embed_network": lambda a: {"chunks": len(a["utterances"]) * a["cfg"].epochs},
    "train_gmm": lambda a: {"gmm_frame_iters": _shape0(a["frames"]) * a["n_iters"]},
    "train_tvm": lambda a: {"tvm_iters": a["n_iters"]},
    "train_plda": lambda a: {"plda_iters": a["n_iters"]},
    "plda_score_matrix": lambda a: {
        "trials_scored": _shape0(a["enroll"]) * _shape0(a["test"])},
    "compute_eer": lambda a: {"trials_evaluated": a["trials"].scores.size},
}
_HOOKS.update((name, _count_write) for name in (
    "write_features", "write_posteriors", "write_frame_weights", "write_gmm",
    "write_stats", "write_tvm", "write_plda", "write_preprocessor",
    "write_named_tensors", "write_vector_set", "write_trial_list", "write_scores"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_utts: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced invocation, keyed as in BENCHMARK.json."""
    m = {f"harness.{s.replace('-', '_')}_s": tr.stage_s.get(s, 0.0) for s in STAGES}
    m["harness.self_s"] = tr.self_s()
    m["harness.stages_run"] = tr.stages_run
    m["harness.stages_skipped"] = tr.stages_skipped

    emb = "embednet"
    m["embednet.train_s"] = tr.seconds(emb, "train_embed_network")
    m["embednet.train_chunks_per_s"] = _ratio(tr.work["chunks"], m["embednet.train_s"])
    m["embednet.chunk_grad_calls"] = tr.count(emb, "chunk_loss_and_grads")
    m["embednet.chunk_grad_us"] = 1e6 * _ratio(tr.seconds(emb, "chunk_loss_and_grads"),
                                               m["embednet.chunk_grad_calls"])
    m["embednet.tdnn_forward_calls"] = tr.count(emb, "tdnn_forward")
    m["embednet.tdnn_forward_s"] = tr.seconds(emb, "tdnn_forward")
    nets_in_extract = tr.count(emb, "load_embed_net", "extract")
    m["embednet.tdnn_forwards_per_utt_net"] = _ratio(
        tr.count(emb, "tdnn_forward", "extract"), n_utts * nets_in_extract)
    m["embednet.extract_embedding_s"] = tr.seconds(emb, "extract_embedding")
    m["embednet.export_attention_s"] = tr.seconds(emb, "export_attention_weights")
    m["embednet.attention_scores_s"] = tr.seconds(emb, "attention_scores")
    m["embednet.pool_weighted_stats_s"] = tr.seconds(emb, "pool_weighted_stats")

    m["ubm.train_gmm_s"] = tr.seconds("ubm", "train_gmm")
    m["ubm.em_frames_per_s"] = _ratio(tr.work["gmm_frame_iters"], m["ubm.train_gmm_s"])
    m["ubm.posterior_calls"] = tr.count("ubm", "gmm_posteriors")
    m["ubm.posteriors_s"] = tr.seconds("ubm", "gmm_posteriors")
    m["ubm.posteriors_per_utt"] = _ratio(tr.count("ubm", "gmm_posteriors", "extract"), n_utts)

    m["ivector.accumulate_stats_calls"] = tr.count("ivector", "accumulate_stats")
    m["ivector.accumulate_stats_s"] = tr.seconds("ivector", "accumulate_stats")
    m["ivector.extract_ivector_calls"] = tr.count("ivector", "extract_ivector")
    m["ivector.extract_ivector_s"] = tr.seconds("ivector", "extract_ivector")
    m["ivector.train_tvm_s"] = tr.seconds("ivector", "train_tvm")
    m["ivector.tvm_iter_s"] = _ratio(m["ivector.train_tvm_s"], tr.work["tvm_iters"])

    m["backend.fit_preprocessor_s"] = tr.seconds("backend", "fit_preprocessor")
    m["backend.train_plda_s"] = tr.seconds("backend", "train_plda")
    m["backend.plda_iter_ms"] = 1e3 * _ratio(m["backend.train_plda_s"], tr.work["plda_iters"])
    m["backend.plda_score_matrix_s"] = tr.seconds("backend", "plda_score_matrix")
    m["backend.trials_per_s"] = _ratio(tr.work["trials_scored"], m["backend.plda_score_matrix_s"])
    m["metrics.s"] = tr.seconds("metrics")
    m["metrics.trials_per_s"] = _ratio(tr.work["trials_evaluated"], m["metrics.s"])

    m["fileio.read_calls"] = tr.count("fileio", prefix="read_")
    m["fileio.read_s"] = tr.seconds("fileio", prefix="read_")
    m["fileio.write_calls"] = tr.count("fileio", prefix="write_")
    m["fileio.write_s"] = tr.seconds("fileio", prefix="write_")
    m["fileio.files_written"] = int(tr.work["files_written"])
    m["fileio.bytes_written"] = int(tr.work["bytes_written"])
    m["fileio.weight_reads_per_utt"] = _ratio(
        tr.count("fileio", "read_frame_weights", "extract"), n_utts)

    m["synth.generate_s"] = tr.seconds("synth", "generate_corpus")
    m["features.soft_vad_s"] = tr.seconds("features", "soft_vad_posteriors")
    m["trace.wall_s"] = wall_s
    return m


def nesting_errors(tr: Tracer) -> list[str]:
    """Spans that do not fit inside their stage: a broken trace."""
    errors = []
    for stage, t in tr.stage_s.items():
        if tr.covered_s[stage] > t + 1e-6:
            errors.append(f"traced calls in {stage} take {tr.covered_s[stage]:.6f}s "
                          f"of a {t:.6f}s stage")
    for (layer, fn, stage), (_, s) in tr.calls.items():
        if stage is not None and s > tr.stage_s.get(stage, 0.0) + 1e-6:
            errors.append(f"{layer}.{fn} takes {s:.6f}s in {stage}, longer than the stage")
    return errors
