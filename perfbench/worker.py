"""One pipeline invocation in a fresh process, as a user of the package runs it.

    python3 perfbench/worker.py '<json spec>'

The spec gives the checkout root, the run directory, the seed, config
overrides, the stages (null for all), whether to trace, and whether to stop
once set up. The last line of standard output is a JSON object: `ready` (the
CLOCK_MONOTONIC time at which set-up ended and the invocation could start),
then, unless set-up only, the invocation's wall and CPU seconds, the peak
resident memory of this process, and with tracing the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _apply(obj, overrides: dict):
    for key, value in overrides.items():
        if isinstance(value, dict):
            _apply(getattr(obj, key), value)
        else:
            setattr(obj, key, tuple(value) if isinstance(value, list) else value)


def main(spec: dict) -> dict:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from deskspeaker.config import default_config
    from deskspeaker.harness import run_pipeline

    cfg = default_config(seed=spec["seed"], out=spec["out"])
    _apply(cfg, spec["overrides"])
    cfg.__post_init__()
    cfg.synth.__post_init__()
    result = {"ready": time.monotonic()}
    if spec["setup_only"]:
        return result

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer, layer_metrics, nesting_errors
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    run_pipeline(cfg, stages=spec["stages"], echo=tracer.echo if tracer else None)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    user, system = after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime
    result.update(wall_s=wall, cpu_s=user + system, user_s=user, sys_s=system,
                  peak_rss_mb=after.ru_maxrss / 1024.0)
    if tracer is not None:
        n_utts = cfg.synth.n_speakers * cfg.synth.utts_per_speaker
        result["layers"] = layer_metrics(tracer, n_utts, wall)
        result["trace_errors"] = nesting_errors(tracer)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
