"""The deskspeaker benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The load is closed loop with one client:
one pipeline invocation at a time, each in a fresh worker process with BLAS
pinned to one thread, repeated until the invocations have taken `--seconds`
seconds (at least one). Every run then checks the outputs against the
independent computations of `checks.py`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced invocation with `--trace 1`. Each run also
writes a record (every invocation, the check deviations, the report hash, the
commit and the `src/` line count) under `perfbench/results/<workload>/`;
`compare.py` reads those records.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)  # before numpy is imported, here and in every worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

ALL_SYSTEMS = ("S1", "S2", "S3", "S4", "S5", "S6")
TRAINED = ["synth", "features", "train-embed", "train-ubm", "train-tvm"]
SETUP_SAMPLES = 3      # set-up is timed at least this often per run
RUN_DEADLINE_S = 170   # a run stops starting invocations past this
WORKER_TIMEOUT_S = 175

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk-cold": {"overrides": {}, "prebuilt": False},
    # Extract -> report on a directory trained in set-up. Two epochs, not
    # 25, keep set-up at about 11 s instead of 47 s, so that 22 runs of each
    # workload fit the time budget; the work from extract on does not depend
    # on how long the nets were trained.
    "desk-rescore": {"overrides": {"embednet": {"epochs": 2}}, "prebuilt": True},
    "ivector-large": {"overrides": {"systems": ["S5"], "synth": {"n_speakers": 200}},
                      "prebuilt": False},
}

# The toy scale of the smoke test: every code path, in seconds.
TOY = {
    "synth": {"n_speakers": 20, "utts_per_speaker": 8, "frames_per_utt": 120,
              "enroll_utts_per_speaker": 2},
    "embednet": {"hidden_dim": 16, "pool_dim": 16, "embed_dim": 8, "attention_dim": 4,
                 "epochs": 2, "chunk_len": 40, "batch_size": 4},
    "ubm": {"n_components": 4, "n_iters": 3},
    "tvm": {"rank": 4, "n_iters": 2},
    "backend": {"plda_dim_embed": 4, "plda_dim_ivector": 4, "n_iters": 3},
}
# Its 432 trials per variant put the worst variant's EER anywhere in
# 0.12-0.25 (seeds 1-5), so the toy asks only that every EER is well below
# chance.
TOY_MAX_EER = 0.4


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def workload_overrides(name: str, toy: bool) -> dict:
    overrides = WORKLOADS[name]["overrides"]
    return _merge(overrides, TOY) if toy else overrides


def variants_of(overrides: dict) -> list[str]:
    systems = overrides.get("systems", ALL_SYSTEMS)
    return [f"{s}-{v}" for s in systems for v in ("novad", "vad")]


class InvocationFailed(Exception):
    pass


def _worker(spec: dict, deadline: float) -> dict:
    """Run worker.py to its end and return its result line."""
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise InvocationFailed(f"worker timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise InvocationFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(run: Path, variants: list[str]) -> str:
    """Hash of the report and every score file of one invocation."""
    h = hashlib.sha256()
    for rel in ["report/report.kv"] + [f"scores/{v}.txt" for v in variants]:
        h.update((run / rel).read_bytes())
    return h.hexdigest()


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        runs_dir: Path | None = None) -> dict:
    """One benchmark run. Returns the full record; `record["result"]` is the
    line the benchmark prints."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    overrides = workload_overrides(workload, toy)
    variants = variants_of(overrides)
    ops_per_invocation = 1 + len(variants)
    base = (runs_dir or HERE / "runs") / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    def spec(out: Path, **kw) -> dict:
        return {"root": str(ROOT), "out": str(out), "seed": seed, "overrides": overrides,
                "stages": None, "trace": False, "setup_only": False, **kw}

    def prepare(out: Path) -> float:
        """Set-up before one invocation: an empty or a trained run directory."""
        t0 = time.monotonic()
        if WORKLOADS[workload]["prebuilt"]:
            shutil.copytree(base / "trained", out)
        else:
            out.mkdir()
        return t0

    serial = itertools.count()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "toy": toy, "commit": _commit(), "src_lines": _src_lines(),
              "nproc": os.cpu_count(), "blas_threads": PIN}
    attempted = failed = 0
    try:
        build_s = 0.0
        if WORKLOADS[workload]["prebuilt"]:
            t0 = time.monotonic()
            _worker(spec(base / "trained", stages=TRAINED), deadline)
            build_s = time.monotonic() - t0
        setups = []
        invocations = []
        measured = 0.0
        while not invocations or measured < seconds:
            out = base / f"inv{next(serial)}"
            t0 = prepare(out)
            attempted += ops_per_invocation
            try:
                res = _worker(spec(out, trace=trace), deadline)
            except InvocationFailed as exc:
                failed += ops_per_invocation
                record["error"] = str(exc)
                break
            setups.append(res["ready"] - t0)
            res["dir"] = out
            invocations.append(res)
            measured += res["wall_s"]
            if time.monotonic() > deadline:
                break
        while invocations and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            out = base / f"setup{next(serial)}"
            t0 = prepare(out)
            setups.append(_worker(spec(out, setup_only=True), deadline)["ready"] - t0)
            shutil.rmtree(out)
        if not invocations:
            raise InvocationFailed(record.get("error", "no invocation ran"))

        # outputs: full checks on the first invocation, byte identity across all
        failures, worst = [], {}
        missing = [v for v in variants
                   if not (invocations[0]["dir"] / "scores" / f"{v}.txt").exists()]
        failed += len(missing)
        present = [v for v in variants if v not in missing]
        try:
            failures, worst = checks.check_run(invocations[0]["dir"], present, seed,
                                               TOY_MAX_EER if toy else checks.MAX_EER)
            record["report"] = checks.read_report(invocations[0]["dir"] / "report" / "report.kv")
            digests = {_digest(inv["dir"], present) for inv in invocations}
        except Exception as exc:  # a malformed output is a wrong output
            failures.append(f"checks could not read the outputs: {exc!r}")
            digests = set()
        if len(digests) > 1:
            failures.append(f"{len(invocations)} invocations gave {len(digests)} "
                            "different reports")
        for inv in invocations:
            failures += inv.get("trace_errors", [])
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if trace:
        layers = [inv["layers"] for inv in invocations]
        metrics = {k: {"value": statistics.median(m[k] for m in layers), "unit": UNITS[k]}
                   for k in layers[0]}
    else:
        med = {k: statistics.median(inv[k] for inv in invocations)
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        med["setup_s"] = build_s + statistics.median(setups)
        metrics = {k: {"value": med[k], "unit": UNITS[k]}
                   for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    for inv in invocations:
        inv.pop("dir")
    record.update(
        build_s=build_s, setup_samples=setups, invocations=invocations,
        report_sha256=sorted(digests)[0] if len(digests) == 1 else None,
        check_failures=failures, check_worst=worst, run_s=time.monotonic() - started,
        result={"correct": not failures, "attempted": attempted, "failed": failed,
                "metrics": metrics})
    return record


def save_record(record: dict, results: Path) -> Path:
    out = results / record["workload"]
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"seed{record['seed']}-trace{int(record['trace'])}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=HERE / "results",
                   help="directory for the run record (default: perfbench/results)")
    args = p.parse_args(argv)
    # A terminated run still stops its worker: subprocess.run kills the child
    # on any exception, SystemExit included.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "deskspeaker" / "__init__.py").is_file():
        print(f"run.py: no deskspeaker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except InvocationFailed as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    for line in record["check_failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    save_record(record, args.results)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
