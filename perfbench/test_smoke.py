"""Smoke test of the benchmark: every workload's code path, the output checks,
the traced run and the compare command, on a toy corpus, in about half a
minute. Run with `python3 -m pytest perfbench/test_smoke.py`."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

E2E = [m["name"] for m in run.SPEC["end_to_end"]]
LAYERS = [m["name"] for m in run.SPEC["per_layer"]]
COUNTS = [m["name"] for m in run.SPEC["per_layer"] if m["unit"] in ("count", "calls/utt")]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    runs_dir = tmp_path_factory.mktemp("runs")
    out = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            out[workload, trace] = run.run(workload, 5, 0.0, trace, toy=True, runs_dir=runs_dir)
    out["desk-rescore", "again"] = run.run("desk-rescore", 5, 0.0, True, toy=True,
                                           runs_dir=runs_dir)
    return out


def test_spec_matches_the_runner():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.SPEC["paths"]) == {HERE.name}
    assert "setup_s" in E2E


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_run_is_correct_and_reports_every_metric(records, workload, trace):
    record = records[workload, trace]
    result = record["result"]
    assert record["check_failures"] == []
    assert result["correct"] and result["failed"] == 0
    n_variants = len(run.variants_of(run.workload_overrides(workload, True)))
    assert result["attempted"] == len(record["invocations"]) * (1 + n_variants)
    assert list(result["metrics"]) == (LAYERS if trace else E2E)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly(records):
    first = records["desk-rescore", True]["result"]["metrics"]
    second = records["desk-rescore", "again"]["result"]["metrics"]
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


def test_trace_sees_what_each_workload_runs(records):
    rescore = {k: m["value"] for k, m in records["desk-rescore", True]["result"]["metrics"].items()}
    assert (rescore["harness.stages_run"], rescore["harness.stages_skipped"]) == (4, 5)
    assert rescore["embednet.chunk_grad_calls"] == 0 and rescore["ubm.train_gmm_s"] == 0
    assert rescore["embednet.tdnn_forward_calls"] > 0 and rescore["fileio.read_calls"] > 0
    ivec = records["ivector-large", True]["result"]["metrics"]
    assert all(m["value"] == 0 for k, m in ivec.items() if k.startswith("embednet."))
    assert ivec["ubm.em_frames_per_s"]["value"] > 0
    cold = {k: m["value"] for k, m in records["desk-cold", True]["result"]["metrics"].items()}
    toy = run.TOY
    train_utts = round(0.7 * toy["synth"]["n_speakers"]) * toy["synth"]["utts_per_speaker"]
    chunks = cold["embednet.train_chunks_per_s"] * cold["embednet.train_s"]
    assert chunks == pytest.approx(2 * toy["embednet"]["epochs"] * train_utts)
    assert cold["harness.self_s"] >= 0 and cold["trace.wall_s"] > 0


def test_reports_are_identical_across_runs_of_one_seed(records):
    for workload in run.WORKLOADS:
        hashes = {records[workload, t]["report_sha256"] for t in (False, True)}
        assert len(hashes) == 1 and None not in hashes


def test_compare_prints_a_verdict_per_metric(records, tmp_path, capsys):
    for side in ("parent", "change"):
        for record in records.values():
            run.save_record(record, tmp_path / side)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    out = capsys.readouterr().out
    for workload in run.WORKLOADS:
        assert f"== {workload}: " in out
    assert out.count("no worse") == len(run.WORKLOADS) * len(E2E)
    assert "tracing overhead" in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("runs", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "desk-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
