"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from repro.engine import ExperimentSpec, Job, JobPlan, register, run_plan  # noqa: E402
from repro.experiments.base import ExperimentResult  # noqa: E402
from repro.experiments.runner import main as drs_experiments  # noqa: E402

TINY_TOPOLOGY = ("--quick", "topologysweep", "--topology", "fattree2")


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_recorded_digests_key_each_invocation_of_the_default_seed():
    for name, workload in run.WORKLOADS.items():
        recorded = run.RECORDED_DIGESTS[name]
        assert recorded["seed"] == run.DEFAULT_SEED
        invocations = {int(key.partition("/")[0]) for key in recorded["csv"]}
        assert invocations == set(range(len(workload.invocations))), name


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90.0, 100)
    value, pct, n = run.tail_percentile([float(x) for x in range(15)])
    assert (value, n) == (4.0, 15) and round(pct, 2) == 33.33
    assert sum(x > value for x in range(15)) == 10
    # too few samples for any percentile to qualify: the maximum, flagged p100
    assert run.tail_percentile([0.3, 0.1, 0.2]) == (0.3, 100.0, 3)


def test_corrupted_topology_csv_fails_the_check(tmp_path):
    assert drs_experiments([*TINY_TOPOLOGY, "--seed", "3", "--out", str(tmp_path)]) == 0
    assert checks.check_topo_oracle([tmp_path]) == []
    path = tmp_path / "topologysweep_exact_check.csv"
    rows = checks.read_rows(path)
    victim = next(r for r in rows if 0.2 < float(r["exact"]) < 0.8)
    victim["montecarlo"] = str(float(victim["exact"]) + 0.15)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    errors = checks.check_topo_oracle([tmp_path])
    assert len(errors) == 1 and f"size={victim['size']} f={victim['f']}" in errors[0]


def _write_csv(path: Path, header: str, *rows: str) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def test_des_and_mc_checks_flag_biased_cells(tmp_path):
    header = "N,f,replicates,DES measured,Equation 1,difference,2-sigma binomial"
    _write_csv(tmp_path / "desvalidation_validation.csv", header, "8,2,30,0.9666666666666667,,,")
    assert checks.check_des_repair([tmp_path]) == []
    _write_csv(tmp_path / "desvalidation_validation.csv", header, "8,2,30,0.3,,,")
    assert len(checks.check_des_repair([tmp_path])) == 1

    header = "n,f,p,ci_low,ci_high,trials,half_width,met_target,method"
    good = "3,2,0.7505,0,0,320000,0.0015,True,wilson"
    _write_csv(tmp_path / "figure2_mc_precision.csv", header, good, "4,3,0.6166666666666667,0,0,2000,0.0004,True,stratified-cv")
    assert checks._check_precision_csv(tmp_path / "figure2_mc_precision.csv") == []
    _write_csv(tmp_path / "figure2_mc_precision.csv", header, good, "4,3,0.63,0,0,2000,0.0004,True,stratified-cv")
    assert len(checks._check_precision_csv(tmp_path / "figure2_mc_precision.csv")) == 1


def test_digest_comparison_names_the_differing_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "x.csv").write_text("1\n")
        (d / "y.csv").write_text("2\n")
    assert checks.compare_digests(checks.pass_digests([a]), checks.pass_digests([b]), "t") == []
    (b / "y.csv").write_text("3\n")
    assert checks.compare_digests(checks.pass_digests([a]), checks.pass_digests([b]), "t") == [
        "t: CSVs differ: 0/y.csv"
    ]


def _ok(params, seed_seq):
    return 1


def _boom(params, seed_seq):
    raise RuntimeError("injected failure")


def _failing_experiment(seed: int = 5, executor=None, checkpoint=None) -> ExperimentResult:
    jobs = [Job(name=f"j{i}", fn=_boom if i == 2 else _ok, params={}) for i in range(4)]

    def reduce(values):
        result = ExperimentResult("perfbench_failing")
        result.add_table("values", ["job", "value"], sorted(values.items()))
        return result

    return run_plan(JobPlan(experiment="perfbench-failing", seed=seed, jobs=jobs, reduce=reduce),
                    executor, checkpoint=checkpoint)


def test_failed_frac_counts_a_quarantined_job(tmp_path):
    register(ExperimentSpec(name="perfbench-failing", run=_failing_experiment,
                            profiles={"quick": {}, "full": {}}, parallel=True))
    assert drs_experiments(["perfbench-failing", "--quick", "--retries", "0", "--out", str(tmp_path)]) == 0
    manifests = [json.loads(p.read_text()) for p in tmp_path.glob("*.manifest.json")]
    inv = run.Invocation(out=tmp_path, setup_s=0, wall_s=1, cpu_s=0, rss_mb=0, events=[],
                         flight_bytes=0, manifests=manifests, counters={})
    assert inv.jobs == (4, 1)


def test_traced_harness_fires_the_topology_spans(tmp_path):
    out, spans = tmp_path / "out", tmp_path / "spans.jsonl"
    subprocess.run(
        [sys.executable, str(HERE / "harness.py"), "trace", str(spans), "{}", "--", *TINY_TOPOLOGY,
         "--out", str(out)],
        cwd=ROOT, check=True, capture_output=True,
    )
    rows = run.read_jsonl(spans)
    recorded = [r for r in rows if "span" in r]
    assert run.self_check(run.WORKLOADS["topo-oracle"], recorded) == []
    assert rows[-1]["tallies"]["analysis.enumerated_sets"] > 0
    table = run.self_times(recorded)
    calls, total, own = table["engine.run_plan"]
    assert calls == 1 and 0 <= own <= total


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""



def _inv(wall_s: float, setup_s: float) -> run.Invocation:
    job = {"kind": "job.completed", "wall_s": wall_s, "t": 0.0}
    manifest = {"config": {"engine": {"jobs": 1, "quarantined": [], "timed_out": []}}}
    return run.Invocation(out=Path("."), setup_s=setup_s, wall_s=wall_s, cpu_s=wall_s + setup_s,
                          rss_mb=1, events=[job], flight_bytes=0, manifests=[manifest], counters={})


def test_gated_times_are_scaled_to_the_reference_speed():
    # the second pass ran on a host half as fast: same work, so the same scaled time
    passes = [run.Pass([_inv(2.0, 0.3)], ref_s=run.REF_S), run.Pass([_inv(4.0, 0.6)], ref_s=2 * run.REF_S)]
    values, lines = run.end_to_end(passes)
    assert values["wall_s"] == 2.0 and values["setup_s"] == 0.3 and values["cpu_s"] == 2.3
    assert any("as measured: median 3" in line for line in lines)

