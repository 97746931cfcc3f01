#!/usr/bin/env python3
"""The repository benchmark: seeded ``drs-experiments`` workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des-repair --seed 3 --seconds 25 --trace 0

Every invocation of the program is a fresh interpreter running
``repro.experiments.runner.main(argv)`` (see ``harness.py``) and waiting for
each plan: a closed loop with one client.  ``--trace 0`` repeats short passes
of the workload for ``--seconds`` with nothing wrapped and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics.  Each run checks the
program's outputs (``checks.py``), prints a readable report, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import compileall
import heapq
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

ROOT = Path.cwd()
RUNS = ROOT / ".perfbench-runs"
DEFAULT_SEED = 1
#: output CSV digests per workload for its recorded seed, taken at the seed
#: commit; committed data, never written by the benchmark
RECORDED_DIGESTS = json.loads((HERE / "digests.json").read_text())
#: passes a measured run makes even when one pass outlasts --seconds / 3
MIN_PASSES = 3
#: seconds the reference unit takes on the quiet development container;
#: gated times are scaled to that host speed (see reference_unit)
REF_S = 0.2
#: a run must end well inside the 180 s every run is allowed
DEADLINE_S = 165.0

#: end-to-end metrics (--trace 0): name -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (--trace 1): name -> unit.  The first five are
#: user-visible but apply to only some workloads (or, for the job times, are
#: too thin to gate on topo-oracle), so they ride here ungated, measured on
#: the untraced pass of the traced run.
PER_LAYER = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "sim_events_per_s": "1/s",
    "mc_trials_per_s": "1/s",
    "mc_trials": "count",
    "simkit.run_s": "s",
    "simkit.runs": "count",
    "simkit.events": "count",
    "simkit.events_per_run_s": "1/s",
    "netsim.build_s": "s",
    "netsim.builds": "count",
    "netsim.inject_s": "s",
    "netsim.frames_sent": "count",
    "netsim.frames_dropped": "count",
    "netsim.bits_carried": "bit",
    "protocols.install_s": "s",
    "protocols.icmp_timeouts": "count",
    "drs.install_s": "s",
    "drs.probes_sent": "count",
    "drs.repairs": "count",
    "drs.failed_repairs": "count",
    "drs.repair_ok_ratio": "ratio",
    "analysis.simulate_grid_s": "s",
    "analysis.simulate_grid_calls": "count",
    "analysis.levels_s": "s",
    "analysis.stratified_grid_s": "s",
    "analysis.topology_grid_s": "s",
    "analysis.enumerate_s": "s",
    "analysis.enumerated_sets": "count",
    "analysis.sets_per_s": "1/s",
    "analysis.bytes_drawn": "B",
    "topology.build_s": "s",
    "engine.executor_run_s": "s",
    "engine.reduce_s": "s",
    "engine.job_s": "s",
    "engine.overhead_s": "s",
    "engine.plan_start_s": "s",
    "engine.checkpoint_s": "s",
    "engine.checkpoint_records": "count",
    "engine.attempts": "count",
    "engine.retries": "count",
    "experiments.write_s": "s",
    "obs.artifacts_s": "s",
    "obs.flight_events": "count",
    "obs.flight_bytes": "B",
    "obs.attributed_frac": "ratio",
    "trace.overhead_s": "s",
}

DES_SPANS = ("simkit.run", "netsim.build", "netsim.inject", "protocols.install", "drs.install")
MC_SPANS = ("analysis.simulate_grid", "analysis.levels", "analysis.stratified_grid")
TOPO_SPANS = ("topology.build", "analysis.topology_grid", "analysis.enumerate")
ENGINE_SPANS = (
    "engine.run_plan",
    "engine.executor_run",
    "engine.checkpoint",
    "experiments.write",
    "obs.manifest_write",
    "obs.metrics_write",
)


#: desval replicates per f in one des-repair pass (the quick profile has 30),
#: so that about ten identical passes fit in a run
DES_REPLICATES = 6


@dataclass(frozen=True)
class Workload:
    """One seeded set of ``drs-experiments`` invocations (one pass)."""

    why: str
    invocations: tuple[tuple[str, ...], ...]
    check: Callable[[list[Path]], list[str]]
    #: traced-run self-check: spans that must fire / must record zero calls
    fires: tuple[str, ...]
    bypassed: tuple[str, ...]
    #: merged into the experiments' quick profiles to size one pass
    profiles: dict[str, dict] = field(default_factory=dict)
    #: compare each pass with a --jobs 1 run of the same seed
    serial_reference: bool = False


def _no_check(out_dirs: list[Path]) -> list[str]:
    return []


WORKLOADS: dict[str, Workload] = {
    "des-repair": Workload(
        why="live-protocol DES replicates (desval, 6 per f): build, warm up, fail exactly f, repair, ping",
        invocations=(("--quick", "desval"),),
        check=checks.check_des_repair,
        fires=DES_SPANS + ENGINE_SPANS,
        bypassed=MC_SPANS + TOPO_SPANS,
        profiles={"desval": {"replicates": DES_REPLICATES}},
    ),
    "mc-grid": Workload(
        why="Equation 1 grid by Monte Carlo: crn and stratified-cv adaptive to +-0.004, full figure3",
        invocations=(
            ("figure2", "--target-ci", "0.004", "--mc-method", "crn"),
            ("figure2", "--target-ci", "0.004", "--mc-method", "stratified-cv"),
            ("figure3",),
        ),
        check=checks.check_mc_grid,
        fires=MC_SPANS + ENGINE_SPANS,
        bypassed=DES_SPANS + TOPO_SPANS,
    ),
    "topo-oracle": Workload(
        why="topology-kernel MC plus the exact-enumeration oracle in reduce(), on khub:hubs=3,nics=2",
        invocations=(("--quick", "topologysweep", "--topology", "khub:hubs=3,nics=2"),),
        check=checks.check_topo_oracle,
        fires=TOPO_SPANS + ENGINE_SPANS,
        bypassed=DES_SPANS,
    ),
    "fanout": Workload(
        why="seven short quick plans on a 2-worker process pool: parallel engine overhead",
        invocations=(
            ("--quick", "--jobs", "2", "figure2", "figure3", "crossovers", "ablations",
             "availability", "wholecluster", "scaling"),
        ),
        check=_no_check,
        fires=ENGINE_SPANS,
        bypassed=(),
        serial_reference=True,
    ),
}


class BenchError(RuntimeError):
    """The program could not be run or measured."""


# ---------------------------------------------------------------- processes
def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, argv: list[str], profiles: dict[str, dict], out_json: Path, log: Path,
          deadline: float):
    """Run ``harness.py`` in a fresh interpreter; returns (t_spawn, t_exit, rusage).

    The child leads its own process group, so a deadline kill also takes its
    pool workers; ``wait4`` returns the rusage of the child and every
    descendant it reaped: CPU time summed over the tree, and as
    ``ru_maxrss`` the largest peak RSS of any single process in it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "harness.py"), mode, str(out_json), json.dumps(profiles),
           "--", *argv]
    with log.open("ab") as log_fh:
        t_spawn = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log_fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # SIGTERM or Ctrl-C: take the child's tree down with us
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    t_exit = time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing the child started outlives it
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{mode} {' '.join(argv)} exited {proc.returncode}:\n{tail}")
    return t_spawn, t_exit, usage


# ------------------------------------------------------------ program output
def read_jsonl(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text().splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:  # torn tail of a flight stream
            continue
    return rows


def read_counters(out_dir: Path) -> dict[str, float]:
    """Unlabelled counters of every ``<name>.metrics.jsonl``, summed."""
    totals: dict[str, float] = {}
    for path in out_dir.glob("*.metrics.jsonl"):
        for row in read_jsonl(path):
            if row.get("kind") == "counter" and not row.get("labels"):
                totals[row["name"]] = totals.get(row["name"], 0.0) + row["value"]
    return totals


@dataclass
class Invocation:
    """One ``drs-experiments`` run and what it wrote."""

    out: Path
    #: process spawn to the first plan announcement: imports, experiment
    #: registry, executor construction
    setup_s: float
    #: first plan announcement to process exit
    wall_s: float
    cpu_s: float
    rss_mb: float
    events: list[dict]
    flight_bytes: int
    manifests: list[dict]
    counters: dict[str, float]
    spans: list[dict] = field(default_factory=list)
    tallies: dict[str, float] = field(default_factory=dict)

    @property
    def job_walls(self) -> list[float]:
        return [e["wall_s"] for e in self.events if e["kind"] == "job.completed"]

    @property
    def jobs(self) -> tuple[int, int]:
        """(jobs attempted, jobs quarantined or timed out) from the manifests."""
        attempted = failed = 0
        for manifest in self.manifests:
            engine = manifest.get("config", {}).get("engine")
            if engine is None:
                attempted += 1
                continue
            attempted += engine["jobs"]
            failed += len(set(engine["quarantined"]) | set(engine["timed_out"]))
        return attempted, failed


def invoke(mode: str, argv: tuple[str, ...], profiles: dict[str, dict], seed: int, out: Path,
           deadline: float) -> Invocation:
    out.mkdir(parents=True)
    spans_path = out.with_suffix(".spans.jsonl")
    full = [*argv, "--seed", str(seed), "--out", str(out)]
    t_spawn, t_exit, usage = spawn(mode, full, profiles, spans_path, out.with_suffix(".log"), deadline)
    flights = sorted(out.glob("*.flight.jsonl"))
    events = sorted((e for p in flights for e in read_jsonl(p)), key=lambda e: e["t"])
    begins = [e["t"] for e in events if e["kind"] == "plan.begin"]
    if not begins:
        raise BenchError(f"{' '.join(argv)} announced no plan in its flight stream")
    inv = Invocation(
        out=out,
        setup_s=begins[0] - t_spawn,
        wall_s=t_exit - begins[0],
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        events=events,
        flight_bytes=sum(p.stat().st_size for p in flights),
        manifests=[json.loads(p.read_text()) for p in sorted(out.glob("*.manifest.json"))],
        counters=read_counters(out),
    )
    if mode == "trace":
        rows = read_jsonl(spans_path)
        inv.spans = [r for r in rows if "span" in r]
        inv.tallies = next((r["tallies"] for r in rows if "tallies" in r), {})
    return inv


@dataclass
class Pass:
    """One execution of every invocation of a workload."""

    invocations: list[Invocation]
    #: reference-unit seconds around the pass: the mean of the units just
    #: before and just after it (0 on traced runs, which take none)
    ref_s: float = 0.0

    @property
    def out_dirs(self) -> list[Path]:
        return [inv.out for inv in self.invocations]

    def total(self, attr: str) -> float:
        return sum(getattr(inv, attr) for inv in self.invocations)

    def counter(self, name: str) -> float:
        return sum(inv.counters.get(name, 0.0) for inv in self.invocations)

    @property
    def wall_s(self) -> float:
        return self.total("wall_s")

    @property
    def jobs(self) -> tuple[int, int]:
        pairs = [inv.jobs for inv in self.invocations]
        return sum(a for a, _ in pairs), sum(f for _, f in pairs)

    @property
    def events(self) -> float:
        return sum(m.get("event_count") or 0 for inv in self.invocations for m in inv.manifests)

    def digests(self) -> dict[str, str]:
        return checks.pass_digests(self.out_dirs)


def run_pass(workload: Workload, mode: str, seed: int, work: Path, deadline: float,
             argv_of: Callable[[tuple[str, ...]], tuple[str, ...]] = lambda a: a) -> Pass:
    work.mkdir(parents=True)
    return Pass([invoke(mode, argv_of(argv), workload.profiles, seed, work / f"inv{i}", deadline)
                 for i, argv in enumerate(workload.invocations)])


def serial_argv(argv: tuple[str, ...]) -> tuple[str, ...]:
    out = list(argv)
    out[out.index("--jobs") + 1] = "1"
    return tuple(out)


# ------------------------------------------------------------------- metrics
def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, n).

    With 10 samples or fewer no percentile qualifies; the maximum (p100) is
    reported instead, and ``n`` says how thin the tail is.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11  # exactly 10 samples lie above xs[k]
    return xs[k], 100.0 * (k + 1) / n, n


def user_metrics(passes: list[Pass]) -> tuple[dict[str, float], dict[str, str]]:
    """User-visible metrics that only some workloads have: values and sample notes.

    Job times come from the runs' own ``job.completed`` flight events;
    throughputs divide the manifests' event counts and the
    ``mc_iterations_total`` counter by ``wall_s``.
    """
    jobs = [w for p in passes for inv in p.invocations for w in inv.job_walls]
    tail, pct, n_jobs = tail_percentile(jobs)
    attempted = sum(p.jobs[0] for p in passes)
    failed = sum(p.jobs[1] for p in passes)
    values = {
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail,
        "sim_events_per_s": statistics.median(p.events / p.wall_s for p in passes),
        "mc_trials_per_s": statistics.median(p.counter("mc_iterations_total") / p.wall_s for p in passes),
        "mc_trials": passes[0].counter("mc_iterations_total"),
        "failed_frac": failed / attempted,
    }
    notes = {
        "job_p50_s": f"n={n_jobs}",
        "job_tail_s": f"n={n_jobs}, p{pct:.1f}",
        "failed_frac": f"{failed}/{attempted} jobs",
    }
    return values, notes


def _reference_work() -> float:
    rng = random.Random(1)
    heap: list[tuple[float, int, list[int]]] = []
    index: dict[int, float] = {}
    t0 = time.perf_counter()
    for i in range(150_000):
        key = rng.random()
        heapq.heappush(heap, (key, i, [i]))
        index[i] = key
        if len(heap) > 80_000:
            _, j, _ = heapq.heappop(heap)
            del index[j]
    return time.perf_counter() - t0


def reference_unit() -> float:
    """Seconds for a fixed job of the benchmark's own, to gauge host speed.

    The shared host slows everything on it for seconds to minutes at a time
    by tens of percent.  A loop that fits in the first-level caches hardly
    notices; this unit is shaped like the DES instead (an event heap of 80k
    entries and a dict index, about 10 MB, churned 150k times), and its time
    follows the passes' own drift.  It runs in a forked child, so this
    process stays small: a child spawned next starts as a copy of it, and
    ``ru_maxrss`` would count that copy.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: time the work, report it, exit
        try:
            os.write(write, repr(_reference_work()).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        seconds = float(fh.read())
    os.waitpid(pid, 0)
    return seconds


def at_reference_speed(seconds: float, p: Pass) -> float:
    """A time measured in pass ``p``, scaled to a host that runs the unit in REF_S."""
    return seconds * REF_S / p.ref_s


def end_to_end(passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    """The gated metrics, plus readable lines (unit, sample count) for every e2e metric."""
    setups = [at_reference_speed(inv.setup_s, p) for p in passes for inv in p.invocations]
    walls = [p.wall_s for p in passes]
    notes = {"wall_s": f"n={len(passes)}; as measured: median {statistics.median(walls):.4g}, "
                       f"best {min(walls):.4g}; reference unit median "
                       f"{statistics.median(p.ref_s for p in passes):.4g} s"}
    values = {
        "wall_s": statistics.median(at_reference_speed(p.wall_s, p) for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(at_reference_speed(p.total("cpu_s"), p) for p in passes),
        "peak_rss_mb": statistics.median(max(i.rss_mb for i in p.invocations) for p in passes),
    }
    extra, user_notes = user_metrics(passes)
    notes.update(user_notes)
    notes["setup_s"] = f"n={len(setups)}"
    units = {**END_TO_END, **PER_LAYER, "failed_frac": "ratio"}
    lines = [f"  {name:18s} {value:14.6g} {units[name]:5s} {notes.get(name, f'n={len(passes)}')}"
             for name, value in values.items()]
    lines.append("  not gated (0 = the workload does not exercise it):")
    lines += [f"  {name:18s} {value:14.6g} {units[name]:5s} {notes.get(name, f'n={len(passes)}')}"
              for name, value in extra.items()]
    return values, lines


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total s, self s); self = span minus its child spans."""
    child_time: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    table: dict[str, tuple[int, float, float]] = {}
    for s in spans:
        calls, total, own = table.get(s["name"], (0, 0.0, 0.0))
        dur = s["end"] - s["start"]
        own += dur - child_time.get((s["run"], s["span"]), 0.0)
        table[s["name"]] = (calls + 1, total + dur, own)
    return table


def per_layer(traced: Pass, untraced: Pass) -> dict[str, float]:
    spans = [s for inv in traced.invocations for s in inv.spans]
    tallies: dict[str, float] = {}
    for inv in traced.invocations:
        for key, value in inv.tallies.items():
            tallies[key] = tallies.get(key, 0.0) + value
    events = [e for inv in traced.invocations for e in inv.events]
    ctr = traced.counter

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name: str) -> int:
        return sum(s["name"] == name for s in spans)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    job_s = sum(e["wall_s"] for e in events if e["kind"] == "job.completed")
    plan_start = overhead = 0.0
    for span in (s for s in spans if s["name"] == "engine.executor_run"):
        inside = [e for e in events if span["start"] <= e["t"] <= span["end"]]
        attempts = [e["t"] for e in inside if e["kind"] == "job.attempt"]
        workers = next((e["workers"] for e in inside if e["kind"] == "plan.begin"), 1)
        if attempts:
            plan_start += min(attempts) - span["start"]
        overhead += workers * (span["end"] - span["start"])
    overhead -= job_s
    repairs, failed_repairs = ctr("drs_repairs_total"), ctr("drs_failed_repairs_total")
    sets, enumerate_s = tallies.get("analysis.enumerated_sets", 0.0), busy("analysis.enumerate")
    user, _ = user_metrics([untraced])
    values = {name: user[name] for name in ("job_p50_s", "job_tail_s", "sim_events_per_s",
                                            "mc_trials_per_s", "mc_trials")}
    values.update({
        "simkit.run_s": busy("simkit.run"),
        "simkit.runs": calls("simkit.run"),
        "simkit.events": ctr("sim_events_total"),
        "simkit.events_per_run_s": ratio(ctr("sim_events_total"), busy("simkit.run")),
        "netsim.build_s": busy("netsim.build"),
        "netsim.builds": calls("netsim.build"),
        "netsim.inject_s": busy("netsim.inject"),
        "netsim.frames_sent": ctr("net_frames_sent_total"),
        "netsim.frames_dropped": ctr("net_frames_dropped_total"),
        "netsim.bits_carried": ctr("net_bits_carried_total"),
        "protocols.install_s": busy("protocols.install"),
        "protocols.icmp_timeouts": ctr("icmp_timeouts_total"),
        "drs.install_s": busy("drs.install"),
        "drs.probes_sent": ctr("drs_probes_sent_total"),
        "drs.repairs": repairs,
        "drs.failed_repairs": failed_repairs,
        "drs.repair_ok_ratio": ratio(repairs, repairs + failed_repairs),
        "analysis.simulate_grid_s": busy("analysis.simulate_grid"),
        "analysis.simulate_grid_calls": calls("analysis.simulate_grid"),
        "analysis.levels_s": busy("analysis.levels"),
        "analysis.stratified_grid_s": busy("analysis.stratified_grid"),
        "analysis.topology_grid_s": busy("analysis.topology_grid"),
        "analysis.enumerate_s": enumerate_s,
        "analysis.enumerated_sets": sets,
        "analysis.sets_per_s": ratio(sets, enumerate_s),
        "analysis.bytes_drawn": tallies.get("analysis.bytes_drawn", 0.0),
        "topology.build_s": busy("topology.build"),
        "engine.executor_run_s": busy("engine.executor_run"),
        "engine.reduce_s": busy("engine.run_plan") - busy("engine.executor_run"),
        "engine.job_s": job_s,
        "engine.overhead_s": overhead,
        "engine.plan_start_s": plan_start,
        "engine.checkpoint_s": busy("engine.checkpoint"),
        "engine.checkpoint_records": calls("engine.checkpoint"),
        "engine.attempts": ctr("engine_job_attempts_total"),
        "engine.retries": ctr("engine_job_retries_total"),
        "experiments.write_s": busy("experiments.write"),
        "obs.artifacts_s": busy("obs.manifest_write") + busy("obs.metrics_write"),
        "obs.flight_events": len(events),
        "obs.flight_bytes": traced.total("flight_bytes"),
        "obs.attributed_frac": ratio(job_s, traced.wall_s),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    })
    return values


def self_check(workload: Workload, spans: list[dict]) -> list[str]:
    """Wrappers the prediction table says fire must fire; bypassed ones must not."""
    seen = {s["name"] for s in spans}
    errors = [f"traced span {n} never fired (renamed or moved in src/?)" for n in workload.fires if n not in seen]
    errors += [f"traced span {n} fired on a workload that should bypass it" for n in workload.bypassed if n in seen]
    return errors


# --------------------------------------------------------------------- host
def cpu_ticks() -> list[int]:
    """Aggregate /proc/stat CPU counters (user ... steal), or [] when absent."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    except (OSError, ValueError, IndexError):
        return []


def host_record(started: float, ticks0: list[int]) -> dict[str, float]:
    """Diagnostic only: how busy and how stolen-from the host was during the run."""
    ticks1 = cpu_ticks()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "wall_s": time.monotonic() - started,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
    }
    if len(ticks0) > 7 and len(ticks1) > 7:
        delta = [b - a for a, b in zip(ticks0, ticks1)]
        record["steal_s"] = delta[7] / os.sysconf("SC_CLK_TCK")
        record["steal_frac"] = delta[7] / sum(delta) if sum(delta) else 0.0
    return record


# ---------------------------------------------------------------------- main
def verify(workload: Workload, name: str, passes: list[Pass], seed: int,
           reference: Pass | None) -> list[str]:
    """Every correctness check that applies to these passes."""
    errors: list[str] = []
    if len({p.counter("mc_iterations_total") for p in passes}) > 1:
        errors.append("mc_trials differs between passes of one seed")
    first = passes[0].digests()
    for i, p in enumerate(passes):
        errors += workload.check(p.out_dirs)
        errors += checks.compare_digests(p.digests(), first, f"pass {i} vs pass 0 (same seed)")
    if reference is not None:
        errors += checks.compare_digests(first, reference.digests(), "parallel vs --jobs 1")
    recorded = RECORDED_DIGESTS[name]
    if seed == recorded["seed"]:
        errors += checks.compare_digests(first, recorded["csv"], f"seed {seed} vs recorded digests")
    return errors


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            deadline: float) -> tuple[bool, int, int, dict[str, float], list[str]]:
    """Run the workload; (correct, attempted, failed, metrics, report lines)."""
    workload = WORKLOADS[name]
    lines: list[str] = []
    reference = None
    if trace:
        untraced = run_pass(workload, "run", seed, work / "untraced", deadline)
        traced = run_pass(workload, "trace", seed, work / "traced", deadline)
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced)
        spans = [s for inv in traced.invocations for s in inv.spans]
        errors = self_check(workload, spans)
        lines.append(f"  traced wall {traced.wall_s:.4f} s vs untraced {untraced.wall_s:.4f} s: "
                     f"overhead {metrics['trace.overhead_s']:+.4f} s")
        lines.append(f"  {'span':26s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for span, (n, total, own) in sorted(self_times(spans).items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {span:26s} {n:8d} {total:10.4f} {own:10.4f}")
        lines += [f"  {k:28s} {v:14.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
        (RUNS / f"{name}-seed{seed}.spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans))
    else:
        started = time.monotonic()
        if workload.serial_reference:  # inside --seconds, before the timed passes
            reference = run_pass(workload, "run", seed, work / "serial", deadline, serial_argv)
        # Identical passes, each between two reference units, until the
        # next one would end past --seconds.
        passes: list[Pass] = []
        refs = [reference_unit()]
        first = time.monotonic()
        while True:
            passes.append(run_pass(workload, "run", seed, work / f"pass{len(passes)}", deadline))
            refs.append(reference_unit())
            passes[-1].ref_s = (refs[-2] + refs[-1]) / 2
            now = time.monotonic()
            if len(passes) >= MIN_PASSES and now + (now - first) / len(passes) - started > seconds:
                break
        metrics, lines = end_to_end(passes)
        errors = []
    errors += verify(workload, name, passes, seed, reference)
    attempted = sum(p.jobs[0] for p in passes)
    failed = attempted if errors else sum(p.jobs[1] for p in passes)
    lines.append(f"  passes={len(passes)} jobs={attempted} checks: "
                 + ("ok" if not errors else f"{len(errors)} FAILED"))
    lines += [f"  ! {e}" for e in errors[:40]]
    return not errors, attempted, failed, metrics, lines


def _terminate(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    started, ticks0 = time.monotonic(), cpu_ticks()
    deadline = started + DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src"), quiet=2)  # users run from compiled bytecode
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        correct, attempted, failed, metrics, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host = host_record(started, ticks0)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(lines))
    print("host: " + json.dumps(host))
    with (RUNS / "history.jsonl").open("a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "correct": correct, "metrics": metrics, "host": host}) + "\n")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
