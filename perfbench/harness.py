"""Child-process side of the benchmark: one fresh interpreter per invocation.

Usage (from the root of a checkout, with ``src`` importable)::

    python3 perfbench/harness.py run   OUT_JSON PROFILES -- <drs-experiments argv>
    python3 perfbench/harness.py trace OUT_JSON PROFILES -- <drs-experiments argv>

``PROFILES`` is a JSON object ``{experiment: {parameter: value}}`` merged
into the experiments' ``quick`` profiles before the run (``{}`` for none),
so a workload can size a pass without a change to the program.  ``run``
then calls ``repro.experiments.runner.main(argv)`` untouched.  ``trace``
wraps the public entry points of every layer (see :data:`TARGETS`) from
outside, records one span per call, and writes the spans to ``OUT_JSON``
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from math import comb
from pathlib import Path

#: span name -> "module:attribute" of the layer entry point it times.  A
#: function is replaced in every loaded ``repro`` module that bound it by
#: name, so ``from x import f`` callers resolve the wrapper too; a method is
#: replaced on its class.
TARGETS: dict[str, tuple[str, ...]] = {
    "simkit.run": ("repro.simkit.simulator:Simulator.run",),
    "netsim.build": ("repro.netsim.topology:build_dual_backplane_cluster",),
    "netsim.inject": ("repro.netsim.faults:FaultInjector.apply_exact_failures",),
    "protocols.install": ("repro.protocols.stack:install_stacks",),
    "drs.install": ("repro.drs.daemon:install_drs",),
    "analysis.simulate_grid": ("repro.analysis.montecarlo:simulate_grid",),
    "analysis.levels": ("repro.analysis.montecarlo:connectivity_levels",),
    "analysis.stratified_grid": ("repro.analysis.variance:stratified_grid",),
    "analysis.topology_grid": ("repro.analysis.topokernel:simulate_topology_grid",),
    "analysis.enumerate": ("repro.analysis.topokernel:enumerate_topology_success",),
    "topology.build": ("repro.topology.builders:build_topology",),
    "engine.run_plan": ("repro.engine:run_plan",),
    "engine.executor_run": (
        "repro.engine.executors:SerialExecutor.run",
        "repro.engine.executors:ParallelExecutor.run",
    ),
    "engine.checkpoint": ("repro.engine.checkpoint:Checkpoint.record",),
    "experiments.write": ("repro.experiments.base:ExperimentResult.write",),
    "obs.manifest_write": ("repro.obs.artifacts:RunManifest.write",),
    "obs.metrics_write": ("repro.obs.artifacts:write_metrics_files",),
}


def _sets_enumerated(args: tuple, kwargs: dict, result: object) -> dict[str, float]:
    """``enumerate_topology_success(topology, f, ...)`` visited C(width, f) sets."""
    topology = args[0] if args else kwargs["topology"]
    f = args[1] if len(args) > 1 else kwargs["f"]
    return {"analysis.enumerated_sets": comb(topology.width, f)}


def _bytes_drawn(args: tuple, kwargs: dict, result: object) -> dict[str, float]:
    """``connectivity_levels(keys, ...)``: trials x width x 8, computed from the shape."""
    keys = args[0] if args else kwargs["component_keys"]
    rows, width = keys.shape
    return {"analysis.bytes_drawn": rows * width * 8}


#: span name -> tally computed from a call's arguments when it returns
TALLIES = {"analysis.enumerate": _sets_enumerated, "analysis.levels": _bytes_drawn}


class Tracer:
    """In-memory span log: (span id, parent span id, name, start, end)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.tallies: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # forked pool workers inherit the wrapper but not the log
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.time()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans.append((span_id, parent, name, start, time.time()))
            if tally is not None:
                for key, value in tally(args, kwargs, result).items():
                    self.tallies[key] = self.tallies.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``repro`` module that binds it."""
        importlib.import_module("repro.experiments.runner")  # loads every experiment
        for name, targets in TARGETS.items():
            for target in targets:
                module_name, _, attr = target.partition(":")
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self.wrap(name, original)
                if path:  # a method: the class is the one namespace callers use
                    setattr(owner, leaf, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)

    def dump(self, path: Path) -> None:
        lines = [
            json.dumps({"run": self.run_id, "span": s, "parent": p, "name": n, "start": a, "end": b})
            for s, p, n, a, b in self.spans
        ]
        lines.append(json.dumps({"run": self.run_id, "tallies": self.tallies}))
        path.write_text("\n".join(lines) + "\n")


def set_quick_profiles(overrides: dict[str, dict]) -> None:
    """Merge ``overrides`` into the registered experiments' ``quick`` profiles."""
    from repro.engine import experiment_specs

    specs = {spec.name: spec for spec in experiment_specs()}
    for name, params in overrides.items():
        specs[name].profiles["quick"].update(params)


def main(argv: list[str]) -> int:
    mode, out, profiles, sep, *runner_argv = argv
    if mode not in ("run", "trace") or sep != "--":
        raise SystemExit(f"usage: harness.py run|trace OUT_JSON PROFILES -- ARGV (got {argv[:4]})")
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.experiments.runner import main as drs_experiments

    set_quick_profiles(json.loads(profiles))
    tracer = None
    if mode == "trace":
        tracer = Tracer(run_id=Path(out).stem)
        tracer.install()
    code = drs_experiments(runner_argv)
    if tracer is not None:
        tracer.dump(Path(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
