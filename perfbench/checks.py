"""Correctness checks on a workload's output CSVs.

Each check returns a list of error strings (empty = correct).  The
statistical checks compare estimates with Equation 1 or the exact oracle
under a family-wise bound: over every cell a check looks at, a correct
program fails with probability at most :data:`ALPHA`, so hundreds of cells
over dozens of runs still essentially never fail by chance, while a real
bias of a few standard errors does.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

#: family-wise false-alarm probability of one check on one run
ALPHA = 1e-6
#: union bound over the stopping looks of an adaptive (--target-ci) run:
#: the doubling schedule looks at each cell fewer times than this
ADAPTIVE_LOOKS = 64
#: confidence of the intervals ``drs-experiments --target-ci`` writes (its default)
CI_CONFIDENCE = 0.95


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV an invocation wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def pass_digests(out_dirs: list[Path]) -> dict[str, str]:
    """Digests of every invocation of one pass, keyed ``<invocation>/<file>``."""
    return {
        f"{i}/{name}": digest
        for i, out in enumerate(out_dirs)
        for name, digest in csv_digests(out).items()
    }


def _kl(q: float, p: float) -> float:
    """Bernoulli KL divergence KL(q || p), with 0 log 0 = 0."""

    def term(a: float, b: float) -> float:
        if a == 0.0:
            return 0.0
        return math.inf if b == 0.0 else a * math.log(a / b)

    return term(q, p) + term(1.0 - q, 1.0 - p)


def binomial_outlier(estimate: float, p: float, trials: int, cells: int, looks: int = 1) -> bool:
    """Chernoff bound: is ``estimate`` from ``trials`` Bernoulli(p) draws implausible?

    ``P(|p_hat - p| >= |q - p|) <= 2 exp(-n KL(q || p))``; with a union bound
    over ``cells`` x ``looks`` the family-wise false-alarm rate stays <= ALPHA.
    """
    if not math.isfinite(estimate):
        return True
    return trials * _kl(min(max(estimate, 0.0), 1.0), p) > math.log(2 * cells * looks / ALPHA)


def binomial_two_sided(k: int, n: int, p: float) -> float:
    """Exact two-sided binomial tail probability of ``k`` successes in ``n``."""
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    return min(1.0, 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))


def check_des_repair(out_dirs: list[Path]) -> list[str]:
    """Live-protocol success per (N, f) agrees with Equation 1 (exact binomial)."""
    from repro.analysis import success_probability

    rows = read_rows(out_dirs[0] / "desvalidation_validation.csv")
    if not rows:
        return ["desval wrote no validation rows"]
    errors = []
    for row in rows:
        n, f, reps = int(row["N"]), int(row["f"]), int(row["replicates"])
        measured = float(row["DES measured"])
        if not math.isfinite(measured):
            errors.append(f"desval N={n} f={f}: no completed replicates")
            continue
        k = round(measured * reps)
        tail = binomial_two_sided(k, reps, success_probability(n, f))
        if tail < ALPHA / len(rows):
            errors.append(f"desval N={n} f={f}: {k}/{reps} vs Equation 1 (tail {tail:.2e})")
    return errors


def _check_precision_csv(path: Path) -> list[str]:
    """Every adaptive figure2 cell within a family-wise bound of Equation 1."""
    from repro.analysis import success_probability

    rows = read_rows(path)
    if not rows:
        return [f"{path.name} has no rows"]
    z_ci = NormalDist().inv_cdf(0.5 + CI_CONFIDENCE / 2)
    z_fw = NormalDist().inv_cdf(1 - ALPHA / (2 * len(rows)))
    errors = []
    for row in rows:
        n, f, est = int(row["n"]), int(row["f"]), float(row["p"])
        p = success_probability(n, f)
        if row["method"] == "wilson":  # crude CRN cells: binomial counts
            bad = binomial_outlier(est, p, int(row["trials"]), len(rows), ADAPTIVE_LOOKS)
        else:  # stratified estimators: normal bound from the reported interval
            se = float(row["half_width"]) / z_ci
            bad = not abs(est - p) <= z_fw * se + 1e-9
        if bad:
            errors.append(f"{path.name} N={n} f={f}: {est} vs Equation 1 {p} ({row['method']})")
    return errors


def _check_mad_csv(path: Path) -> list[str]:
    """figure3: each MAD stays below Hoeffding's family-wise deviation bound."""
    rows = read_rows(path)
    if not rows:
        return [f"{path.name} has no rows"]
    cells = sum(len(r) - 1 for r in rows) * 64  # x 64: at most 64 N values per MAD
    errors = []
    for row in rows:
        iterations = float(row["x"])
        limit = math.sqrt(math.log(2 * cells / ALPHA) / (2 * iterations))
        for col, value in row.items():
            if col != "x" and not float(value) <= limit:
                errors.append(f"{path.name} {col} at {iterations:g} iterations: MAD {value} > {limit:.4f}")
    return errors


def check_mc_grid(out_dirs: list[Path]) -> list[str]:
    """Each invocation wrote either adaptive figure2 cells or figure3 MADs; check them."""
    errors = []
    for out in out_dirs:
        precision, mad = out / "figure2_mc_precision.csv", out / "figure3_mad.csv"
        if precision.exists():
            errors += _check_precision_csv(precision)
        elif mad.exists():
            errors += _check_mad_csv(mad)
        else:
            errors.append(f"{out.name}: neither figure2 precision nor figure3 MAD output")
    return errors


def check_topo_oracle(out_dirs: list[Path]) -> list[str]:
    """Every exact_check row: the MC cell is within a family-wise bound of the oracle."""
    out = out_dirs[0]
    rows = read_rows(out / "topologysweep_exact_check.csv")
    if not rows:
        return ["topologysweep wrote no exact_check rows"]
    manifest = json.loads((out / "topologysweep.manifest.json").read_text())
    trials = int(manifest["config"]["mc_iterations"])
    return [
        f"exact_check {r['topology']} size={r['size']} f={r['f']}: "
        f"MC {r['montecarlo']} vs exact {r['exact']}"
        for r in rows
        if binomial_outlier(float(r["montecarlo"]), float(r["exact"]), trials, len(rows))
    ]


def compare_digests(got: dict[str, str], want: dict[str, str], what: str) -> list[str]:
    """Byte-identity of two invocations' CSV sets."""
    if got == want:
        return []
    names = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
    return [f"{what}: CSVs differ: {', '.join(names)}"]
