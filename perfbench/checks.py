"""Output checks and failure accounting for one pipeline run.

The checks use only the standard library and numpy, never ``dwe``, so a
defect in the program cannot also hide in its oracle.  A run is scored as
operations attempted and failed, where an operation is a pipeline stage, a
regress cell (scope x window x model) or a harvested input file, and a
failure is any of:

* a stage that is not reported ``ok``;
* a regress cell with a ``failed:`` or ``empty`` marker, or missing;
* a skipped input file that set-up did not plant as bad;
* a run whose output checks fail (one failure for the run).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Expected

WEEKEND_MODELS = ("M1", "M4", "M5", "M6", "M7", "M8", "M9")
LQ_RELATIVE_TOLERANCE = 1e-9


@dataclass
class RunScore:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def adjusted_jb(sample: np.ndarray) -> float:
    """Jarque-Bera from the small-sample adjusted skewness and kurtosis."""
    n = sample.size
    dev = sample - sample.mean()
    dev = dev / np.max(np.abs(dev))
    s2 = float(dev @ dev)
    m2, m3 = s2 / n, float(np.mean(dev * dev * dev))
    skew = m3 / m2 ** 1.5 * math.sqrt(n * (n - 1)) / (n - 2)
    v = s2 / (n - 1)
    s4 = float(np.sum((dev * dev) ** 2))
    kurt = n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * s4 / (v * v) \
        - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return n * (skew ** 2 / 6.0 + kurt ** 2 / 24.0)


def transform_jbs(path: Path) -> dict[str, float]:
    """scope -> fitted JB from a transform.cfg."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        out[fields["scope"]] = float(fields["jb"])
    return out


def check_transform_jb(transform_cfg: Path, ratios: dict[str, np.ndarray]
                       ) -> list[str]:
    """The fitted JB of every scope is no higher than the identity JB."""
    problems = []
    fitted = transform_jbs(transform_cfg)
    if set(fitted) != set(ratios):
        problems.append(f"transform scopes {sorted(fitted)} != "
                        f"ratio scopes {sorted(ratios)}")
    for scope in sorted(set(fitted) & set(ratios)):
        identity = adjusted_jb(ratios[scope])
        if fitted[scope] > identity * (1.0 + 1e-9):
            problems.append(f"{scope}: fitted JB {fitted[scope]!r} above "
                            f"identity JB {identity!r}")
    return problems


def ratios_by_scope(rud_csv: Path) -> dict[str, np.ndarray]:
    groups: dict[str, list[float]] = {}
    for row in _rows(rud_csv)[1:]:
        groups.setdefault(row[1], []).append(float(row[7]))
    return {k: np.asarray(v) for k, v in groups.items()}


def check_regress(path: Path, exp: Expected) -> tuple[int, list[str]]:
    """(failed cells, problems) for regress.csv against the expected grid.

    Every model with a weekend term must give it a negative coefficient
    with three stars in every (scope, window).
    """
    cells: dict[tuple[str, str, str], list[list[str]]] = {}
    for row in _rows(path)[1:]:
        cells.setdefault((row[0], row[1], row[2]), []).append(row)
    failed = 0
    problems = []
    for scope in exp.regress_scopes:
        for y0, y1 in exp.windows:
            window = f"{y0}-{y1}"
            for model in exp.models:
                rows = cells.get((scope, window, model))
                if not rows:
                    failed += 1
                    problems.append(f"regress cell {scope}/{window}/{model} "
                                    "missing")
                    continue
                markers = [r[6] for r in rows
                           if r[6].startswith("failed:") or r[6] == "empty"]
                if markers:
                    failed += 1
                    problems.append(f"regress cell {scope}/{window}/{model}"
                                    f": {markers[0]}")
                    continue
                if model in WEEKEND_MODELS:
                    weekend = [r for r in rows if r[3] == "weekend"]
                    if not weekend or not float(weekend[0][4]) < 0.0 \
                            or weekend[0][5] != "***":
                        problems.append(
                            f"regress cell {scope}/{window}/{model}: weekend "
                            f"not negative at 1%: {weekend[:1]}")
    return failed, problems


def check_panel(path: Path) -> list[str]:
    """Variance share rho and every theta lie in [0, 1]."""
    problems = []
    values = {r[0]: r[1] for r in _rows(path)[1:]}
    bounded = {k: v for k, v in values.items()
               if k == "_rho_share" or k.startswith("_theta_")}
    if "_rho_share" not in bounded or len(bounded) < 2:
        problems.append("panel.csv lacks _rho_share or _theta_ rows")
    for key, text in sorted(bounded.items()):
        if not 0.0 <= float(text) <= 1.0:
            problems.append(f"panel {key} = {text} outside [0, 1]")
    return problems


def check_lq(lq_csv: Path, cleaned_csv: Path) -> list[str]:
    """sum_c tot_c * lq_c = 100 * tot_world, to 1e-9 relative."""
    totals = Counter(r[7] for r in _rows(cleaned_csv)[1:])
    lq = {r[0]: float(r[1]) for r in _rows(lq_csv)[1:] if r[1]}
    problems = []
    if set(lq) != set(totals):
        problems.append(f"lq countries differ from corpus countries: "
                        f"{sorted(set(lq) ^ set(totals))}")
    weighted = math.fsum(totals[c] * lq[c] for c in lq if c in totals)
    world = 100.0 * sum(totals.values())
    if abs(weighted - world) > LQ_RELATIVE_TOLERANCE * world:
        problems.append(f"lq identity: sum tot*lq = {weighted!r}, "
                        f"100*tot_world = {world!r}")
    return problems


def check_cleaning(out: Path, exp: Expected) -> list[str]:
    report = json.loads((out / "cleaning_report.json").read_text())
    problems = []
    if report["kept"] != exp.kept:
        problems.append(f"cleaning kept {report['kept']}, expected "
                        f"{exp.kept}")
    if report["dropped"] != exp.dropped:
        problems.append(f"cleaning dropped {report['dropped']}, expected "
                        f"{exp.dropped}")
    return problems


def check_harvest(out: Path, work: Path, exp: Expected
                  ) -> tuple[int, list[str]]:
    """(unplanted skips, problems): rows and skips match what was planted."""
    problems = []
    if (out / "corpus.csv").read_bytes() != \
            (work / "expected_corpus.csv").read_bytes():
        problems.append("harvested corpus.csv differs from the rows "
                        "set-up planted")
    skipped = [line.split("\t", 1)[0] for line in
               (out / "harvest_skipped.txt").read_text().splitlines()]
    unplanted = [name for name in skipped if name not in exp.planted_skips]
    missed = [name for name in exp.planted_skips if name not in skipped]
    if unplanted:
        problems.append(f"harvest skipped good files: {unplanted[:5]}")
    if missed:
        problems.append(f"harvest accepted planted bad files: {missed}")
    return len(unplanted), problems


def score_run(returncode: int, work: Path, exp: Expected) -> RunScore:
    """Check one run's outputs in ``work/out`` and count its operations."""
    out = work / "out"
    cells = len(exp.regress_scopes) * len(exp.windows) * len(exp.models)
    attempted = len(exp.stages) + cells + exp.archive_files
    problems: list[str] = []
    if returncode != 0:
        problems.append(f"pipeline exited {returncode}")
    if (out / "FAILED").exists():
        problems.append("FAILED marker: " + (out / "FAILED").read_text()
                        .strip().replace("\n", "; "))
    try:
        report = json.loads((out / "run_report.json").read_text())
        ok = {s["name"] for s in report["stages"] if s["status"] == "ok"}
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"run_report.json unreadable: {exc}")
        ok = set()
    failed = 0
    for stage in exp.stages:
        if stage not in ok:
            failed += 1
            problems.append(f"stage {stage} not ok")
    if "regress" in exp.stages and "regress" not in ok:
        failed += cells

    try:
        if "clean" in ok:
            problems += check_cleaning(out, exp)
        if "regress" in ok:
            failed_cells, found = check_regress(out / "regress.csv", exp)
            failed += failed_cells
            problems += found
        if "transform" in ok:
            problems += check_transform_jb(
                out / "transform.cfg", ratios_by_scope(out / "rud.csv"))
        if "harvest" in ok:
            unplanted, found = check_harvest(out, work, exp)
            failed += unplanted
            problems += found
        if "panel" in ok:
            problems += check_panel(out / "panel.csv")
        if "lq" in ok:
            problems += check_lq(out / "lq.csv", out / "cleaned.csv")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output unreadable: {exc!r}")
    return RunScore(attempted, failed + (1 if problems else 0), problems)
