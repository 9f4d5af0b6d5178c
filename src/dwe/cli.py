"""Command-line interface.

Each stage is one entry of the ordered ``STAGES`` table: its name, the
config keys it reads, the files it writes and one ``run(ctx)``.

    harvest    parse an archive directory into a corpus CSV
    clean      validate a corpus CSV, drop bad rows, write the report
    rud        per-article weekly ratios for a grouping scope
    normality  moment/JB report over the ratios
    transform  fit the two-step normality transform per scope
    regress    OLS/robust model ladder over year windows
    panel      random-effects EGLS over the daily country panel
    lq         localization quotients, natural breaks, choropleth export

``dwe pipeline --config run.cfg`` runs the configured stages in table
order and writes one report; ``dwe <stage> ...`` runs one stage from
flags whose destinations are its config keys and prints its summary.

Outputs carry no timestamps; identical inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Mapping, TypeVar

from . import __version__, corpus as corpus_mod, diststat, geo, harvest, \
    linmod, panel as panel_mod, rud as rud_mod

T = TypeVar("T")


def _parse_models(text: str) -> tuple[str, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        ids = list(linmod.MODEL_TERMS)
        if lo not in ids or hi not in ids:
            raise ValueError(f"bad model range {text!r}")
        i, j = ids.index(lo), ids.index(hi)
        if j < i:
            raise ValueError(f"bad model range {text!r}")
        return tuple(ids[i:j + 1])
    models = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in models:
        if m not in linmod.MODEL_TERMS:
            raise ValueError(f"unknown model {m!r}")
    if not models:
        raise ValueError("no models given")
    return models


def _parse_windows(text: str, years_present: tuple[int, int]
                   ) -> tuple[tuple[int, int], ...]:
    text = text.strip()
    if text == "default":
        return linmod.DEFAULT_WINDOWS
    if text == "none":
        return (years_present,)
    windows = []
    for part in text.split(","):
        part = part.strip()
        lo, dash, hi = part.partition("-")
        if not dash:
            raise ValueError(f"bad window {part!r}, want YYYY-YYYY")
        windows.append((int(lo), int(hi)))
    return tuple(windows)


def _year_span(c: corpus_mod.Corpus) -> tuple[int, int]:
    years = c.columns.year
    if not years.size:
        raise ValueError("empty corpus")
    return (int(years.min()), int(years.max()))


# -- output files -----------------------------------------------------------

def write_transform_cfg(fits: dict[str, diststat.FittedTransform],
                        path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scope in sorted(fits):
            f = fits[scope]
            s = f.spec
            fh.write(f"scope={scope} "
                     f"step1={s.step1_family}:{s.step1_param!r} "
                     f"step2=power:{s.step2_power!r} "
                     f"jb={f.jb_statistic!r}\n")


def read_transform_cfg(path: str) -> dict[str, diststat.TransformSpec]:
    specs: dict[str, diststat.TransformSpec] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = dict(tok.split("=", 1) for tok in line.split()
                          if "=" in tok)
            try:
                scope = fields["scope"]
                fam, _, param = fields["step1"].partition(":")
                _, _, lam2 = fields["step2"].partition(":")
                specs[scope] = diststat.TransformSpec(
                    step1_family=fam, step1_param=float(param),
                    step2_power=float(lam2))
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"{path} line {lineno}: bad transform spec: {exc}") \
                    from exc
    return specs


def write_panel_csv(fit: panel_mod.PanelFit, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("term", "coefficient", "std_error", "t_stat",
                    "p_value", "stars"))
        for j, term in enumerate(fit.columns):
            w.writerow((term, repr(float(fit.coefficients[j])),
                        repr(float(fit.standard_errors[j])),
                        repr(float(fit.t_stats[j])),
                        repr(float(fit.p_values[j])), fit.stars[j]))
        summary = (("_adjusted_r2", fit.adjusted_r_squared),
                   ("_sigma2_country", fit.sigma2_country),
                   ("_sigma2_idio", fit.sigma2_idio),
                   ("_rho_share", fit.rho_share),
                   ("_rho_ratio", fit.rho_ratio),
                   ("_n_cells", fit.n_cells),
                   ("_n_countries", fit.n_countries),
                   ("_clamped", int(fit.clamped)))
        for key, value in summary:
            w.writerow((key, repr(float(value)), "", "", "", ""))
        for iso in sorted(fit.theta):
            w.writerow((f"_theta_{iso}", repr(float(fit.theta[iso])),
                        "", "", "", ""))
        for name in fit.dropped_columns:
            w.writerow((f"_dropped_{name}", "", "", "", "", ""))


# -- run context ------------------------------------------------------------

class RunContext:
    """What the stages of one run share.

    ``config`` maps config keys to their string values.  ``paths`` maps
    each stage output file name to where it is written, or to None when
    this run does not write it.  ``rud_csv`` and ``first_id`` are inputs
    only the subcommands give.  The countries, corpus rows, cleaned corpus
    and the RUD table load on first use and are kept for the later
    stages.
    """

    def __init__(self, config: Mapping[str, str],
                 paths: Mapping[str, str | None],
                 rud_csv: str | None = None, first_id: int = 1) -> None:
        self.config = config
        self.paths = paths
        self.rud_csv = rud_csv
        self.first_id = first_id
        self.corpus_rows: list[corpus_mod.RawRecord] | None = None
        self.fitted_specs: dict[str, diststat.TransformSpec] | None = None
        self._countries = None
        self._cleaned: corpus_mod.Corpus | None = None
        self._rud: rud_mod.RudTable | None = None

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.config.get(key, default)

    def parsed(self, key: str, parse: Callable[[str], T],
               default: str | None = None) -> T:
        """``parse`` of the key's value, else of ``default``; a value that
        fails to parse raises naming the key."""
        try:
            return parse(self.get(key, default))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc

    def need(self, stage: str, *keys: str) -> None:
        for key in keys:
            if not self.get(key):
                raise ValueError(f"{stage} stage needs {key}")

    @property
    def countries(self):
        if self._countries is None:
            path = self.get("countries", "builtin")
            self._countries = corpus_mod.load_default_countries() \
                if path == "builtin" else corpus_mod.read_countries_cfg(path)
        return self._countries

    def rows(self) -> list[corpus_mod.RawRecord]:
        """The corpus: a harvest stage's records, else the corpus file."""
        if self.corpus_rows is None:
            src = self.get("corpus")
            if src is None:
                raise ValueError("no corpus available: configure "
                                 "`corpus` or a harvest stage")
            self.corpus_rows = corpus_mod.read_corpus_csv(src)
        return self.corpus_rows

    def cleaned(self) -> corpus_mod.Corpus:
        if self._cleaned is None:
            countries = self.countries
            self._cleaned = corpus_mod.clean_corpus(self.rows(), countries)
        return self._cleaned

    def rud(self) -> rud_mod.RudTable:
        if self._rud is None:
            self._rud = rud_mod.build_rud_dataset(
                self.cleaned(), self.get("scope", rud_mod.CONSOLIDATED))
        return self._rud

    def ratios_by_scope(self) -> dict[str, list[float]]:
        """The ratios grouped by scope, in scope order: from ``rud_csv``
        when given, else from this run's observations; none is an error."""
        if self.rud_csv is not None:
            by_scope: dict[str, list[float]] = {}
            for row in rud_mod.read_rud_csv(self.rud_csv):
                by_scope.setdefault(row["scope"], []).append(row["rud"])
        else:
            by_scope = {scope: table.rud.tolist()
                        for scope, table in self.rud().by_scope().items()}
        if not by_scope:
            raise ValueError(
                f"{self.rud_csv or 'cleaned corpus'}: no observations")
        return dict(sorted(by_scope.items()))

    def transform_specs(self) -> dict[str, diststat.TransformSpec] | None:
        """The configured transform.cfg, else the specs a transform stage
        fitted in this run, else None (each scope fits its own)."""
        tr = self.get("transform")
        if not tr or tr == "fit":
            return self.fitted_specs
        return read_transform_cfg(tr)


# -- stages -----------------------------------------------------------------
# Each run(ctx) writes the files whose paths ctx gives and returns the
# paths written and the summary the subcommand prints.

StageResult = tuple[list[str], str]


def _run_harvest(ctx: RunContext) -> StageResult:
    ctx.need("harvest", "harvest_in", "harvest_style", "harvest_journal")
    in_dir = ctx.get("harvest_in")
    lookup = harvest.build_name_lookup(ctx.countries)
    rows, skipped = harvest.harvest_directory(
        in_dir, ctx.get("harvest_style"), ctx.get("harvest_journal"),
        lookup, first_id=ctx.first_id)
    ctx.corpus_rows = rows
    out = ctx.paths["corpus.csv"]
    corpus_mod.write_corpus_csv(rows, out)
    written = [out]
    skip_path = ctx.paths.get("harvest_skipped.txt")
    if skip_path:
        with open(skip_path, "w", encoding="utf-8") as fh:
            for name, reason in skipped:
                fh.write(f"{name}\t{reason}\n")
        written.append(skip_path)
    lines = [f"harvested {len(rows)} records from {in_dir} -> {out}"]
    lines += [f"skipped {name}: {reason}" for name, reason in skipped]
    return written, "\n".join(lines)


def _run_clean(ctx: RunContext) -> StageResult:
    c = ctx.cleaned()
    out = ctx.paths["cleaned.csv"]
    corpus_mod.write_corpus_csv(c.records, out)
    written = [out]
    report = {"input": len(ctx.rows()), "kept": len(c.records),
              "dropped": dict(c.cleaning_report)}
    report_path = ctx.paths.get("cleaning_report.json")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(report_path)
    dropped = ", ".join(f"{k}={v}"
                        for k, v in sorted(report["dropped"].items()))
    return written, (f"kept {report['kept']}/{report['input']} records; "
                     f"dropped {dropped}")


def _run_rud(ctx: RunContext) -> StageResult:
    observations = ctx.rud()
    out = ctx.paths["rud.csv"]
    rud_mod.write_rud_csv(observations, out)
    return [out], f"wrote {len(observations)} ratio observations -> {out}"


def _run_normality(ctx: RunContext) -> StageResult:
    lines = []
    for scope, values in ctx.ratios_by_scope().items():
        lines.append(f"scope={scope} n={len(values)}")
        for label, sample in (("raw", values),
                              ("log10", [math.log10(v) for v in values])):
            m = diststat.moments(sample)
            jb = diststat.jarque_bera(m)
            lines.append(
                f"  {label:<6} mean={m.mean:.6f} skew={m.skewness:.6f} "
                f"kurt={m.excess_kurtosis:.6f} jb={jb.statistic:.4f} "
                f"crit={jb.critical_value} "
                f"{'reject' if jb.reject_null else 'accept'}")
    text = "\n".join(lines)
    out = ctx.paths.get("normality.txt")
    if not out:
        return [], text
    Path(out).write_text(text + "\n", encoding="utf-8")
    return [out], text


def _run_transform(ctx: RunContext) -> StageResult:
    fits = {scope: diststat.fit_transform_spec(values)
            for scope, values in ctx.ratios_by_scope().items()}
    ctx.fitted_specs = {scope: f.spec for scope, f in fits.items()}
    out = ctx.paths["transform.cfg"]
    write_transform_cfg(fits, out)
    return [out], "\n".join(
        f"{scope}: {f.spec.describe()}  jb={f.jb_statistic:.4f}"
        for scope, f in fits.items())


def _run_regress(ctx: RunContext) -> StageResult:
    c = ctx.cleaned()
    models = ctx.parsed("models", _parse_models, "M1..M9")
    span = _year_span(c)
    windows = ctx.parsed("windows", lambda text: _parse_windows(text, span),
                         "default")
    specs = ctx.transform_specs()
    scope = ctx.get("scope", "all")
    scopes = None if scope == "all" else list(c.columns.journals) \
        if scope == "journal" else [scope]
    report = linmod.roll_window_run(
        c, windows=windows, model_ids=models,
        method=ctx.get("method", "ols"), scopes=scopes,
        transform_specs=specs)
    out = ctx.paths["regress.csv"]
    report.to_csv(out)
    return [out], f"wrote {len(report.rows)} result rows -> {out}"


def _run_panel(ctx: RunContext) -> StageResult:
    c = ctx.cleaned()
    ctx.need("panel", "panel_from", "panel_to")
    data = panel_mod.build_panel(
        c, start=ctx.parsed("panel_from", date.fromisoformat),
        end=ctx.parsed("panel_to", date.fromisoformat),
        top_n=ctx.parsed("panel_top", int, "11"),
        scope=ctx.get("scope", rud_mod.CONSOLIDATED))
    weighted = ctx.get("panel_weighted", "false")
    if weighted.lower() not in ("true", "false"):
        raise ValueError(
            f"panel_weighted must be true or false, got {weighted!r}")
    fit = panel_mod.re_egls_fit(
        data, weighted=weighted.lower() == "true",
        weight_mode=ctx.get("panel_weight_mode", "multiply"),
        trend_base=ctx.get("trend_base", "log10"))
    out = ctx.paths["panel.csv"]
    write_panel_csv(fit, out)
    clamped = " (country variance clamped to 0)" if fit.clamped else ""
    return [out], (f"panel: {fit.n_cells} cells, {fit.n_countries} "
                   f"countries, rho_share={fit.rho_share:.6f}{clamped}\n"
                   f"wrote -> {out}")


def _run_lq(ctx: RunContext) -> StageResult:
    c = ctx.cleaned()
    ctx.need("lq", "select")
    entries = geo.localization_quotient(
        c, ctx.parsed("select", geo.parse_selection))
    classes = ctx.parsed("classes", int, "5")
    breaks = geo.jenks_breaks([e.lq for e in entries], classes)
    csv_path, geojson_path = ctx.paths["lq.csv"], ctx.paths["lq.geojson"]
    skipped = geo.export_choropleth(entries, breaks, csv_path, geojson_path,
                                    all_countries=sorted(ctx.countries))
    summary = (f"{len(entries)} countries classified into {classes} "
               f"classes -> {csv_path}, {geojson_path}")
    if skipped:
        summary += "\nskipped (not joinable): " + ", ".join(skipped)
    return [csv_path, geojson_path], summary


@dataclass(frozen=True)
class Stage:
    name: str
    keys: tuple[str, ...]     # config keys read, through ctx included
    outputs: tuple[str, ...]  # files written, as named in out_dir
    run: Callable[[RunContext], StageResult]


_CORPUS_KEYS = ("corpus", "countries")

STAGES: tuple[Stage, ...] = (
    Stage("harvest", ("harvest_in", "harvest_style", "harvest_journal",
                      "countries"),
          ("corpus.csv", "harvest_skipped.txt"), _run_harvest),
    Stage("clean", _CORPUS_KEYS, ("cleaned.csv", "cleaning_report.json"),
          _run_clean),
    Stage("rud", _CORPUS_KEYS + ("scope",), ("rud.csv",), _run_rud),
    Stage("normality", _CORPUS_KEYS + ("scope",), ("normality.txt",),
          _run_normality),
    Stage("transform", _CORPUS_KEYS + ("scope",), ("transform.cfg",),
          _run_transform),
    Stage("regress", _CORPUS_KEYS + ("scope", "models", "method", "windows",
                                     "transform"),
          ("regress.csv",), _run_regress),
    Stage("panel", _CORPUS_KEYS + ("scope", "panel_from", "panel_to",
                                   "panel_top", "panel_weighted",
                                   "panel_weight_mode", "trend_base"),
          ("panel.csv",), _run_panel),
    Stage("lq", _CORPUS_KEYS + ("select", "classes"),
          ("lq.csv", "lq.geojson"), _run_lq),
)

STAGE_BY_NAME = {stage.name: stage for stage in STAGES}

KNOWN_KEYS = {"stages", "out_dir"}.union(*(s.keys for s in STAGES))

#: keys naming an input file, with the value that names none
FILE_KEYS = {"corpus": None, "harvest_in": None, "countries": "builtin",
             "transform": "fit"}


# -- pipeline ---------------------------------------------------------------

def _stage_names(value: str) -> list[str]:
    return [s.strip() for s in value.split(",") if s.strip()]


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration; raw holds the parsed keys."""

    raw: dict
    text: str

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    @property
    def stages(self) -> tuple[str, ...]:
        """The configured stage names in table order."""
        names = _stage_names(self.raw.get("stages", ""))
        return tuple(s.name for s in STAGES if s.name in names)

    def get(self, key: str, default=None):
        return self.raw.get(key, default)


def load_run_config(path: str) -> RunConfig:
    """Parse `key = value` lines; unknown keys and stages, repeated keys
    and stages, and missing files reject."""
    text = Path(path).read_text(encoding="utf-8")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"{path} line {lineno}: expected key = value")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ValueError(f"{path} line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"{path} line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    names = _stage_names(raw.get("stages", ""))
    for i, stage in enumerate(names):
        if stage not in STAGE_BY_NAME:
            raise ValueError(f"{path}: unknown stage {stage!r}")
        if stage in names[:i]:
            raise ValueError(f"{path}: duplicate stage {stage!r}")
    for key, no_file in FILE_KEYS.items():
        value = raw.get(key)
        if value and value != no_file and not Path(value).exists():
            raise ValueError(f"{path}: {key} file not found: {value}")
    return RunConfig(raw=raw, text=text)


def run_pipeline(config: RunConfig) -> int:
    stages = config.stages
    if not stages:
        print("no stages configured; nothing to do")
        return 0
    out_dir = config.get("out_dir")
    if not out_dir:
        raise ValueError("out_dir is required when stages are configured")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed_marker = out / "FAILED"
    if failed_marker.exists():
        failed_marker.unlink()

    ctx = RunContext(config.raw, {name: str(out / name) for s in STAGES
                                  for name in s.outputs})
    ctx.countries  # a bad country table fails before any stage runs
    report_stages = []
    for name in stages:
        try:
            outputs, _ = STAGE_BY_NAME[name].run(ctx)
        except (ValueError, OSError) as exc:
            failed_marker.write_text(f"stage={name}\nerror={exc}\n",
                                     encoding="utf-8")
            report_stages.append({"name": name, "status": "failed",
                                  "error": str(exc)})
            _write_run_report(out, config, report_stages)
            print(f"error: stage {name} failed: {exc}", file=sys.stderr)
            return 1
        report_stages.append({"name": name, "status": "ok",
                              "outputs": [Path(o).name for o in outputs]})

    _write_run_report(out, config, report_stages)
    print(f"pipeline complete: {', '.join(stages)} -> {out_dir}")
    return 0


def _write_run_report(out: Path, config: RunConfig, stages: list) -> None:
    report = {"config_sha256": config.sha256, "version": __version__,
              "stages": stages}
    with open(out / "run_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_stage(args) -> int:
    """Run one stage from its subcommand's arguments.

    The argparse destinations named after the stage's config keys become
    its config; ``args.outputs`` gives, per stage output file, the
    destination holding its path (None: the subcommand does not write
    it).  The stage's summary goes to stdout.
    """
    stage = STAGE_BY_NAME[args.command]
    config = {key: str(getattr(args, key)) for key in stage.keys
              if getattr(args, key, None) is not None}
    paths = {name: getattr(args, dest) if dest else None
             for name, dest in zip(stage.outputs, args.outputs)}
    ctx = RunContext(config, paths, rud_csv=getattr(args, "rud_csv", None),
                     first_id=getattr(args, "first_id", 1))
    print(stage.run(ctx)[1])
    return 0


# -- argument wiring --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwe",
        description="Day-of-week submission effect analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def stage_parser(name: str, help: str, outputs: tuple,
                     reads_corpus: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=cmd_stage, outputs=outputs)
        if reads_corpus:
            p.add_argument("--in", dest="corpus", required=True)
            p.add_argument("--countries")
        if "out" in outputs:
            p.add_argument("--out", required=True)
        return p

    p = stage_parser("harvest", "parse an archive directory", ("out", None),
                     reads_corpus=False)
    p.add_argument("--style", dest="harvest_style", required=True,
                   choices=harvest.HISTORY_STYLES)
    p.add_argument("--in", dest="harvest_in", required=True)
    p.add_argument("--countries")
    p.add_argument("--journal", dest="harvest_journal", required=True)
    p.add_argument("--first-id", type=int, default=1)

    p = stage_parser("clean", "validate and filter a corpus CSV",
                     ("out", "report"))
    p.add_argument("--report")

    p = stage_parser("rud", "weekly concentration ratios", ("out",))
    p.add_argument("--scope", choices=("journal", rud_mod.CONSOLIDATED))

    p = stage_parser("normality", "moment and JB report", (None,),
                     reads_corpus=False)
    p.add_argument("--test", dest="rud_csv", required=True)

    p = stage_parser("transform", "fit the normality transform", ("out",),
                     reads_corpus=False)
    p.add_argument("--fit", dest="rud_csv", required=True)

    p = stage_parser("regress", "model ladder over year windows", ("out",))
    p.add_argument("--scope")
    p.add_argument("--models")
    p.add_argument("--method", choices=linmod.METHODS)
    p.add_argument("--windows")
    p.add_argument("--transform")

    p = stage_parser("panel", "daily country panel EGLS", ("out",))
    p.add_argument("--scope")
    p.add_argument("--top", dest="panel_top", type=int)
    p.add_argument("--from", dest="panel_from", required=True)
    p.add_argument("--to", dest="panel_to", required=True)
    p.add_argument("--weighted", dest="panel_weighted",
                   action="store_const", const="true")
    p.add_argument("--weight-mode", dest="panel_weight_mode",
                   choices=("multiply", "wls"))
    p.add_argument("--trend-base", choices=("log10", "ln"))

    p = stage_parser("lq", "localization quotients and breaks",
                     ("out", "geojson"))
    p.add_argument("--select", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--geojson", required=True)

    p = sub.add_parser("pipeline", help="run stages from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(
        func=lambda args: run_pipeline(load_run_config(args.config)))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
