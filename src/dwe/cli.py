"""Command-line interface.

Subcommands cover the full path from archived files to analysis tables:

    harvest    parse an archive directory into a corpus CSV
    clean      validate a corpus CSV, drop bad rows, write the report
    rud        per-article weekly ratios for a grouping scope
    normality  moment/JB report over a ratio CSV
    transform  fit the two-step normality transform per scope
    regress    OLS/robust model ladder over year windows
    panel      random-effects EGLS over the daily country panel
    lq         localization quotients, natural breaks, choropleth export
    pipeline   run stages from a config file with one report

Outputs carry no timestamps; identical inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from . import __version__, corpus as corpus_mod, diststat, geo, harvest, \
    linmod, panel as panel_mod, rud as rud_mod


def _echo(*parts) -> None:
    print(*parts)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# -- shared loading helpers -------------------------------------------------

def _load_countries(path: str | None):
    if path is None or path == "builtin":
        return corpus_mod.load_default_countries()
    return corpus_mod.read_countries_cfg(path)


def _load_clean_corpus(corpus_path: str, countries) -> corpus_mod.Corpus:
    rows = corpus_mod.read_corpus_csv(corpus_path)
    return corpus_mod.clean_corpus(rows, countries)


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
    years = [r.features.year for r in c.records]
    if not years:
        raise ValueError("empty corpus")
    return (min(years), max(years))


# -- transform spec cfg -----------------------------------------------------

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


# -- subcommands ------------------------------------------------------------

def cmd_harvest(args) -> int:
    countries = _load_countries(args.countries)
    lookup = harvest.build_name_lookup(countries)
    rows, skipped = harvest.harvest_directory(
        args.in_dir, args.style, args.journal, lookup,
        first_id=args.first_id)
    corpus_mod.write_corpus_csv(rows, args.out)
    _echo(f"harvested {len(rows)} records from {args.in_dir} -> {args.out}")
    for name, reason in skipped:
        _echo(f"skipped {name}: {reason}")
    return 0


def cmd_clean(args) -> int:
    countries = _load_countries(args.countries)
    rows = corpus_mod.read_corpus_csv(args.in_path)
    cleaned = corpus_mod.clean_corpus(rows, countries)
    corpus_mod.write_corpus_csv(
        [corpus_mod.raw_from_article(r.article) for r in cleaned.records],
        args.out)
    report = {"input": len(rows), "kept": len(cleaned.records),
              "dropped": dict(cleaned.cleaning_report)}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    _echo(f"kept {report['kept']}/{report['input']} records; dropped "
          + ", ".join(f"{k}={v}" for k, v in
                      sorted(report["dropped"].items())))
    return 0


def cmd_rud(args) -> int:
    countries = _load_countries(args.countries)
    c = _load_clean_corpus(args.in_path, countries)
    observations = rud_mod.build_rud_dataset(c, args.scope)
    rud_mod.write_rud_csv(observations, args.out)
    _echo(f"wrote {len(observations)} ratio observations -> {args.out}")
    return 0


def _normality_report(rows: list[dict]) -> str:
    lines = []
    by_scope: dict[str, list[float]] = {}
    for row in rows:
        by_scope.setdefault(row["scope"], []).append(row["rud"])
    for scope in sorted(by_scope):
        values = by_scope[scope]
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
    return "\n".join(lines) + "\n"


def cmd_normality(args) -> int:
    rows = rud_mod.read_rud_csv(args.test)
    if not rows:
        return _fail(f"{args.test}: no observations")
    sys.stdout.write(_normality_report(rows))
    return 0


def cmd_transform(args) -> int:
    rows = rud_mod.read_rud_csv(args.fit)
    if not rows:
        return _fail(f"{args.fit}: no observations")
    by_scope: dict[str, list[float]] = {}
    for row in rows:
        by_scope.setdefault(row["scope"], []).append(row["rud"])
    fits = {scope: diststat.fit_transform_spec(values)
            for scope, values in sorted(by_scope.items())}
    write_transform_cfg(fits, args.out)
    for scope, f in sorted(fits.items()):
        _echo(f"{scope}: {f.spec.describe()}  jb={f.jb_statistic:.4f}")
    return 0


def cmd_regress(args) -> int:
    countries = _load_countries(args.countries)
    c = _load_clean_corpus(args.in_path, countries)
    models = _parse_models(args.models)
    windows = _parse_windows(args.windows, _year_span(c))
    specs = None
    if args.transform and args.transform != "fit":
        specs = read_transform_cfg(args.transform)
    scopes = None if args.scope == "all" else [args.scope]
    report = linmod.roll_window_run(
        c, windows=windows, model_ids=models, method=args.method,
        scopes=scopes, transform_specs=specs)
    report.to_csv(args.out)
    _echo(f"wrote {len(report.rows)} result rows -> {args.out}")
    return 0


PANEL_SUMMARY_ORDER = ("_adjusted_r2", "_sigma2_country", "_sigma2_idio",
                       "_rho_share", "_rho_ratio", "_n_cells",
                       "_n_countries", "_clamped")


def write_panel_csv(fit: panel_mod.PanelFit, path: str) -> None:
    import csv as _csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _csv.writer(fh)
        w.writerow(("term", "coefficient", "std_error", "t_stat",
                    "p_value", "stars"))
        for j, term in enumerate(fit.columns):
            w.writerow((term, repr(float(fit.coefficients[j])),
                        repr(float(fit.standard_errors[j])),
                        repr(float(fit.t_stats[j])),
                        repr(float(fit.p_values[j])), fit.stars[j]))
        summary = {
            "_adjusted_r2": fit.adjusted_r_squared,
            "_sigma2_country": fit.sigma2_country,
            "_sigma2_idio": fit.sigma2_idio,
            "_rho_share": fit.rho_share,
            "_rho_ratio": fit.rho_ratio,
            "_n_cells": fit.n_cells,
            "_n_countries": fit.n_countries,
            "_clamped": int(fit.clamped),
        }
        for key in PANEL_SUMMARY_ORDER:
            w.writerow((key, repr(float(summary[key])), "", "", "", ""))
        for iso in sorted(fit.theta):
            w.writerow((f"_theta_{iso}", repr(float(fit.theta[iso])),
                        "", "", "", ""))
        for name in fit.dropped_columns:
            w.writerow((f"_dropped_{name}", "", "", "", "", ""))


def cmd_panel(args) -> int:
    countries = _load_countries(args.countries)
    c = _load_clean_corpus(args.in_path, countries)
    data = panel_mod.build_panel(
        c, start=date.fromisoformat(args.from_date),
        end=date.fromisoformat(args.to_date), top_n=args.top,
        scope=args.scope)
    fit = panel_mod.re_egls_fit(data, weighted=args.weighted,
                                weight_mode=args.weight_mode,
                                trend_base=args.trend_base)
    write_panel_csv(fit, args.out)
    _echo(f"panel: {fit.n_cells} cells, {fit.n_countries} countries, "
          f"rho_share={fit.rho_share:.6f}"
          + (" (country variance clamped to 0)" if fit.clamped else ""))
    _echo(f"wrote -> {args.out}")
    return 0


def cmd_lq(args) -> int:
    countries = _load_countries(args.countries)
    c = _load_clean_corpus(args.in_path, countries)
    selection = geo.parse_selection(args.select)
    entries = geo.localization_quotient(c, selection)
    breaks = geo.jenks_breaks([e.lq for e in entries], args.classes)
    skipped = geo.export_choropleth(entries, breaks, args.out, args.geojson,
                                    all_countries=sorted(countries))
    _echo(f"{len(entries)} countries classified into {args.classes} "
          f"classes -> {args.out}, {args.geojson}")
    if skipped:
        _echo("skipped (not joinable): " + ", ".join(skipped))
    return 0


# -- pipeline ---------------------------------------------------------------

STAGE_ORDER = ("harvest", "clean", "rud", "normality", "transform",
               "regress", "panel", "lq")

KNOWN_KEYS = {
    "stages", "out_dir", "corpus", "countries",
    "harvest_in", "harvest_style", "harvest_journal",
    "scope", "models", "method", "windows", "transform",
    "panel_top", "panel_from", "panel_to", "panel_weighted",
    "panel_weight_mode", "trend_base", "select", "classes", "seed",
}

FILE_KEYS = ("corpus", "harvest_in")


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
        value = self.raw.get("stages", "")
        names = tuple(s.strip() for s in value.split(",") if s.strip())
        return tuple(sorted(names, key=STAGE_ORDER.index))

    def get(self, key: str, default=None):
        return self.raw.get(key, default)


def load_run_config(path: str) -> RunConfig:
    """Parse `key = value` lines; unknown keys and missing files reject."""
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
    config = RunConfig(raw=raw, text=text)
    for stage in config.stages:
        if stage not in STAGE_ORDER:
            raise ValueError(f"{path}: unknown stage {stage!r}")
    if "seed" in raw:
        int(raw["seed"])  # must parse
    for key in FILE_KEYS:
        if key in raw and not Path(raw[key]).exists():
            raise ValueError(f"{path}: {key} file not found: {raw[key]}")
    cc = raw.get("countries")
    if cc and cc != "builtin" and not Path(cc).exists():
        raise ValueError(f"{path}: countries file not found: {cc}")
    tr = raw.get("transform")
    if tr and tr != "fit" and not Path(tr).exists():
        raise ValueError(f"{path}: transform file not found: {tr}")
    return config


def run_pipeline(config: RunConfig) -> int:
    stages = config.stages
    if not stages:
        _echo("no stages configured; nothing to do")
        return 0
    out_dir = config.get("out_dir")
    if not out_dir:
        raise ValueError("out_dir is required when stages are configured")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed_marker = out / "FAILED"
    if failed_marker.exists():
        failed_marker.unlink()

    countries = _load_countries(config.get("countries"))
    report_stages = []
    outputs_of_stage: dict[str, list[str]] = {}
    state: dict = {"corpus_rows": None, "corpus": None, "rud": None,
                   "transform": None}

    def record(stage: str, outputs: list[str]) -> None:
        outputs_of_stage[stage] = outputs
        report_stages.append({"name": stage, "status": "ok",
                              "outputs": [str(Path(o).name)
                                          for o in outputs]})

    def corpus_rows():
        if state["corpus_rows"] is None:
            src = config.get("corpus")
            if src is None:
                raise ValueError("no corpus available: configure "
                                 "`corpus` or a harvest stage")
            state["corpus_rows"] = corpus_mod.read_corpus_csv(src)
        return state["corpus_rows"]

    def cleaned():
        if state["corpus"] is None:
            state["corpus"] = corpus_mod.clean_corpus(corpus_rows(),
                                                      countries)
        return state["corpus"]

    def rud_obs():
        if state["rud"] is None:
            state["rud"] = rud_mod.build_rud_dataset(
                cleaned(), config.get("scope", rud_mod.CONSOLIDATED))
        return state["rud"]

    current = None
    try:
        for stage in stages:
            current = stage
            if stage == "harvest":
                for key in ("harvest_in", "harvest_style",
                            "harvest_journal"):
                    if not config.get(key):
                        raise ValueError(f"harvest stage needs {key}")
                lookup = harvest.build_name_lookup(countries)
                rows, skipped = harvest.harvest_directory(
                    config.get("harvest_in"), config.get("harvest_style"),
                    config.get("harvest_journal"), lookup)
                state["corpus_rows"] = rows
                path = out / "corpus.csv"
                corpus_mod.write_corpus_csv(rows, str(path))
                skip_path = out / "harvest_skipped.txt"
                with open(skip_path, "w", encoding="utf-8") as fh:
                    for name, reason in skipped:
                        fh.write(f"{name}\t{reason}\n")
                record(stage, [str(path), str(skip_path)])
            elif stage == "clean":
                c = cleaned()
                path = out / "cleaned.csv"
                corpus_mod.write_corpus_csv(
                    [corpus_mod.raw_from_article(r.article)
                     for r in c.records], str(path))
                rep_path = out / "cleaning_report.json"
                with open(rep_path, "w", encoding="utf-8") as fh:
                    json.dump({"kept": len(c.records),
                               "dropped": dict(c.cleaning_report)},
                              fh, sort_keys=True, indent=2)
                    fh.write("\n")
                record(stage, [str(path), str(rep_path)])
            elif stage == "rud":
                path = out / "rud.csv"
                rud_mod.write_rud_csv(rud_obs(), str(path))
                record(stage, [str(path)])
            elif stage == "normality":
                rows = [{"scope": o.scope, "rud": o.rud}
                        for o in rud_obs()]
                path = out / "normality.txt"
                path.write_text(_normality_report(rows),
                                encoding="utf-8")
                record(stage, [str(path)])
            elif stage == "transform":
                by_scope: dict[str, list[float]] = {}
                for o in rud_obs():
                    by_scope.setdefault(o.scope, []).append(o.rud)
                fits = {s: diststat.fit_transform_spec(v)
                        for s, v in sorted(by_scope.items())}
                state["transform"] = {s: f.spec for s, f in fits.items()}
                path = out / "transform.cfg"
                write_transform_cfg(fits, str(path))
                record(stage, [str(path)])
            elif stage == "regress":
                c = cleaned()
                models = _parse_models(config.get("models", "M1..M9"))
                windows = _parse_windows(config.get("windows", "default"),
                                         _year_span(c))
                tr = config.get("transform")
                specs = None
                if tr and tr != "fit":
                    specs = read_transform_cfg(tr)
                elif state["transform"] is not None:
                    specs = state["transform"]
                scope_cfg = config.get("scope", "all")
                scopes = None if scope_cfg == "all" else [scope_cfg]
                result = linmod.roll_window_run(
                    c, windows=windows, model_ids=models,
                    method=config.get("method", "ols"), scopes=scopes,
                    transform_specs=specs)
                path = out / "regress.csv"
                result.to_csv(str(path))
                record(stage, [str(path)])
            elif stage == "panel":
                c = cleaned()
                for key in ("panel_from", "panel_to"):
                    if not config.get(key):
                        raise ValueError(f"panel stage needs {key}")
                data = panel_mod.build_panel(
                    c, start=date.fromisoformat(config.get("panel_from")),
                    end=date.fromisoformat(config.get("panel_to")),
                    top_n=int(config.get("panel_top", "11")),
                    scope=config.get("scope", rud_mod.CONSOLIDATED))
                fit = panel_mod.re_egls_fit(
                    data,
                    weighted=config.get("panel_weighted",
                                        "false").lower() == "true",
                    weight_mode=config.get("panel_weight_mode", "multiply"),
                    trend_base=config.get("trend_base", "log10"))
                path = out / "panel.csv"
                write_panel_csv(fit, str(path))
                record(stage, [str(path)])
            elif stage == "lq":
                c = cleaned()
                select = config.get("select")
                if not select:
                    raise ValueError("lq stage needs select")
                entries = geo.localization_quotient(
                    c, geo.parse_selection(select))
                breaks = geo.jenks_breaks(
                    [e.lq for e in entries],
                    int(config.get("classes", "5")))
                csv_path = out / "lq.csv"
                geojson_path = out / "lq.geojson"
                geo.export_choropleth(entries, breaks, str(csv_path),
                                      str(geojson_path),
                                      all_countries=sorted(countries))
                record(stage, [str(csv_path), str(geojson_path)])
    except (ValueError, OSError) as exc:
        failed_marker.write_text(f"stage={current}\nerror={exc}\n",
                                 encoding="utf-8")
        report_stages.append({"name": current, "status": "failed",
                              "error": str(exc)})
        _write_run_report(out, config, report_stages)
        print(f"error: stage {current} failed: {exc}", file=sys.stderr)
        return 1

    _write_run_report(out, config, report_stages)
    _echo(f"pipeline complete: {', '.join(stages)} -> {out_dir}")
    return 0


def _write_run_report(out: Path, config: RunConfig, stages: list) -> None:
    report = {"config_sha256": config.sha256, "version": __version__,
              "stages": stages}
    with open(out / "run_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_pipeline(args) -> int:
    config = load_run_config(args.config)
    return run_pipeline(config)


# -- argument wiring --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwe",
        description="Day-of-week submission effect analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="parse an archive directory")
    p.add_argument("--style", required=True, choices=harvest.HISTORY_STYLES)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--countries", default="builtin")
    p.add_argument("--journal", required=True)
    p.add_argument("--first-id", type=int, default=1)
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("clean", help="validate and filter a corpus CSV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--countries", default="builtin")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("rud", help="weekly concentration ratios")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--countries", default="builtin")
    p.add_argument("--scope", default=rud_mod.CONSOLIDATED,
                   choices=("journal", rud_mod.CONSOLIDATED))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rud)

    p = sub.add_parser("normality", help="moment and JB report")
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("transform", help="fit the normality transform")
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("regress", help="model ladder over year windows")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--countries", default="builtin")
    p.add_argument("--scope", default="all")
    p.add_argument("--models", default="M1..M9")
    p.add_argument("--method", default="ols", choices=("ols", "rls"))
    p.add_argument("--windows", default="default")
    p.add_argument("--transform", default="fit")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("panel", help="daily country panel EGLS")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--countries", default="builtin")
    p.add_argument("--scope", default=rud_mod.CONSOLIDATED)
    p.add_argument("--top", type=int, default=11)
    p.add_argument("--from", dest="from_date", required=True)
    p.add_argument("--to", dest="to_date", required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--weight-mode", default="multiply",
                   choices=("multiply", "wls"))
    p.add_argument("--trend-base", default="log10",
                   choices=("log10", "ln"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_panel)

    p = sub.add_parser("lq", help="localization quotients and breaks")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--countries", default="builtin")
    p.add_argument("--select", required=True)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--geojson", required=True)
    p.set_defaults(func=cmd_lq)

    p = sub.add_parser("pipeline", help="run stages from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
