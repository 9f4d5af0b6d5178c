"""Command-line interface.

Each stage is one entry of the ordered ``STAGES`` table: its name and
help line, the config keys it reads, the files it writes and one
``run(ctx)``.  Each config key is one ``Key``: its default, its parse
with its checks, and its subcommand flag.

``dwe pipeline --config run.cfg`` runs the configured stages in table
order and writes one report; ``dwe <stage> ...`` runs one stage from one
flag per config key it reads and prints its summary.

Outputs carry no timestamps; identical inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__, corpus as corpus_mod, diststat, geo, harvest, \
    linmod, panel as panel_mod, rud as rud_mod


def _parse_models(text: str) -> tuple[str, ...]:
    ids = list(linmod.MODEL_TERMS)
    lo, dots, hi = text.strip().partition("..")
    if dots:
        if lo not in ids or hi not in ids or ids.index(hi) < ids.index(lo):
            raise ValueError(f"bad model range {text.strip()!r}")
        return tuple(ids[ids.index(lo):ids.index(hi) + 1])
    models = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in models:
        if m not in ids:
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
        windows.append((corpus_mod.parse_int(lo.strip()),
                        corpus_mod.parse_int(hi.strip())))
    linmod.validate_windows(windows)
    return tuple(windows)


def _regress_scopes(text: str, journals: tuple[str, ...]) -> list[str]:
    """The scopes regress fits: `all` is consolidated and every journal."""
    if text not in ("all", "journal", rud_mod.CONSOLIDATED, *journals):
        raise ValueError(f"unknown scope {text!r}; have all, "
                         f"{', '.join(rud_mod.SCOPES)} or a journal name")
    return {"all": [rud_mod.CONSOLIDATED, *journals],
            "journal": list(journals)}.get(text, [text])


def _year_span(c: corpus_mod.Corpus) -> tuple[int, int]:
    years = c.columns.year
    if not years.size:
        raise ValueError("empty corpus")
    return (int(years.min()), int(years.max()))


# -- config keys ------------------------------------------------------------

@dataclass(frozen=True)
class Key:
    """A config key: the text an unset or empty key takes (None: the key
    is required), ``parse(text, *corpus facts)`` with its range or enum
    checks, its subcommand flag (``--<name>`` with dashes by default) and
    the flag's choices."""

    name: str
    default: str | None
    parse: Callable[..., Any] = str
    flag: str = ""
    choices: tuple[str, ...] = ()


def _enum(name: str, default: str | None, what: str,
          values: tuple[str, ...], flag: str = "") -> Key:
    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(
                f"unknown {what} {text!r}; have {' or '.join(values)}")
        return text
    return Key(name, default, parse, flag, choices=values)


CORPUS = Key("corpus", None, flag="--in")
COUNTRIES = Key("countries", "builtin")
HARVEST_IN = Key("harvest_in", None, flag="--in")
HARVEST_STYLE = _enum("harvest_style", None, "history style",
                      harvest.HISTORY_STYLES, flag="--style")
HARVEST_JOURNAL = Key("harvest_journal", None, flag="--journal")
#: the scope of rud, normality, transform and panel; regress's also takes
#: `all` and one journal's name
SCOPE = _enum("scope", rud_mod.CONSOLIDATED, "scope", rud_mod.SCOPES)
REGRESS_SCOPE = Key("scope", "all", _regress_scopes)
MODELS = Key("models", "M1..M9", _parse_models)
METHOD = _enum("method", "ols", "method", linmod.METHODS)
WINDOWS = Key("windows", "default", _parse_windows)
TRANSFORM = Key("transform", "fit")
PANEL_FROM = Key("panel_from", None, corpus_mod.parse_date, "--from")
PANEL_TO = Key("panel_to", None, lambda text, start: panel_mod.check_end(
    start, corpus_mod.parse_date(text)), "--to")
PANEL_TOP = Key("panel_top", "11", lambda text: panel_mod.check_top_n(
    corpus_mod.parse_int(text)), "--top")
PANEL_WEIGHTING = _enum("panel_weighting", "none", "weighting",
                        panel_mod.WEIGHTINGS, flag="--weighting")
SELECT = Key("select", None, geo.parse_selection)
CLASSES = Key("classes", "5",
              lambda text: geo.check_classes(corpus_mod.parse_int(text)))


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
    for lineno, line in corpus_mod.content_lines(corpus_mod.read_text(path)):
        # the scope, which may hold spaces, is all before the last
        # three tokens
        fields = dict(tok.partition("=")[::2]
                      for tok in line.rsplit(" ", 3))
        with corpus_mod.located(f"{path} line {lineno}"):
            with corpus_mod.located("bad transform spec", KeyError):
                scope = fields["scope"]
                fam, _, param = fields["step1"].partition(":")
                _, _, lam2 = fields["step2"].partition(":")
                spec = diststat.TransformSpec(
                    step1_family=fam, step1_param=float(param),
                    step2_power=float(lam2))
            if specs.setdefault(scope, spec) is not spec:
                raise ValueError(f"duplicate scope {scope!r}")
    return specs


def write_panel_csv(fit: panel_mod.PanelFit, path: str) -> None:
    summary = [("_adjusted_r2", fit.adjusted_r_squared),
               ("_sigma2_country", fit.sigma2_country),
               ("_sigma2_idio", fit.sigma2_idio),
               ("_rho_share", fit.rho_share),
               ("_rho_ratio", fit.rho_ratio),
               ("_n_cells", fit.n_cells),
               ("_n_countries", fit.n_countries),
               ("_clamped", fit.clamped)]
    summary += [(f"_theta_{iso}", fit.theta[iso]) for iso in sorted(fit.theta)]
    pad = (None,) * 4
    rows = [*zip(fit.columns, fit.coefficients.tolist(),
                 fit.standard_errors.tolist(), fit.t_stats.tolist(),
                 fit.p_values.tolist(), fit.stars),
            *((key, float(value), *pad)  # a count too, as 123.0
              for key, value in summary),
            *((f"_dropped_{name}", None, *pad)
              for name in fit.dropped_columns)]
    corpus_mod.write_table(path, ("term", "coefficient", "std_error",
                                  "t_stat", "p_value", "stars"), rows)


# -- run context ------------------------------------------------------------

def _json_text(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class RunContext:
    """What the stages of one run share.

    ``config`` maps config keys to their string values.  ``paths`` maps
    each stage output file name to where it is written, or to None when
    this run does not write it.  ``first_id`` is an input only the
    harvest subcommand gives.  The countries, corpus rows, cleaned corpus
    and the RUD table load on first use and are kept for the later
    stages.
    """

    def __init__(self, config: Mapping[str, str],
                 paths: Mapping[str, str | None], first_id: int = 1) -> None:
        self.config = config
        self.paths = paths
        self.first_id = first_id
        self.fitted_specs: dict[str, diststat.TransformSpec] | None = None

    def value(self, key: Key, *context: Any) -> Any:
        """The key's parsed value, else its parsed default; an unset
        required key or a rejected value raises naming the key."""
        text = self.config.get(key.name) or key.default
        with corpus_mod.located(key.name):
            if text is None:
                raise ValueError("required, not set")
            return key.parse(text, *context)

    def write_text(self, name: str, text: str) -> None:
        """Write output ``name`` if this run gives it a path."""
        if self.paths.get(name):
            Path(self.paths[name]).write_text(text, encoding="utf-8")

    @functools.cached_property
    def countries(self) -> dict[str, corpus_mod.CountryProfile]:
        path = self.value(COUNTRIES)
        return corpus_mod.load_default_countries() \
            if path == COUNTRIES.default \
            else corpus_mod.read_countries_cfg(path)

    @functools.cached_property
    def rows(self) -> list[corpus_mod.RawRecord]:
        """The corpus: a harvest stage's records, else the corpus file."""
        return corpus_mod.read_corpus_csv(self.value(CORPUS))

    @functools.cached_property
    def cleaned(self) -> corpus_mod.Corpus:
        countries = self.countries  # before the rows: its error wins
        return corpus_mod.clean_corpus(self.rows, countries)

    @functools.cached_property
    def rud(self) -> rud_mod.RudTable:
        return rud_mod.build_rud_dataset(self.cleaned, self.value(SCOPE))

    def by_scope(self, fn: Callable[[np.ndarray], Any]) -> dict[str, Any]:
        """``fn`` of each scope's ratios, in scope order; its ValueError
        is prefixed with ``scope=<name>: ``, and no ratios is an error."""
        tables = self.rud.by_scope()
        if not tables:
            raise ValueError("cleaned corpus: no observations")
        results = {}
        for scope, table in tables.items():
            with corpus_mod.located(f"scope={scope}"):
                results[scope] = fn(table.rud)
        return results


# -- stages -----------------------------------------------------------------
# Each run(ctx) writes the files whose paths ctx gives and returns the
# summary the subcommand prints.

def _run_harvest(ctx: RunContext) -> str:
    in_dir = ctx.value(HARVEST_IN)
    rows, skipped = harvest.harvest_directory(
        in_dir, ctx.value(HARVEST_STYLE), ctx.value(HARVEST_JOURNAL),
        harvest.build_name_lookup(ctx.countries), first_id=ctx.first_id)
    ctx.rows = rows
    out = ctx.paths["corpus.csv"]
    corpus_mod.write_corpus_csv(rows, out)
    ctx.write_text("harvest_skipped.txt", "".join(
        f"{name}\t{reason}\n" for name, reason in skipped))
    lines = [f"harvested {len(rows)} records from {in_dir} -> {out}"]
    lines += [f"skipped {name}: {reason}" for name, reason in skipped]
    return "\n".join(lines)


def _run_clean(ctx: RunContext) -> str:
    c = ctx.cleaned
    corpus_mod.write_corpus_csv(c.records, ctx.paths["cleaned.csv"])
    report = {"input": len(ctx.rows), "kept": len(c.records),
              "dropped": dict(c.cleaning_report)}
    ctx.write_text("cleaning_report.json", _json_text(report))
    dropped = ", ".join(f"{k}={v}"
                        for k, v in sorted(report["dropped"].items()))
    return (f"kept {report['kept']}/{report['input']} records; "
            f"dropped {dropped}")


def _run_rud(ctx: RunContext) -> str:
    out = ctx.paths["rud.csv"]
    rud_mod.write_rud_csv(ctx.rud, out)
    return f"wrote {len(ctx.rud)} ratio observations -> {out}"


def _normality_block(values: np.ndarray) -> str:
    lines = [f"n={len(values)}"]
    for label, sample in (("raw", values),
                          ("log10", np.log10(values))):
        m = diststat.moments(sample)
        jb = diststat.jarque_bera(m)
        lines.append(
            f"  {label:<6} mean={m.mean:.6f} skew={m.skewness:.6f} "
            f"kurt={m.excess_kurtosis:.6f} jb={jb.statistic:.4f} "
            f"crit={jb.critical_value} "
            f"{'reject' if jb.reject_null else 'accept'}")
    return "\n".join(lines)


def _run_normality(ctx: RunContext) -> str:
    text = "\n".join(f"scope={scope} {block}" for scope, block
                     in ctx.by_scope(_normality_block).items())
    ctx.write_text("normality.txt", text + "\n")
    return text


def _run_transform(ctx: RunContext) -> str:
    fits = ctx.by_scope(diststat.fit_transform_spec)
    ctx.fitted_specs = {scope: f.spec for scope, f in fits.items()}
    write_transform_cfg(fits, ctx.paths["transform.cfg"])
    return "\n".join(f"{scope}: {f.spec.describe()}  jb={f.jb_statistic:.4f}"
                     for scope, f in fits.items())


def _run_regress(ctx: RunContext) -> str:
    c = ctx.cleaned
    models, method = ctx.value(MODELS), ctx.value(METHOD)
    windows = ctx.value(WINDOWS, _year_span(c))
    scopes = ctx.value(REGRESS_SCOPE, c.columns.journals)
    # fit: the specs of this run's transform stage, else fit per scope
    path = ctx.value(TRANSFORM)
    specs = ctx.fitted_specs if path == TRANSFORM.default \
        else read_transform_cfg(path)
    report = linmod.roll_window_run(
        c, windows=windows, model_ids=models, method=method, scopes=scopes,
        transform_specs=specs)
    out = ctx.paths["regress.csv"]
    report.to_csv(out)
    return f"wrote {len(report.rows)} result rows -> {out}"


def _run_panel(ctx: RunContext) -> str:
    start, c = ctx.value(PANEL_FROM), ctx.cleaned
    end, top_n = ctx.value(PANEL_TO, start), ctx.value(PANEL_TOP)
    scope = ctx.value(SCOPE)
    with corpus_mod.located(PANEL_TOP.name):  # fewer countries than top_n
        data = panel_mod.build_panel(c, start=start, end=end, top_n=top_n,
                                     scope=scope)
    fit = panel_mod.re_egls_fit(data, weighting=ctx.value(PANEL_WEIGHTING))
    out = ctx.paths["panel.csv"]
    write_panel_csv(fit, out)
    clamped = " (country variance clamped to 0)" if fit.clamped else ""
    return (f"panel: {fit.n_cells} cells, {fit.n_countries} "
            f"countries, rho_share={fit.rho_share:.6f}{clamped}\n"
            f"wrote -> {out}")


def _run_lq(ctx: RunContext) -> str:
    c = ctx.cleaned
    selection, classes = ctx.value(SELECT), ctx.value(CLASSES)
    entries = geo.localization_quotient(c, selection)
    with corpus_mod.located(CLASSES.name):  # fewer quotients than classes
        breaks = geo.jenks_breaks([e.lq for e in entries], classes)
    csv_path, geojson_path = ctx.paths["lq.csv"], ctx.paths["lq.geojson"]
    skipped = geo.export_choropleth(entries, breaks, csv_path, geojson_path,
                                    all_countries=sorted(ctx.countries))
    summary = (f"{len(entries)} countries classified into {classes} "
               f"classes -> {csv_path}, {geojson_path}")
    if skipped:
        summary += "\nskipped (not joinable): " + ", ".join(skipped)
    return summary


@dataclass(frozen=True)
class Stage:
    name: str
    help: str
    keys: tuple[Key, ...]     # config keys read, through ctx included
    outputs: tuple[str, ...]  # files written, as named in out_dir
    run: Callable[[RunContext], str]


STAGES: tuple[Stage, ...] = (
    Stage("harvest", "parse an archive directory",
          (HARVEST_IN, HARVEST_STYLE, HARVEST_JOURNAL, COUNTRIES),
          ("corpus.csv", "harvest_skipped.txt"), _run_harvest),
    Stage("clean", "validate and filter a corpus CSV", (CORPUS, COUNTRIES),
          ("cleaned.csv", "cleaning_report.json"), _run_clean),
    Stage("rud", "weekly concentration ratios", (CORPUS, COUNTRIES, SCOPE),
          ("rud.csv",), _run_rud),
    Stage("normality", "moment and JB report", (CORPUS, COUNTRIES, SCOPE),
          ("normality.txt",), _run_normality),
    Stage("transform", "fit the normality transform",
          (CORPUS, COUNTRIES, SCOPE), ("transform.cfg",), _run_transform),
    Stage("regress", "model ladder over year windows",
          (CORPUS, COUNTRIES, REGRESS_SCOPE, MODELS, METHOD, WINDOWS,
           TRANSFORM), ("regress.csv",), _run_regress),
    Stage("panel", "daily country panel EGLS",
          (CORPUS, COUNTRIES, SCOPE, PANEL_FROM, PANEL_TO, PANEL_TOP,
           PANEL_WEIGHTING), ("panel.csv",), _run_panel),
    Stage("lq", "localization quotients and breaks",
          (CORPUS, COUNTRIES, SELECT, CLASSES), ("lq.csv", "lq.geojson"),
          _run_lq),
)

STAGE_BY_NAME = {stage.name: stage for stage in STAGES}

#: every Key of the table, in stage order
KEYS = tuple(dict.fromkeys(key for s in STAGES for key in s.keys))
KNOWN_KEYS = {"stages", "out_dir"} | {key.name for key in KEYS}


# -- pipeline ---------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration: the parsed keys, the configured
    stage names in table order and the sha256 of the config text."""

    raw: dict
    stages: tuple[str, ...]
    sha256: str


def load_run_config(path: str) -> RunConfig:
    """Parse `key = value` lines; unknown or repeated keys and stages
    reject.  The stages themselves read the files the keys name."""
    text = corpus_mod.read_text(path)
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in corpus_mod.content_lines(text):
        with corpus_mod.located(f"{path} line {lineno}"):
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError("expected key = value")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ValueError(f"unknown key {key!r}")
            if key in raw:
                raise ValueError(f"duplicate key {key!r}")
        raw[key], line_of[key] = value.strip(), lineno
    names = [s.strip() for s in raw.get("stages", "").split(",") if s.strip()]
    with corpus_mod.located(f"{path} line {line_of.get('stages')}"):
        for i, stage in enumerate(names):
            if stage not in STAGE_BY_NAME:
                raise ValueError(f"unknown stage {stage!r}")
            if stage in names[:i]:
                raise ValueError(f"duplicate stage {stage!r}")
    return RunConfig(raw=raw,
                     stages=tuple(s.name for s in STAGES if s.name in names),
                     sha256=hashlib.sha256(text.encode()).hexdigest())


def _mark_failed(out: Path, stage: str, error: Exception) -> None:
    """Write ``out``'s FAILED marker, naming the stage and its error."""
    (out / "FAILED").write_text(f"stage={stage}\nerror={error}\n",
                                encoding="utf-8")


def run_pipeline(config: RunConfig) -> int:
    """Run the configured stages into ``out_dir``; the first that raises
    writes the ``FAILED`` marker and ends the run."""
    if not config.stages:
        print("no stages configured; nothing to do")
        return 0
    out_dir = config.raw.get("out_dir")
    if not out_dir:
        raise ValueError("out_dir is required when stages are configured")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "FAILED").unlink(missing_ok=True)

    ctx = RunContext(config.raw, {name: str(out / name) for s in STAGES
                                  for name in s.outputs})
    stages: list[dict] = []
    error = None
    for name in config.stages:
        stage = STAGE_BY_NAME[name]
        try:
            stage.run(ctx)
        except (ValueError, OSError) as exc:
            error = exc
            _mark_failed(out, name, exc)
            stages.append({"name": name, "status": "failed",
                           "error": str(exc)})
            break
        stages.append({"name": name, "status": "ok",
                       "outputs": list(stage.outputs)})
    (out / "run_report.json").write_text(_json_text(
        {"config_sha256": config.sha256, "version": __version__,
         "stages": stages}), encoding="utf-8")
    if error is not None:
        print(f"error: stage {name} failed: {error}", file=sys.stderr)
        return 1
    print(f"pipeline complete: {', '.join(config.stages)} -> {out_dir}")
    return 0


def cmd_pipeline(args) -> int:
    """Run a config's stages; a rejected one marks its out_dir failed."""
    try:
        config = load_run_config(args.config)
    except ValueError as exc:
        text = Path(args.config).read_text(encoding="utf-8", errors="replace")
        pairs = [line.partition("=")
                 for _, line in corpus_mod.content_lines(text)]
        out = next((Path(v.strip()) for k, _, v in pairs
                    if k.strip() == "out_dir" and v.strip()), None)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            (out / "run_report.json").unlink(missing_ok=True)
            _mark_failed(out, "config", exc)
        raise
    return run_pipeline(config)


def cmd_stage(args) -> int:
    """Run one stage from its subcommand's arguments: the key flags given
    are its config, and ``args.outputs`` names, per output file, the
    destination holding its path (None: not written).  The stage's
    summary goes to stdout."""
    stage = STAGE_BY_NAME[args.command]
    config = {key.name: getattr(args, key.name) for key in stage.keys
              if getattr(args, key.name, None) is not None}
    paths = {name: getattr(args, dest) if dest else None
             for name, dest in zip(stage.outputs, args.outputs)}
    ctx = RunContext(config, paths, first_id=getattr(args, "first_id", 1))
    print(stage.run(ctx))
    return 0


# -- argument wiring --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwe",
        description="Day-of-week submission effect analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def stage_parser(name: str, outputs: tuple) -> argparse.ArgumentParser:
        # one string flag per key, absent unless given
        stage = STAGE_BY_NAME[name]
        p = sub.add_parser(name, help=stage.help)
        p.set_defaults(func=cmd_stage, outputs=outputs)
        for key in stage.keys:
            flag = key.flag or "--" + key.name.replace("_", "-")
            p.add_argument(flag, dest=key.name, required=key.default is None,
                           choices=key.choices or None)
        if "out" in outputs:
            p.add_argument("--out", required=True)
        return p

    stage_parser("harvest", ("out", None)).add_argument(
        "--first-id", type=corpus_mod.parse_int, default=1)
    stage_parser("clean", ("out", "report")).add_argument("--report")
    stage_parser("rud", ("out",))
    stage_parser("normality", (None,))
    stage_parser("transform", ("out",))
    stage_parser("regress", ("out",))
    stage_parser("panel", ("out",))
    stage_parser("lq", ("out", "geojson")).add_argument("--geojson",
                                                         required=True)

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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
