"""Spans around the public functions of each ``dwe`` module, from outside.

Run as a script, this is a drop-in for ``python -m dwe.cli``:

    python3 perfbench/tracing.py SPANS.json SPAWN_MONOTONIC pipeline --config run.cfg

It imports ``dwe``, wraps the functions in ``WRAPPED`` at every name that
binds them (modules import functions by name: ``linmod`` binds
``fit_transform_spec`` and ``build_rud_dataset``, ``panel`` binds
``build_rud_dataset``), runs the command, and at exit writes every span
with its parent id to SPANS.json.  Nothing inside ``src/dwe`` changes.

Functions called once per article or per observation (``derive_features``,
``apply_transform_steps``, ``normalize_country`` and the like) are not
wrapped: their time sits in the self time of the wrapped caller, and a
span per call would cost more than the work.  The harvest converters are
the exception the per-layer metrics ask for.

``layer_metrics`` turns a spans file into the per-layer metrics; a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _len0(args, result):
    return {"n": len(result)}


def _harvest(args, result):
    return {"records": len(result[0]), "skipped": len(result[1])}


def _clean(args, result):
    dropped = sum(result.cleaning_report.values())
    return {"rows_in": len(result.records) + dropped,
            "rows_kept": len(result.records), "rows_dropped": dropped}


def _fit_obs(args, result):
    return {"n": len(args[0])}


def _roll(args, result):
    bad = {(r.scope, r.window, r.model_id) for r in result.rows
           if r.marker.startswith("failed:") or r.marker == "empty"}
    return {"failed_cells": len(bad)}


def _rls(args, result):
    return {"iterations": result.iterations}


def _panel_cells(args, result):
    return {"n": len(result.cells)}


def _egls(args, result):
    return {"clamped": int(result.clamped)}


#: module -> {public function: counter(args, result) -> dict or None}
WRAPPED = {
    "cli": {"load_run_config": None, "run_pipeline": None,
            "write_transform_cfg": None, "read_transform_cfg": None,
            "write_panel_csv": None},
    "harvest": {"build_name_lookup": None, "harvest_directory": _harvest,
                "parse_jats_article": None, "parse_article_cards": None,
                "card_to_raw_record": None, "jats_to_raw_record": None},
    "corpus": {"load_default_countries": None, "read_corpus_csv": None,
               "clean_corpus": _clean, "write_corpus_csv": None},
    "rud": {"build_rud_dataset": _len0, "attach_transform": None,
            "write_rud_csv": None},
    "diststat": {"moments": None, "jarque_bera": None,
                 "fit_transform_spec": _fit_obs},
    "linmod": {"roll_window_run": _roll, "build_design": None,
               "ols_fit": None, "rls_fit": _rls},
    "panel": {"build_panel": _panel_cells, "re_egls_fit": _egls},
    "geo": {"parse_selection": None, "localization_quotient": _len0,
            "jenks_breaks": None, "export_choropleth": None},
}
LAYERS = tuple(WRAPPED)


class Tracer:
    """In-memory spans: [id, parent id or -1, "module.function", start,
    end, counts or None], times from ``time.monotonic``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(),
                    0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, result)
                except (AttributeError, TypeError, IndexError):
                    span[5] = {"counter_failed": 1}  # the result changed
            return result
        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in dwe.*.

        A function the program no longer has is listed in ``missing`` and
        its metrics read 0.
        """
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dwe" or name.startswith("dwe.")}
        for layer, functions in WRAPPED.items():
            home = modules[f"dwe.{layer}"]
            for fname, counter in functions.items():
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original, counter)
                bound = []
                for mod_name, mod in sorted(modules.items()):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            bound.append(f"{mod_name}.{attr}")
                self.bindings[f"{layer}.{fname}"] = bound

    def dump(self, path: str, **stamps) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**stamps, "bindings": self.bindings,
                       "missing": self.missing, "spans": self.spans}, fh,
                      separators=(",", ":"))


def main(argv: list[str]) -> int:
    spans_path, spawn = argv[0], float(argv[1])
    import dwe.cli
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        code = dwe.cli.main(argv[2:])
    finally:
        tracer.dump(spans_path, spawn=spawn, imported=imported,
                    done=time.monotonic())
    return code


# -- per-layer metrics ------------------------------------------------------

#: per-layer metric names, in report order
METRICS = (
    "cli.startup_s", "cli.self_s",
    "harvest.busy_s", "harvest.jats_parse_s", "harvest.card_parse_s",
    "harvest.convert_s", "harvest.files", "harvest.records",
    "harvest.skipped",
    "corpus.busy_s", "corpus.read_s", "corpus.clean_s", "corpus.write_s",
    "corpus.rows_in", "corpus.rows_kept", "corpus.rows_dropped",
    "rud.busy_s", "rud.build_s", "rud.build_calls", "rud.attach_s",
    "rud.write_s", "rud.observations",
    "diststat.busy_s", "diststat.fit_s", "diststat.fit_calls",
    "diststat.fit_obs", "diststat.moments_s",
    "linmod.busy_s", "linmod.run_s", "linmod.run_self_s", "linmod.design_s",
    "linmod.design_calls", "linmod.ols_s", "linmod.rls_s", "linmod.fits",
    "linmod.rls_iterations", "linmod.failed_cells",
    "panel.busy_s", "panel.build_s", "panel.fit_s", "panel.cells",
    "panel.clamped",
    "geo.busy_s", "geo.lq_s", "geo.jenks_s", "geo.export_s",
    "geo.countries",
    "trace.overhead_s", "trace.unaccounted_s", "trace.exit_s",
)


def layer_metrics(trace: dict, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from a spans file's contents.

    Layer ``busy_s`` (``cli.self_s`` for cli) is the summed self time of
    the layer's spans, so startup, the busy times and ``unaccounted_s``
    add up to the traced wall time exactly; ``unaccounted_s`` says how much
    the spans miss.  Of it, ``exit_s`` is the time from the end of the
    command to process exit (writing the spans, interpreter shutdown).
    """
    spans = trace["spans"]
    child_time = defaultdict(float)
    for _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    total = defaultdict(float)   # inclusive seconds by function
    selfs = defaultdict(float)   # self seconds by function
    calls = defaultdict(int)
    counts = defaultdict(int)    # "function.counter" -> sum
    roots = 0.0
    for sid, parent, name, t0, t1, extra in spans:
        total[name] += t1 - t0
        selfs[name] += t1 - t0 - child_time[sid]
        calls[name] += 1
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
        if parent < 0:
            roots += t1 - t0

    def layer_self(layer: str) -> float:
        return sum((v for k, v in selfs.items()
                    if k.startswith(layer + ".")), 0.0)

    startup = trace["imported"] - trace["spawn"]
    m = {
        "cli.startup_s": startup,
        "cli.self_s": layer_self("cli"),
        "harvest.jats_parse_s": total["harvest.parse_jats_article"],
        "harvest.card_parse_s": total["harvest.parse_article_cards"],
        "harvest.convert_s": total["harvest.card_to_raw_record"]
        + total["harvest.jats_to_raw_record"],
        "harvest.files": calls["harvest.parse_jats_article"]
        + calls["harvest.parse_article_cards"],
        "harvest.records": counts["harvest.harvest_directory.records"],
        "harvest.skipped": counts["harvest.harvest_directory.skipped"],
        "corpus.read_s": total["corpus.read_corpus_csv"],
        "corpus.clean_s": total["corpus.clean_corpus"],
        "corpus.write_s": total["corpus.write_corpus_csv"],
        "corpus.rows_in": counts["corpus.clean_corpus.rows_in"],
        "corpus.rows_kept": counts["corpus.clean_corpus.rows_kept"],
        "corpus.rows_dropped": counts["corpus.clean_corpus.rows_dropped"],
        "rud.build_s": total["rud.build_rud_dataset"],
        "rud.build_calls": calls["rud.build_rud_dataset"],
        "rud.attach_s": total["rud.attach_transform"],
        "rud.write_s": total["rud.write_rud_csv"],
        "rud.observations": counts["rud.build_rud_dataset.n"],
        "diststat.fit_s": total["diststat.fit_transform_spec"],
        "diststat.fit_calls": calls["diststat.fit_transform_spec"],
        "diststat.fit_obs": counts["diststat.fit_transform_spec.n"],
        "diststat.moments_s": total["diststat.moments"],
        "linmod.run_s": total["linmod.roll_window_run"],
        "linmod.run_self_s": selfs["linmod.roll_window_run"],
        "linmod.design_s": total["linmod.build_design"],
        "linmod.design_calls": calls["linmod.build_design"],
        "linmod.ols_s": total["linmod.ols_fit"],
        "linmod.rls_s": total["linmod.rls_fit"],
        "linmod.fits": calls["linmod.ols_fit"] + calls["linmod.rls_fit"],
        "linmod.rls_iterations": counts["linmod.rls_fit.iterations"],
        "linmod.failed_cells": counts["linmod.roll_window_run.failed_cells"],
        "panel.build_s": total["panel.build_panel"],
        "panel.fit_s": total["panel.re_egls_fit"],
        "panel.cells": counts["panel.build_panel.n"],
        "panel.clamped": counts["panel.re_egls_fit.clamped"],
        "geo.lq_s": total["geo.localization_quotient"],
        "geo.jenks_s": total["geo.jenks_breaks"],
        "geo.export_s": total["geo.export_choropleth"],
        "geo.countries": counts["geo.localization_quotient.n"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - startup - roots,
        "trace.exit_s": trace["spawn"] + traced_wall - trace["done"],
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.busy_s"] = layer_self(layer)
    return {name: m[name] for name in METRICS}


def counter_failures(trace: dict) -> list[str]:
    """Functions whose counts could not be read from their results."""
    return sorted({span[2] for span in trace["spans"]
                   if span[5] and "counter_failed" in span[5]})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
