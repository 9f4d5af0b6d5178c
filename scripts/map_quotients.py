#!/usr/bin/env python3
"""Country quotients for a day selection, classified and exported.

Runs the geographic tail of the pipeline on a synthetic corpus: evaluate
a selection expression over every record, compute per-country quotients
against the world share, cut them into natural-breaks classes, and write
both the flat CSV and the GeoJSON property layer, with a null row for each
shipped-table country without articles, as `dwe lq` writes.
"""

import argparse
from pathlib import Path

from dwe import corpus as corpus_mod, geo, synth


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--select", default="weekday in 6, 7",
                    help="selection expression, e.g. 'weekday = 1 AND "
                         "journal = alpha'")
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--out-dir", default="out/map")
    args = ap.parse_args(argv)

    cfg = synth.SynthConfig(seed=args.seed, start_year=2012, end_year=2014,
                            articles_per_week=30.0,
                            journals=("alpha", "beta"))
    corpus = synth.make_corpus(cfg)
    selection = geo.parse_selection(args.select)
    entries = geo.localization_quotient(corpus, selection)
    breaks = geo.jenks_breaks([e.lq for e in entries], args.classes)

    print(f"selection: {args.select}")
    print(f"{'country':<8} {'selected':>9} {'total':>7} {'lq':>9}  class")
    for e in sorted(entries, key=lambda e: -e.lq):
        cls = breaks.class_of(e.lq)
        print(f"{e.country:<8} {e.selected_count:>9} {e.total_count:>7} "
              f"{e.lq:>9.2f}  {cls + 1}")
    bounds = ", ".join(f"{b:.2f}" for b in breaks.boundaries)
    print(f"\n{args.classes} classes; lower bounds of classes 2..k: "
          f"[{bounds}]")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    geo.export_choropleth(
        entries, breaks, str(out / "lq.csv"), str(out / "lq.geojson"),
        all_countries=sorted(corpus_mod.load_default_countries()))
    print(f"wrote {out / 'lq.csv'} and {out / 'lq.geojson'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
