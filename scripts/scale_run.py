#!/usr/bin/env python3
"""Time the ``ladder`` pipeline of two source trees at a chosen scale.

    python scripts/scale_run.py --a OLD_TREE --b NEW_TREE [--per-week 800]
        [--pairs 3] [--work DIR] [--json FILE]

A tree is a checkout holding ``src/dwe``.  The corpus is the
``SynthConfig(seed=7)`` draw for 2010-2015 with three journals, at
``--per-week`` articles a week (800 gives 250,078 articles), drawn by the
``dwe`` this script imports.  Both trees then run ``dwe pipeline`` over it
with the ``ladder`` stages (clean, rud, normality, transform, regress;
M1..M9 over 2010-2012 and 2013-2015), one process at a time, in
interleaved pairs whose order alternates.  Each run prints its wall time
and its peak RSS, taken from ``os.wait4``'s rusage of that one process,
and each pair says whether the two trees' output files hash equal.

The exit code is 1 when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from dwe import corpus, synth

JOURNALS = ("alpha-letters", "beta-reports", "gamma-review")
CONFIG = """stages = clean, rud, normality, transform, regress
out_dir = out
corpus = ../corpus.csv
models = M1..M9
windows = 2010-2012, 2013-2015
"""


def _hashes(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted(out.rglob("*")) if p.is_file()}


def _run(tree: Path, work: Path) -> dict:
    """One pipeline process of ``tree`` in ``work``: wall, RSS, outputs."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dwe.cli", "pipeline", "--config", "run.cfg"],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    return {"wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "exit": os.waitstatus_to_exitcode(status),
            "outputs": _hashes(work / "out")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="first tree")
    ap.add_argument("--b", type=Path, required=True, help="second tree")
    ap.add_argument("--per-week", type=float, default=800.0)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the corpus and outputs "
                         "(default: a temporary one)")
    ap.add_argument("--json", type=Path, default=None,
                    help="also write every run's figures here")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        cfg = synth.SynthConfig(seed=7, start_year=2010, end_year=2015,
                                articles_per_week=args.per_week,
                                journals=JOURNALS)
        rows = synth.make_corpus_rows(cfg)
        work.mkdir(parents=True, exist_ok=True)
        corpus.write_corpus_csv(rows, str(work / "corpus.csv"))
        print(f"corpus: {len(rows)} articles at {args.per_week:g} a week")
        del rows
        sides = {"a": args.a.resolve(), "b": args.b.resolve()}
        for side in sides:
            (work / side).mkdir(exist_ok=True)
            (work / side / "run.cfg").write_text(CONFIG, encoding="utf-8")

        pairs, ok = [], True
        for i in range(args.pairs):
            pair = {}
            for side in ("ab" if i % 2 == 0 else "ba"):
                pair[side] = _run(sides[side], work / side)
                ok &= pair[side]["exit"] == 0
            a, b = pair["a"], pair["b"]
            differ = sorted(k for k in a["outputs"].keys()
                            | b["outputs"].keys()
                            if a["outputs"].get(k) != b["outputs"].get(k))
            print(f"pair {i + 1}: a {a['wall_s']:.2f} s "
                  f"{a['peak_rss_mb']:.0f} MB (exit {a['exit']}), "
                  f"b {b['wall_s']:.2f} s {b['peak_rss_mb']:.0f} MB "
                  f"(exit {b['exit']}); outputs "
                  + ("equal" if not differ else f"differ: {differ}"))
            pairs.append({"a": {k: v for k, v in a.items() if k != "outputs"},
                          "b": {k: v for k, v in b.items() if k != "outputs"},
                          "differ": differ})
        for side in sides:
            walls = [p[side]["wall_s"] for p in pairs]
            print(f"{side}: {sides[side]} median wall_s "
                  f"{statistics.median(walls):.2f}")
        if args.json:
            args.json.write_text(json.dumps(
                {"per_week": args.per_week, "trees": {k: str(v) for k, v
                                                      in sides.items()},
                 "pairs": pairs}, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
