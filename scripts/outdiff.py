#!/usr/bin/env python3
"""Summarise how two output directories of ``dwe`` differ.

    python scripts/outdiff.py A B

A and B are two output directories, compared file by file (recursively,
by relative path).  Each file is reported as identical or summarised:

- ``regress.csv`` and ``panel.csv``: the rows that differ, the largest
  absolute and relative change of each numeric column, and every changed
  star or marker.  A row is keyed by its columns before ``coefficient``.
- ``transform.cfg``: every scope whose spec changed; the ``jb=`` digits
  alone are counted, not listed.
- any other file: its changed lines.

The exit code is 0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import math
import sys
from pathlib import Path

TABLES = ("regress.csv", "panel.csv")
MARKS = ("stars", "marker")
SHOWN_LINES = 20


def _table(text: str) -> tuple[list[str], dict[tuple[str, ...], dict]]:
    header, *rows = csv.reader(io.StringIO(text))
    n_key = header.index("coefficient")
    return header, {tuple(row[:n_key]): dict(zip(header, row))
                    for row in rows}


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def table_diff(a: str, b: str) -> list[str]:
    """Rows, numeric columns and marks of two regress/panel CSV texts."""
    header, rows_a = _table(a)
    header_b, rows_b = _table(b)
    if header != header_b:
        return [f"header {header} -> {header_b}"]
    common = [k for k in rows_a if k in rows_b]
    out = [f"{sum(rows_a[k] != rows_b[k] for k in common)} of "
           f"{len(rows_a)} rows differ"]
    out += [f"only in A: {' '.join(k)}" for k in rows_a if k not in rows_b]
    out += [f"only in B: {' '.join(k)}" for k in rows_b if k not in rows_a]
    numeric = [c for c in header[header.index("coefficient"):]
               if c not in MARKS]
    for col in numeric:
        worst_abs = worst_rel = (0.0, None)
        for k in common:
            va, vb = rows_a[k][col], rows_b[k][col]
            if va == vb:
                continue
            fa, fb = _float(va), _float(vb)
            if fa is None or fb is None:
                out.append(f"{col} at {' '.join(k)}: {va!r} -> {vb!r}")
                continue
            change = abs(fb - fa)
            rel = change / abs(fa) if fa else math.inf
            worst_abs = max(worst_abs, (change, k), key=lambda t: t[0])
            worst_rel = max(worst_rel, (rel, k), key=lambda t: t[0])
        if worst_abs[1] is None:
            out.append(f"{col}: no change")
        else:
            out.append(f"{col}: max abs change {worst_abs[0]:.3g} at "
                       f"{' '.join(worst_abs[1])}; max rel change "
                       f"{worst_rel[0]:.3g} at {' '.join(worst_rel[1])}")
    for col in (c for c in MARKS if c in header):
        changed = [(k, rows_a[k][col], rows_b[k][col]) for k in common
                   if rows_a[k][col] != rows_b[k][col]]
        out.append(f"{col}: no change" if not changed else
                   f"{col}: {len(changed)} changed")
        out += [f"{col} at {' '.join(k)}: {va!r} -> {vb!r}"
                for k, va, vb in changed]
    return out


def _specs(text: str) -> dict[str, tuple[str, str]]:
    """scope -> (spec without jb, jb digits) of a transform.cfg text."""
    specs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        spec, _, jb = line.rpartition(" jb=")
        scope = spec.partition(" step1=")[0].removeprefix("scope=")
        specs[scope] = (spec, jb)
    return specs


def transform_diff(a: str, b: str) -> list[str]:
    specs_a, specs_b = _specs(a), _specs(b)
    out = []
    jb_only = 0
    for scope in sorted(specs_a.keys() | specs_b.keys()):
        sa, sb = specs_a.get(scope), specs_b.get(scope)
        if sa is None or sb is None or sa[0] != sb[0]:
            out.append(f"spec {scope!r}: {sa and sa[0]!r} -> "
                       f"{sb and sb[0]!r}")
        elif sa[1] != sb[1]:
            jb_only += 1
    out.append(f"{jb_only} scopes differ in their jb= digits alone")
    return out


def text_diff(a: str, b: str) -> list[str]:
    lines = [line for line in difflib.unified_diff(
        a.splitlines(), b.splitlines(), "A", "B", n=0, lineterm="")
        if line[:1] in "-+" and line[:3] not in ("---", "+++")]
    shown = lines[:SHOWN_LINES]
    if len(lines) > SHOWN_LINES:
        shown.append(f"... {len(lines) - SHOWN_LINES} more changed lines")
    return shown


def file_diff(a: Path | None, b: Path | None) -> list[str]:
    """Summary lines for one pair; [] when the files are identical."""
    if a is None or b is None:
        return [f"only in {'B' if a is None else 'A'}"]
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return []
    text_a = data_a.decode("utf-8", errors="replace")
    text_b = data_b.decode("utf-8", errors="replace")
    if a.name in TABLES:
        return table_diff(text_a, text_b)
    if a.name == "transform.cfg":
        return transform_diff(text_a, text_b)
    return text_diff(text_a, text_b)


def _files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*"))
            if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            ap.error(f"{d}: not a directory")
    files_a, files_b = _files(args.a), _files(args.b)
    differ = False
    for name in sorted(files_a.keys() | files_b.keys()):
        summary = file_diff(files_a.get(name), files_b.get(name))
        differ |= bool(summary)
        print(f"{name}: identical" if not summary else
              "\n  ".join([f"{name}: differs"] + summary))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
