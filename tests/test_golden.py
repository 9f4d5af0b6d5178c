"""Golden outputs: the sha256 of every file and summary the CLI writes.

Each case runs ``dwe`` in-process on fixed inputs in a scratch directory,
with relative paths so that the config hashes in ``run_report.json`` do
not depend on where the test runs.  The expected hashes live in
``data/golden_sha256.json``; any changed output byte fails here.  After a
deliberate output change, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py --write

and record the change and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from dwe import cli, corpus as cm, harvest, synth

MANIFEST = Path(__file__).parent / "data" / "golden_sha256.json"

CARDS = """Title: One
Authors: A. B., C. D.
Pages: pages 1-9
History: Received 9 December 2005; accepted 1 February 2006
Country: Italy

Title: Two
Authors: E. F.
History: Received 13 February 2006
Country: Japan
"""

PIPELINE_CFG = """\
stages = clean, rud, normality, transform, regress, panel, lq
out_dir = out
corpus = corpus.csv
models = M1..M9
panel_from = 2005-01-01
panel_to = 2006-12-31
panel_top = 5
select = weekday in 6, 7
classes = 3
"""

RLS_CFG = """\
stages = clean, regress
out_dir = out_rls
corpus = corpus.csv
scope = consolidated
models = M1..M9
method = rls
windows = 2005-2006
transform = out/transform.cfg
"""

HARVEST_CFG = """\
stages = harvest, clean, rud
out_dir = out_harvest
harvest_in = arch
harvest_style = physica-like
harvest_journal = testj
"""

#: (name, argv) in run order; later commands read earlier outputs
SUBCOMMANDS = (
    ("harvest", ["harvest", "--style", "physica-like", "--in", "arch",
                 "--journal", "testj", "--first-id", "7",
                 "--out", "sub/harvest.csv"]),
    ("clean", ["clean", "--in", "corpus.csv", "--out", "sub/cleaned.csv",
               "--report", "sub/cleaning_report.json"]),
    ("rud", ["rud", "--in", "sub/cleaned.csv", "--scope", "journal",
             "--out", "sub/rud.csv"]),
    ("normality", ["normality", "--in", "sub/cleaned.csv",
                   "--scope", "journal"]),
    ("transform", ["transform", "--in", "sub/cleaned.csv",
                   "--scope", "journal", "--out", "sub/transform.cfg"]),
    ("regress", ["regress", "--in", "sub/cleaned.csv", "--models", "M1..M3",
                 "--windows", "none", "--transform", "sub/transform.cfg",
                 "--out", "sub/regress.csv"]),
    ("panel", ["panel", "--in", "sub/cleaned.csv", "--top", "5",
               "--from", "2005-03-01", "--to", "2006-10-31",
               "--weighting", "wls", "--out", "sub/panel.csv"]),
    ("lq", ["lq", "--in", "sub/cleaned.csv", "--select", "weekday in 6, 7",
            "--classes", "4", "--out", "sub/lq.csv",
            "--geojson", "sub/lq.geojson"]),
)


@contextlib.contextmanager
def _chdir(path: Path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue().encode("utf-8")


def _pipeline_case(case: str, text: str) -> dict[str, str]:
    """Run one pipeline config in the current directory; map "case/file"
    to its sha256."""
    cfg_path = Path(f"{case}.cfg")
    cfg_path.write_text(text, encoding="utf-8")
    hashes = {f"{case}/stdout": _sha(
        _run(["pipeline", "--config", str(cfg_path)]))}
    out = Path(cli.load_run_config(str(cfg_path)).raw["out_dir"])
    for path in sorted(out.iterdir()):
        hashes[f"{case}/{path.name}"] = _sha(path.read_bytes())
    return hashes


def golden_outputs(work: Path) -> dict[str, str]:
    """Run every case inside ``work``; map "case/file" to its sha256."""
    cfg = synth.SynthConfig(seed=31, start_year=2005, end_year=2006,
                            journals=("aaa", "bbb"))
    cm.write_corpus_csv(synth.make_corpus_rows(cfg), str(work / "corpus.csv"))
    (work / "arch").mkdir()
    (work / "arch" / "batch1.txt").write_text(CARDS, encoding="utf-8")
    (work / "sub").mkdir()
    hashes: dict[str, str] = {}
    with _chdir(work):
        for case, text in (("pipeline", PIPELINE_CFG), ("rls", RLS_CFG),
                           ("harvest", HARVEST_CFG)):
            hashes.update(_pipeline_case(case, text))
        for name, argv in SUBCOMMANDS:
            hashes[f"sub/{name}.stdout"] = _sha(_run(argv))
        for path in sorted(Path("sub").iterdir()):
            hashes[f"sub/{path.name}"] = _sha(path.read_bytes())
    return hashes


def test_outputs_match_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = golden_outputs(tmp_path)
    changed = sorted(k for k in expected.keys() | got.keys()
                     if expected.get(k) != got.get(k))
    assert not changed, f"outputs differ from the manifest: {changed}"


@pytest.mark.parametrize("cpus", [1, 3])
def test_harvest_case_for_any_worker_count(tmp_path, monkeypatch, cpus):
    # one card per file, so that more than one worker has files to take;
    # ids follow the file order, so the outputs are those of one file
    monkeypatch.setattr(harvest, "_usable_cpus", lambda: cpus)
    expected = {k: v for k, v in json.loads(
        MANIFEST.read_text(encoding="utf-8")).items()
        if k.startswith("harvest/")}
    (tmp_path / "arch").mkdir()
    for i, card in enumerate(CARDS.split("\n\n"), start=1):
        (tmp_path / "arch" / f"batch{i}.txt").write_text(
            card.strip() + "\n", encoding="utf-8")
    with _chdir(tmp_path):
        assert _pipeline_case("harvest", HARVEST_CFG) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = golden_outputs(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=2)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} hashes -> {MANIFEST}")
