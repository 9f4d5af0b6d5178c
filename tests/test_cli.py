"""End-to-end command-line behavior on small fixture corpora."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dwe import cli, corpus as cm, synth

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


@pytest.fixture()
def corpus_csv(tmp_path):
    cfg = synth.SynthConfig(seed=31, start_year=2005, end_year=2006,
                            journals=("aaa", "bbb"))
    rows = synth.make_corpus_rows(cfg)
    path = tmp_path / "corpus.csv"
    cm.write_corpus_csv(rows, str(path))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestSubcommands:
    def test_clean_then_rud(self, tmp_path, corpus_csv):
        cleaned = tmp_path / "cleaned.csv"
        report = tmp_path / "report.json"
        assert run(["clean", "--in", corpus_csv, "--out", cleaned,
                    "--report", report]) == 0
        rep = json.loads(report.read_text())
        assert rep["kept"] == rep["input"] - sum(rep["dropped"].values())

        rud_csv = tmp_path / "rud.csv"
        assert run(["rud", "--in", cleaned, "--scope", "consolidated",
                    "--out", rud_csv]) == 0
        lines = rud_csv.read_text().splitlines()
        assert lines[0] == "article_id,scope,year,week,weekday,n_k,N,rud"
        assert len(lines) == rep["kept"] + 1

    def test_worked_example_through_cli(self, tmp_path, sample_week_rows):
        raw = [cm.RawRecord(id=r["article_id"], journal="plos one",
                            received=r["received"], revised=None,
                            online=None, author_count=2, page_count=5,
                            country="US")
               for r in sample_week_rows]
        src = tmp_path / "corpus.csv"
        cm.write_corpus_csv(raw, str(src))
        out = tmp_path / "rud.csv"
        assert run(["rud", "--in", src, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 48
        by_id = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_id[int(parts[0])] = float(parts[7])
        for r in sample_week_rows:
            assert by_id[r["article_id"]] \
                == pytest.approx(r["rud"], abs=5e-6)

    def test_harvest_cards(self, tmp_path):
        arch = tmp_path / "arch"
        arch.mkdir()
        (arch / "batch1.txt").write_text(CARDS)
        out = tmp_path / "harvested.csv"
        assert run(["harvest", "--style", "physica-like", "--in", arch,
                    "--journal", "testj", "--out", out]) == 0
        rows = cm.read_corpus_csv(str(out))
        assert [r.id for r in rows] == [1, 2]
        assert rows[0].country == "IT" and rows[1].country == "JP"

    def test_transform_cfg_round_trip(self, tmp_path, corpus_csv):
        cleaned = tmp_path / "cleaned.csv"
        run(["clean", "--in", corpus_csv, "--out", cleaned])
        rud_csv = tmp_path / "rud.csv"
        run(["rud", "--in", cleaned, "--out", rud_csv])
        spec_cfg = tmp_path / "transform.cfg"
        assert run(["transform", "--fit", rud_csv,
                    "--out", spec_cfg]) == 0
        specs = cli.read_transform_cfg(str(spec_cfg))
        assert "consolidated" in specs

    def test_regress_writes_rows(self, tmp_path, corpus_csv):
        cleaned = tmp_path / "cleaned.csv"
        run(["clean", "--in", corpus_csv, "--out", cleaned])
        out = tmp_path / "regress.csv"
        assert run(["regress", "--in", cleaned, "--scope", "consolidated",
                    "--models", "M1", "--windows", "2005-2006",
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("scope,window,model,term,coefficient,stars,"
                            "marker,n")
        assert any(",monday," in ln for ln in lines)

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = run(["clean", "--in", tmp_path / "nope.csv",
                  "--out", tmp_path / "o.csv"])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean\nout_dir = x\nwat = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            cli.load_run_config(str(cfg))

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean\nstages = rud\n")
        with pytest.raises(ValueError, match="duplicate"):
            cli.load_run_config(str(cfg))

    def test_missing_file_named_in_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean\ncorpus = /does/not/exist.csv\n")
        with pytest.raises(ValueError, match="/does/not/exist.csv"):
            cli.load_run_config(str(cfg))

    def test_stages_sorted_into_run_order(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = rud, clean\n")
        config = cli.load_run_config(str(cfg))
        assert config.stages == ("clean", "rud")

    def test_hash_tracks_text(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("stages = clean\n")
        b.write_text("stages = clean\n# note\n")
        assert cli.load_run_config(str(a)).sha256 \
            != cli.load_run_config(str(b)).sha256


class TestPipeline:
    def write_config(self, tmp_path, corpus_csv, stages, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"stages = {stages}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            f"corpus = {corpus_csv}\n"
            "scope = consolidated\n"
            "models = M1\n"
            "windows = 2005-2006\n"
            "select = weekday in 6, 7\n"
            "classes = 3\n" + extra)
        return cfg

    def test_full_run_and_report(self, tmp_path, corpus_csv):
        cfg = self.write_config(tmp_path, corpus_csv,
                                "clean, rud, normality, transform, "
                                "regress, lq")
        assert run(["pipeline", "--config", cfg]) == 0
        out = tmp_path / "out"
        for name in ("cleaned.csv", "rud.csv", "normality.txt",
                     "transform.cfg", "regress.csv", "lq.csv",
                     "lq.geojson", "run_report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "run_report.json").read_text())
        assert all(s["status"] == "ok" for s in report["stages"])
        assert report["config_sha256"]
        assert not (out / "FAILED").exists()

    def test_file_io_ignores_the_locale(self, tmp_path, corpus_csv):
        # under warn_default_encoding, an open() that would fall back to
        # the locale's encoding raises instead
        arch = tmp_path / "arch"
        arch.mkdir()
        (arch / "batch1.txt").write_text(CARDS, encoding="utf-8")
        cfg = self.write_config(
            tmp_path, corpus_csv,
            "clean, rud, normality, transform, regress, panel, lq",
            extra="panel_from = 2005-01-01\npanel_to = 2006-12-31\n"
                  "panel_top = 5\n")
        src = str(Path(cli.__file__).parents[1])
        for argv in (["pipeline", "--config", cfg],
                     ["harvest", "--style", "physica-like", "--in", arch,
                      "--journal", "testj", "--out", tmp_path / "h.csv"]):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding",
                 "-W", "error::EncodingWarning", "-m", "dwe.cli",
                 *map(str, argv)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr

    def test_byte_identical_reruns(self, tmp_path, corpus_csv):
        cfg = self.write_config(tmp_path, corpus_csv,
                                "clean, rud, transform, regress")
        assert run(["pipeline", "--config", cfg]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(["pipeline", "--config", cfg]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_no_stages_is_noop(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nothing\n")
        assert run(["pipeline", "--config", cfg]) == 0
        assert not (tmp_path / "out").exists()

    def test_failed_stage_leaves_marker(self, tmp_path, corpus_csv):
        # panel without its date range must fail after clean succeeded
        cfg = self.write_config(tmp_path, corpus_csv, "clean, panel")
        assert run(["pipeline", "--config", cfg]) == 1
        out = tmp_path / "out"
        marker = out / "FAILED"
        assert marker.exists()
        assert "panel" in marker.read_text()
        assert (out / "cleaned.csv").exists()
        report = json.loads((out / "run_report.json").read_text())
        statuses = {s["name"]: s["status"] for s in report["stages"]}
        assert statuses["clean"] == "ok"
        assert statuses["panel"] == "failed"

    def test_marker_cleared_on_success(self, tmp_path, corpus_csv):
        bad = self.write_config(tmp_path, corpus_csv, "clean, panel")
        assert run(["pipeline", "--config", bad]) == 1
        good = self.write_config(
            tmp_path, corpus_csv, "clean, panel",
            extra="panel_from = 2005-01-01\npanel_to = 2006-12-31\n"
                  "panel_top = 5\n")
        assert run(["pipeline", "--config", good]) == 0
        assert not (tmp_path / "out" / "FAILED").exists()
        assert (tmp_path / "out" / "panel.csv").exists()
