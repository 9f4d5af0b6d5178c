"""End-to-end command-line behavior on small fixture corpora."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from dwe import cli, corpus as cm, diststat, linmod, synth

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


def test_no_module_imports_scipy_stats():
    # importing scipy.stats would cost every dwe process about a second
    code = ("import importlib, json, pkgutil, sys, dwe, dwe.cli\n"
            "names = [m.name for m in pkgutil.iter_modules(dwe.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('dwe.' + name)\n"
            "print(json.dumps([names, sorted(\n"
            "    m for m in sys.modules if m.split('.')[:2] == ['scipy', "
            "'stats'])]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    names, stats_modules = json.loads(proc.stdout)
    assert {"cli", "diststat", "linmod", "lsq", "panel"} <= set(names)
    assert stats_modules == []


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

    @pytest.mark.parametrize("first_id", ["1_0", " \u0665"])
    def test_non_canonical_first_id_rejected(self, tmp_path, capsys,
                                             card_archive, first_id):
        # int() reads these as 10 and 5; every other integer input
        # rejects them
        out = tmp_path / "harvested.csv"
        with pytest.raises(SystemExit) as exc:
            run(["harvest", "--style", "physica-like", "--in", card_archive,
                 "--journal", "j", "--out", out, "--first-id", first_id])
        assert exc.value.code == 2
        assert f"--first-id: invalid parse_int value: {first_id!r}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_bom_corpus_cleans_like_the_plain_one(self, tmp_path,
                                                  corpus_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + corpus_csv.read_bytes())
        cleaned = []
        for src in (corpus_csv, bom):
            out = tmp_path / f"cleaned-{src.stem}.csv"
            assert run(["clean", "--in", src, "--out", out]) == 0
            cleaned.append(out.read_bytes())
        assert cleaned[0] == cleaned[1]

    def test_transform_cfg_round_trip(self, tmp_path, corpus_csv):
        cleaned = tmp_path / "cleaned.csv"
        run(["clean", "--in", corpus_csv, "--out", cleaned])
        spec_cfg = tmp_path / "transform.cfg"
        assert run(["transform", "--in", cleaned, "--out", spec_cfg]) == 0
        specs = cli.read_transform_cfg(str(spec_cfg))
        assert "consolidated" in specs

    def test_transform_cfg_keeps_a_spaced_scope(self, tmp_path):
        spec = diststat.TransformSpec("power", -0.25, 0.5)
        path = tmp_path / "transform.cfg"
        cli.write_transform_cfg(
            {"physica a": diststat.FittedTransform(spec, 1.5, 0.25)},
            str(path))
        assert path.read_text().startswith("scope=physica a step1=")
        assert cli.read_transform_cfg(str(path)) == {"physica a": spec}

    def test_transform_cfg_rejects_a_repeated_scope(self, tmp_path):
        path = tmp_path / "transform.cfg"
        line = "scope=consolidated step1=power:0.5 step2=power:1.0 jb=3.25\n"
        path.write_text(line + "# again\n" + line.replace(":0.5", ":0.25"),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} line 3: duplicate scope 'consolidated'")):
            cli.read_transform_cfg(str(path))

    def test_transform_cfg_lines_end_as_the_run_config_lines_do(
            self, tmp_path):
        # a form feed ends a line, as in every config file
        path = tmp_path / "transform.cfg"
        path.write_text("scope=a step1=power:1.0 step2=power:1.0 jb=1.0\f"
                        "scope=b step1=power:0.5 step2=power:2.0 jb=2.0\n",
                        encoding="utf-8")
        assert cli.read_transform_cfg(str(path)) == {
            "a": diststat.TransformSpec("power", 1.0, 1.0),
            "b": diststat.TransformSpec("power", 0.5, 2.0)}

    @pytest.mark.parametrize("line,message", [
        ("step1=power:1.0 step2=power:1.0 jb=1.0", "'scope'"),
        ("scope=a step1=power step2=power:1.0 jb=1.0",
         "could not convert string to float: ''")],
        ids=["no-scope", "no-param"])
    def test_transform_cfg_rejects_a_malformed_spec(self, tmp_path, line,
                                                    message):
        path = tmp_path / "transform.cfg"
        path.write_text(f"# specs\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} line 2: bad transform spec: {message}")):
            cli.read_transform_cfg(str(path))

    def test_regress_reads_a_spaced_journal_spec(self, tmp_path):
        # the identity is not what regress would fit for this journal
        cfg = synth.SynthConfig(seed=31, start_year=2005, end_year=2006,
                                journals=("physica a", "bbb"))
        rows = synth.make_corpus_rows(cfg)
        src = tmp_path / "corpus.csv"
        cm.write_corpus_csv(rows, str(src))
        spec_cfg = tmp_path / "transform.cfg"
        cli.write_transform_cfg({"physica a": diststat.FittedTransform(
            diststat.IDENTITY_SPEC, 0.0, 0.0)}, str(spec_cfg))
        out = tmp_path / "regress.csv"
        assert run(["regress", "--in", src, "--scope", "physica a",
                    "--models", "M1", "--windows", "2005-2006",
                    "--transform", spec_cfg, "--out", out]) == 0
        want = tmp_path / "want.csv"
        linmod.roll_window_run(
            cm.clean_corpus(rows, cm.load_default_countries()),
            windows=((2005, 2006),), model_ids=("M1",),
            scopes=["physica a"],
            transform_specs={"physica a": diststat.IDENTITY_SPEC}
        ).to_csv(str(want))
        assert out.read_bytes() == want.read_bytes()

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

    def test_panel_top_zero_exits_2(self, tmp_path, corpus_csv, capsys):
        rc = run(["panel", "--in", corpus_csv, "--from", "2005-01-01",
                  "--to", "2006-12-31", "--top", 0,
                  "--out", tmp_path / "panel.csv"])
        assert rc == 2
        assert "got top_n = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--weighting", "multiply"]])
    def test_panel_weighted_flag(self, tmp_path, corpus_csv, flags):
        # the flag's value reaches the stage, its absence as no key
        out = tmp_path / "panel.csv"
        assert run(["panel", "--in", corpus_csv, "--from", "2005-01-01",
                    "--to", "2006-12-31", "--top", 5, "--out", out,
                    *flags]) == 0
        assert out.read_text().startswith("term,coefficient,")

    def test_panel_weighting_default_is_none(self, tmp_path, corpus_csv):
        # none is the unset key's fit; each weighting fits another panel
        written = {}
        for weighting in ("", "none", "multiply", "wls"):
            out = tmp_path / f"panel-{weighting}.csv"
            flags = ["--weighting", weighting] if weighting else []
            assert run(["panel", "--in", corpus_csv, "--from", "2005-01-01",
                        "--to", "2006-12-31", "--top", 5, "--out", out,
                        *flags]) == 0
            written[weighting] = out.read_bytes()
        assert written[""] == written["none"]
        assert len(set(written.values())) == 3

    @pytest.mark.parametrize("flags", [["--weighted"],
                                       ["--weight-mode", "wls"],
                                       ["--weighting", "true"],
                                       ["--trend-base", "ln"]])
    def test_old_panel_weight_flags_rejected(self, tmp_path, corpus_csv,
                                             capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run(["panel", "--in", corpus_csv, "--from", "2005-01-01",
                 "--to", "2006-12-31", "--out", tmp_path / "panel.csv",
                 *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

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

    def test_stages_without_out_dir_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean\n")
        with pytest.raises(ValueError, match=re.escape(
                "out_dir is required when stages are configured")):
            cli.run_pipeline(cli.load_run_config(str(cfg)))

    @pytest.mark.parametrize("text", [
        b"stages = clean\fout_dir = o\n\xff = 1\n",
        b"stages = clean\r\nout_dir = o\r\n\xff = 1\r\n"],
        ids=["form-feed", "crlf"])
    def test_non_utf8_line_numbered_as_content_lines_does(self, tmp_path,
                                                         text):
        # a form feed ends a config line, so the bad byte is on line 3
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg} line 3: not UTF-8 (invalid start byte)")):
            cli.load_run_config(str(cfg))

    def test_hash_reads_line_ends_as_text(self, tmp_path):
        # CRLF and CR line ends hash as LF, as a text-mode read gives them
        hashes = set()
        for i, end in enumerate([b"\n", b"\r\n", b"\r"]):
            cfg = tmp_path / f"{i}.cfg"
            cfg.write_bytes(b"stages = clean" + end + b"out_dir = o" + end)
            hashes.add(cli.load_run_config(str(cfg)).sha256)
        assert len(hashes) == 1


class TestPipeline:
    def write_config(self, tmp_path, corpus_csv, stages, extra="",
                     scope="consolidated"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"stages = {stages}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            f"corpus = {corpus_csv}\n"
            f"scope = {scope}\n"
            "models = M1\n"
            "windows = 2005-2006\n"
            "select = weekday in 6, 7\n"
            "classes = 3\n" + extra)
        return cfg

    def test_full_run_and_report(self, tmp_path, corpus_csv):
        names = ("clean", "rud", "normality", "transform", "regress", "lq")
        cfg = self.write_config(tmp_path, corpus_csv, ", ".join(names))
        assert run(["pipeline", "--config", cfg]) == 0
        out = tmp_path / "out"
        # the stage table names every file a stage writes, and the report
        # copies it
        stages = [cli.STAGE_BY_NAME[name] for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [name for s in stages for name in s.outputs]
            + ["run_report.json"])
        report = json.loads((out / "run_report.json").read_text())
        assert report["stages"] == [
            {"name": s.name, "status": "ok", "outputs": list(s.outputs)}
            for s in stages]
        assert report["config_sha256"]

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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one core gives one BLAS thread either way")
    def test_outputs_ignore_blas_threads(self, tmp_path):
        # about 31k articles: enough for OpenBLAS to split a dot product
        # over every ratio, which would move the last digits of jb= and
        # of regress.csv's adjusted R2 if a caller's count of 2 were kept
        cfg = synth.SynthConfig(seed=17, start_year=2010, end_year=2015,
                                articles_per_week=99.0,
                                journals=("alpha", "beta", "gamma"))
        corpus_csv = tmp_path / "corpus.csv"
        cm.write_corpus_csv(synth.make_corpus_rows(cfg), str(corpus_csv))
        run_cfg = tmp_path / "run.cfg"  # regress over its default windows
        run_cfg.write_text("stages = clean, rud, transform, regress\n"
                           f"out_dir = {tmp_path / 'out'}\n"
                           f"corpus = {corpus_csv}\n")
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        outputs = []
        for threads in ({}, dict.fromkeys(names, "2")):
            proc = subprocess.run(
                [sys.executable, "-m", "dwe.cli", "pipeline", "--config",
                 str(run_cfg)], capture_output=True, text=True,
                timeout=600, env={**env, **threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / "out").iterdir()})
        assert outputs[0] == outputs[1]

    def test_journal_scope_through_regress(self, tmp_path, corpus_csv):
        # rud and transform write per-journal ratios and specs, and
        # regress runs every journal under those specs
        def regress_rows(out, **keys):
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
                "out_dir": out, "corpus": corpus_csv, "models": "M1, M9",
                "windows": "2005-2005, 2006-2006", **keys}.items()))
            assert run(["pipeline", "--config", cfg]) == 0
            lines = (out / "regress.csv").read_text().splitlines()[1:]
            return [ln.split(",") for ln in lines]

        out = tmp_path / "journal"
        rows = regress_rows(out, stages="rud, transform, regress",
                            scope="journal")
        assert {r[0] for r in rows} == {"aaa", "bbb"}
        assert not any(r[6].startswith("failed") for r in rows)
        specs = cli.read_transform_cfg(str(out / "transform.cfg"))
        assert sorted(specs) == ["aaa", "bbb"]
        rud_scopes = {ln.split(",")[1] for ln in
                      (out / "rud.csv").read_text().splitlines()[1:]}
        assert rud_scopes == {"aaa", "bbb"}
        every = regress_rows(tmp_path / "all", stages="regress",
                             transform=out / "transform.cfg")
        assert [r for r in every if r[0] != "consolidated"] == rows

    def test_no_stages_is_noop(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nothing\n")
        assert run(["pipeline", "--config", cfg]) == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,error", [
        (lambda text: text + "bogus = 1\n", " line 9: unknown key 'bogus'"),
        (lambda text: "bogus = 1\n" + text, " line 1: unknown key 'bogus'"),
        (lambda text: text + "classes = 4\n",
         " line 9: duplicate key 'classes'"),
        (lambda text: text + "classes\n", " line 9: expected key = value"),
        (lambda text: text.replace("clean, rud", "clean, wat"),
         " line 1: unknown stage 'wat'")],
        ids=["key", "key-first", "repeated-key", "no-equals", "stage"])
    def test_rejected_config_replaces_the_old_report(self, tmp_path,
                                                     corpus_csv, capsys,
                                                     edit, error):
        # the last run's outputs stay; its success report does not
        good = self.write_config(tmp_path, corpus_csv, "clean, rud")
        assert run(["pipeline", "--config", good]) == 0
        out = tmp_path / "out"
        kept = {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "run_report.json"}
        bad = tmp_path / "bad.cfg"
        bad.write_text(edit(good.read_text()))
        capsys.readouterr()
        assert run(["pipeline", "--config", bad]) == 2
        assert capsys.readouterr().err == f"error: {bad}{error}\n"
        assert (out / "FAILED").read_text() \
            == f"stage=config\nerror={bad}{error}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "FAILED"} == kept

    def test_rejected_config_without_out_dir_touches_nothing(self,
                                                            tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean\nout_dir =\nbogus = 1\n")
        assert run(["pipeline", "--config", cfg]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("name", ["corpus.csv", "countries.cfg",
                                      "transform.cfg", "run.cfg"])
    def test_non_utf8_input_names_file_and_line(self, tmp_path, corpus_csv,
                                                capsys, name):
        countries = tmp_path / "countries.cfg"
        countries.write_bytes(
            (Path(cm.__file__).parent / "data" / "countries.cfg")
            .read_bytes())
        spec_cfg = tmp_path / "transform.cfg"
        cli.write_transform_cfg({"consolidated": diststat.FittedTransform(
            diststat.IDENTITY_SPEC, 0.0, 0.0)}, str(spec_cfg))
        cfg = self.write_config(
            tmp_path, corpus_csv, "clean, regress",
            extra=f"countries = {countries}\ntransform = {spec_cfg}\n")
        # one byte that is not UTF-8, on a line of its own at the end
        bad = tmp_path / name
        lines = len(bad.read_bytes().splitlines())
        bad.write_bytes(bad.read_bytes() + b"# \xff\n")
        error = f"{bad} line {lines + 1}: not UTF-8 (invalid start byte)"
        capsys.readouterr()
        if name == "run.cfg":
            assert run(["pipeline", "--config", cfg]) == 2
            assert capsys.readouterr().err == f"error: {error}\n"
        else:
            assert run(["pipeline", "--config", cfg]) == 1
        assert (tmp_path / "out" / "FAILED").read_text(
            encoding="utf-8").endswith(f"error={error}\n")

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

    @pytest.mark.parametrize("key,line,message", [
        ("corpus", "1,j,2010-01-04,,,2,3", "line 4: expected 8 fields, got 7"),
        ("corpus", "1," + "j" * 200_000 + ",2010-01-04,,,2,3,US",
         "line 4: field larger than field limit (131072)"),
        ("countries", "iso=XX continent=mars hdi=0.5",
         "line 1: unknown continent 'mars'")],
        ids=["short-row", "oversized-field", "bad-country-table"])
    def test_bad_corpus_row_fails_with_marker(self, tmp_path, corpus_csv,
                                              key, line, message):
        # a bad corpus line 4 or country table line 1 fails the first
        # stage, and replaces the report of an earlier successful run
        assert run(["pipeline", "--config", self.write_config(
            tmp_path, corpus_csv, "clean, rud")]) == 0
        bad = tmp_path / "bad.txt"
        if key == "corpus":
            lines = corpus_csv.read_text().splitlines()
            bad.write_text("\n".join(lines[:3] + [line] + lines[3:]) + "\n")
            cfg = self.write_config(tmp_path, bad, "clean, rud")
        else:
            bad.write_text(line + "\n")
            cfg = self.write_config(tmp_path, corpus_csv, "clean, rud",
                                    extra=f"countries = {bad}\n")
        assert run(["pipeline", "--config", cfg]) == 1
        out = tmp_path / "out"
        marker = (out / "FAILED").read_text()
        assert marker.startswith(f"stage=clean\nerror={bad} {message}")
        report = json.loads((out / "run_report.json").read_text())
        assert [(s["name"], s["status"]) for s in report["stages"]] \
            == [("clean", "failed")]

    @pytest.mark.parametrize("key,stages,stage", [
        ("corpus", "clean, rud", "clean"),
        ("countries", "clean, rud", "clean"),
        ("harvest_in", "harvest, clean", "harvest"),
        ("transform", "clean, regress", "regress")],
        ids=["corpus", "countries", "harvest_in", "transform"])
    def test_missing_input_file_fails_its_stage(self, tmp_path, corpus_csv,
                                                key, stages, stage):
        # the stage that reads the file fails, and its report replaces
        # the one of an earlier successful run
        assert run(["pipeline", "--config", self.write_config(
            tmp_path, corpus_csv, "clean, rud")]) == 0
        missing = tmp_path / "missing.csv"
        if key == "corpus":
            cfg = self.write_config(tmp_path, missing, stages)
        else:
            cfg = self.write_config(
                tmp_path, corpus_csv, stages,
                extra=f"{key} = {missing}\nharvest_style = physica-like\n"
                      "harvest_journal = j\n")
        assert run(["pipeline", "--config", cfg]) == 1
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert marker.startswith(f"stage={stage}\nerror=")
        assert str(missing) in marker
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        names = stages.split(", ")
        assert [(s["name"], s["status"]) for s in report["stages"]] \
            == [(name, "ok") for name in names[:names.index(stage)]] \
            + [(stage, "failed")]

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_harvest_in_not_a_directory(self, tmp_path, capsys, kind):
        # neither holds a file to harvest: an empty corpus would hide that
        target = tmp_path / "archive"
        if kind == "file":
            target.write_text(CARDS, encoding="utf-8")
        assert run(["harvest", "--style", "physica-like", "--in", target,
                    "--journal", "j", "--out", tmp_path / "h.csv"]) == 2
        assert f"{target}: not a directory" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"stages = harvest, clean\nout_dir = {tmp_path}/out\n"
                       f"harvest_in = {target}\n"
                       "harvest_style = physica-like\nharvest_journal = j\n")
        assert run(["pipeline", "--config", cfg]) == 1
        assert (tmp_path / "out" / "FAILED").read_text() \
            == f"stage=harvest\nerror={target}: not a directory\n"

    @pytest.mark.parametrize("stage", ["normality", "transform"])
    def test_ratio_stage_fails_on_empty_table(self, tmp_path, stage):
        rows = [cm.RawRecord(id=i, journal="j", received=None, revised=None,
                             online=None, author_count=2, page_count=3,
                             country="US") for i in (1, 2)]
        src = tmp_path / "corpus.csv"
        cm.write_corpus_csv(rows, str(src))
        cfg = self.write_config(tmp_path, src, f"clean, {stage}")
        assert run(["pipeline", "--config", cfg]) == 1
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert f"stage={stage}" in marker and "no observations" in marker
        assert not (tmp_path / "out" / "transform.cfg").exists()

    @pytest.mark.parametrize("stage", ["lq", "regress"])
    def test_stage_fails_on_empty_corpus(self, tmp_path, stage):
        # every row lacks a received date, so clean drops them all; with
        # no windows set, regress reads the year span of no rows
        rows = [cm.RawRecord(id=i, journal="j", received=None, revised=None,
                             online=None, author_count=2, page_count=3,
                             country="US") for i in (1, 2)]
        src = tmp_path / "corpus.csv"
        cm.write_corpus_csv(rows, str(src))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"stages = clean, {stage}\n"
                       f"out_dir = {tmp_path / 'out'}\ncorpus = {src}\n"
                       "models = M1\nselect = weekday in 6, 7\n")
        assert run(["pipeline", "--config", cfg]) == 1
        assert (tmp_path / "out" / "FAILED").read_text() \
            == f"stage={stage}\nerror=empty corpus\n"

    def test_ratio_subcommands_are_their_stages(self, tmp_path, corpus_csv,
                                                capsys):
        cfg = self.write_config(tmp_path, corpus_csv,
                                "clean, normality, transform",
                                scope="journal")
        assert run(["pipeline", "--config", cfg]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["normality", "--in", out / "cleaned.csv",
                    "--scope", "journal"]) == 0
        assert capsys.readouterr().out \
            == (out / "normality.txt").read_text(encoding="utf-8")
        spec_cfg = tmp_path / "transform.cfg"
        assert run(["transform", "--in", out / "cleaned.csv", "--scope",
                    "journal", "--out", spec_cfg]) == 0
        assert spec_cfg.read_bytes() == (out / "transform.cfg").read_bytes()
        assert sorted(cli.read_transform_cfg(str(spec_cfg))) \
            == ["aaa", "bbb"]

    @pytest.mark.parametrize("stage", ["normality", "transform"])
    def test_failed_scope_is_named(self, tmp_path, corpus_csv, capsys,
                                   stage):
        rows = cm.read_corpus_csv(str(corpus_csv))
        rows += [cm.RawRecord(id=len(rows) + k, journal="tiny",
                              received=date(2005, 3, k), revised=None,
                              online=None, author_count=2, page_count=3,
                              country="US") for k in (1, 2, 3)]
        src = tmp_path / "tiny.csv"
        cm.write_corpus_csv(rows, str(src))
        error = "scope=tiny: need at least 4 observations, got 3"
        cfg = self.write_config(tmp_path, src, f"clean, {stage}",
                                scope="journal")
        assert run(["pipeline", "--config", cfg]) == 1
        assert (tmp_path / "out" / "FAILED").read_text() \
            == f"stage={stage}\nerror={error}\n"
        capsys.readouterr()
        argv = [stage, "--in", src, "--scope", "journal"]
        if stage == "transform":
            argv += ["--out", tmp_path / "transform.cfg"]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("panel_top", "-3", "the panel needs at least 1 country, "
                            "got top_n = -3"),
        pytest.param("panel_weighting", "yes",
                     "unknown weighting 'yes'; have none or multiply or wls",
                     id="panel_weighting-yes")])
    def test_bad_panel_key_fails_with_marker(self, tmp_path, corpus_csv,
                                             key, value, message):
        keys = {"panel_from": "2005-01-01", "panel_to": "2006-12-31",
                "panel_top": "5", key: value}
        cfg = self.write_config(
            tmp_path, corpus_csv, "clean, panel",
            extra="".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert run(["pipeline", "--config", cfg]) == 1
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert f"stage=panel\nerror={key}: {message}" in marker
        assert not (tmp_path / "out" / "panel.csv").exists()

    def test_unknown_method_fails_with_marker(self, tmp_path, corpus_csv):
        # the stage fails as a whole, not with a "failed:" marker per cell
        cfg = self.write_config(tmp_path, corpus_csv, "clean, regress",
                                extra="method = bogus\n")
        assert run(["pipeline", "--config", cfg]) == 1
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert "stage=regress" in marker
        assert "unknown method 'bogus'" in marker
        assert not (tmp_path / "out" / "regress.csv").exists()

    def test_unknown_harvest_style_fails_with_marker(self, tmp_path):
        # every card would be skipped alone, leaving an empty corpus
        arch = tmp_path / "arch"
        arch.mkdir()
        (arch / "batch1.txt").write_text(CARDS, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"stages = harvest\nout_dir = {tmp_path / 'out'}\n"
                       f"harvest_in = {arch}\nharvest_style = plos\n"
                       "harvest_journal = j\n")
        assert run(["pipeline", "--config", cfg]) == 1
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert ("stage=harvest\nerror=harvest_style: "
                "unknown history style 'plos'") in marker
        assert not (tmp_path / "out" / "corpus.csv").exists()

    @pytest.mark.parametrize("stage,key,value,message", [
        ("lq", "classes", "abc",
         "invalid literal for int() with base 10: 'abc'"),
        ("panel", "panel_top", "x",
         "invalid literal for int() with base 10: 'x'"),
        ("panel", "panel_from", "2010-13-01", "month must be in 1..12"),
        ("panel", "panel_to", "2006-02-30", "day is out of range"),
        ("regress", "windows", "2005-20x6",
         "invalid literal for int() with base 10: '20x6'"),
        ("regress", "models", "M1,M10", "unknown model 'M10'"),
        ("lq", "select", "weekday in 9",
         "weekday values out of 1..7: ['9']"),
        # values that parse, which only the data puts out of range
        ("lq", "classes", "50", "11 distinct values cannot fill 50 classes"),
        ("panel", "panel_top", "99",
         "only 11 countries have articles in range, need 99")])
    def test_unparsable_key_named_in_marker(self, tmp_path, corpus_csv,
                                            stage, key, value, message):
        keys = {"panel_from": "2005-01-01", "panel_to": "2006-12-31",
                "panel_top": "5", "classes": "3", "windows": "2005-2006",
                key: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
            "stages": f"clean, {stage}", "out_dir": tmp_path / "out",
            "corpus": corpus_csv, "scope": "consolidated", "models": "M1",
            "select": "weekday in 6, 7", **keys}.items()))
        assert run(["pipeline", "--config", cfg]) == 1
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert f"stage={stage}\nerror={key}: {message}" in marker

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


class TestStageNames:
    def test_unknown_stage_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean, wat\n")
        with pytest.raises(ValueError, match="unknown stage 'wat'"):
            cli.load_run_config(str(cfg))

    def test_unknown_stage_exits_2_with_its_name(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean, wat\n")
        assert run(["pipeline", "--config", cfg]) == 2
        assert "unknown stage 'wat'" in capsys.readouterr().err

    def test_duplicate_stage_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean, rud, clean\n")
        with pytest.raises(ValueError, match="duplicate stage 'clean'"):
            cli.load_run_config(str(cfg))

    def test_bad_stage_names_the_stages_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# stages follow\n\nstages = clean, rud, clean\n")
        with pytest.raises(ValueError) as info:
            cli.load_run_config(str(cfg))
        assert str(info.value) == f"{cfg} line 3: duplicate stage 'clean'"

    def test_seed_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stages = clean\nseed = 1\n")
        with pytest.raises(ValueError, match="unknown key 'seed'"):
            cli.load_run_config(str(cfg))

    @pytest.mark.parametrize("line", ["panel_weighted = true",
                                      "panel_weight_mode = wls",
                                      "trend_base = log10"],
                             ids=["panel_weighted", "panel_weight_mode",
                                  "trend_base"])
    def test_old_panel_weight_keys_rejected(self, tmp_path, line):
        # the weight keys folded into panel_weighting, and the trend is
        # always log10; an old config fails, never silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"stages = clean, panel\n{line}\n")
        key = line.partition(" ")[0]
        with pytest.raises(ValueError,
                           match=f"run.cfg line 2: unknown key '{key}'"):
            cli.load_run_config(str(cfg))


#: each subcommand's required flags, and the config keys they give
REQUIRED_FLAGS = {
    "harvest": (["--style", "physica-like", "--in", "arch", "--journal",
                 "j", "--out", "o"],
                {"harvest_in", "harvest_style", "harvest_journal"}),
    "clean": (["--in", "c", "--out", "o"], {"corpus"}),
    "rud": (["--in", "c", "--out", "o"], {"corpus"}),
    "normality": (["--in", "c"], {"corpus"}),
    "transform": (["--in", "c", "--out", "o"], {"corpus"}),
    "regress": (["--in", "c", "--out", "o"], {"corpus"}),
    "panel": (["--in", "c", "--out", "o", "--from", "2005-01-01",
               "--to", "2006-12-31"], {"corpus", "panel_from", "panel_to"}),
    "lq": (["--in", "c", "--out", "o", "--select", "weekday in 6",
            "--geojson", "g"], {"corpus", "select"}),
}


@pytest.mark.parametrize("stage", cli.STAGES, ids=lambda s: s.name)
class TestStageTable:
    def test_subcommand_help(self, stage, capsys):
        with pytest.raises(SystemExit) as exc:
            run([stage.name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: dwe {stage.name}")

    def test_declared_keys_accepted(self, stage, tmp_path):
        # every file-valued key gets a path that exists
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"stages = {stage.name}\n" + "".join(
            f"{key.name} = {cfg}\n" for key in stage.keys))
        config = cli.load_run_config(str(cfg))
        assert config.stages == (stage.name,)
        assert {key.name for key in stage.keys} <= set(config.raw)

    def test_required_flags_pass_no_optional_key(self, stage, monkeypatch):
        # an absent flag is an absent key: the stage applies its default
        seen = []

        def record(ctx):
            seen.append(dict(ctx.config))
            return ""

        monkeypatch.setitem(cli.STAGE_BY_NAME, stage.name,
                            dataclasses.replace(stage, run=record))
        argv, keys = REQUIRED_FLAGS[stage.name]
        assert run([stage.name, *argv]) == 0
        assert set(seen[0]) == keys


#: per Key, a value its stage rejects and the error after "<key>: "
BAD_KEY_VALUES = [
    (cli.HARVEST_STYLE, "harvest", "plos", "unknown history style 'plos'"),
    (cli.SCOPE, "rud", "nosuch", "unknown scope 'nosuch'"),
    (cli.SCOPE, "panel", "nosuch", "unknown scope 'nosuch'"),
    (cli.REGRESS_SCOPE, "regress", "nosuch", "unknown scope 'nosuch'"),
    (cli.MODELS, "regress", "M3..M1", "bad model range 'M3..M1'"),
    (cli.MODELS, "regress", ",", "no models given"),
    (cli.METHOD, "regress", "bogus", "unknown method 'bogus'; have ols or rls"),
    (cli.WINDOWS, "regress", "2011-2010",
     "window 2011-2010 ends before it starts"),
    (cli.WINDOWS, "regress", "2005-2006, 2006-2006",
     "windows 2005-2006 and 2006-2006 overlap"),
    (cli.WINDOWS, "regress", "2_005-2006", "not a canonical integer: '2_005'"),
    (cli.WINDOWS, "regress", "2010", "bad window '2010', want YYYY-YYYY"),
    (cli.PANEL_FROM, "panel", "2005-02-30", "day is out of range"),
    (cli.PANEL_FROM, "panel", "20050101", "not a YYYY-MM-DD date: '20050101'"),
    (cli.PANEL_TO, "panel", "2006-13-01", "month must be in 1..12"),
    (cli.PANEL_TO, "panel", "2004-12-31",
     "range ends before it starts: 2005-01-01..2004-12-31"),
    (cli.PANEL_TOP, "panel", "0",
     "the panel needs at least 1 country, got top_n = 0"),
    (cli.PANEL_TOP, "panel", "0_5", "not a canonical integer: '0_5'"),
    (cli.PANEL_WEIGHTING, "panel", "yes",
     "unknown weighting 'yes'; have none or multiply or wls"),
    (cli.SELECT, "lq", "weekday in 9", "weekday values out of 1..7: ['9']"),
    (cli.SELECT, "lq", "weekday in 6, 0_7",
     "weekday values must be ints: ['6', '0_7']"),
    (cli.SELECT, "lq", "weekday in", "unexpected end of selection expression"),
    (cli.SELECT, "lq", "(weekday = 1 weekday",
     "expected ')', got 'weekday'"),
    (cli.SELECT, "lq", "planet = 3", "unknown field 'planet'"),
    (cli.SELECT, "lq", "weekday 6", "expected '=' or 'in' after 'weekday'"),
    (cli.SELECT, "lq", "weekday in []", "empty value list after 'weekday'"),
    (cli.CLASSES, "lq", "0", "need at least 1 class, got 0"),
    (cli.CLASSES, "lq", "-2", "need at least 1 class, got -2"),
    (cli.CLASSES, "lq", "0_3", "not a canonical integer: '0_3'"),
]

#: the keys with no value a stage rejects, and why
UNCHECKED_KEYS = {
    cli.HARVEST_JOURNAL: "any string names the journal",
    cli.HARVEST_IN: "a path: the stage that reads it fails on a missing file",
    cli.CORPUS: "a path: the stage that reads it fails on a missing file",
    cli.COUNTRIES: "a path: the stage that reads it fails on a missing file",
    cli.TRANSFORM: "a path: the stage that reads it fails on a missing file",
}

#: a config under which every stage runs
GOOD_KEYS = {"harvest_style": "physica-like", "harvest_journal": "j",
             "scope": "consolidated", "models": "M1",
             "windows": "2005-2006", "panel_from": "2005-01-01",
             "panel_to": "2006-12-31", "panel_top": "5",
             "select": "weekday in 6, 7", "classes": "3"}


@pytest.fixture()
def card_archive(tmp_path):
    arch = tmp_path / "arch"
    arch.mkdir()
    (arch / "batch1.txt").write_text(CARDS, encoding="utf-8")
    return arch


def test_bad_key_values_cover_every_key():
    checked = {key for key, *_ in BAD_KEY_VALUES}
    assert checked.isdisjoint(UNCHECKED_KEYS)
    assert checked | set(UNCHECKED_KEYS) == set(cli.KEYS)


def test_window_years_may_be_spaced():
    assert cli._parse_windows(" 2005 - 2006 ,2007-2008", (2000, 2010)) \
        == ((2005, 2006), (2007, 2008))


@pytest.mark.parametrize(
    "key,stage,value,message", BAD_KEY_VALUES,
    ids=[f"{k.name}-{stage}-{value}" for k, stage, value, _ in BAD_KEY_VALUES])
def test_bad_key_value_fails_its_stage(tmp_path, corpus_csv, card_archive,
                                       key, stage, value, message):
    # the predecessors run, then the stage fails naming the key
    before = [] if stage == "harvest" else ["clean"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
        "stages": ", ".join(before + [stage]), "out_dir": tmp_path / "out",
        "harvest_in": card_archive, "corpus": corpus_csv, **GOOD_KEYS,
        key.name: value}.items()))
    assert run(["pipeline", "--config", cfg]) == 1
    marker = (tmp_path / "out" / "FAILED").read_text()
    assert f"stage={stage}\nerror={key.name}: {message}" in marker
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert [s["status"] for s in report["stages"]] \
        == ["ok"] * len(before) + ["failed"]


HUGE = "99999999999999999999"  # beyond int64 and a C long


def _jats(year: str = "2006", month: str = "8") -> str:
    return (f'<article><date date-type="received"><day>7</day><month>'
            f'{month}</month><year>{year}</year></date>'
            '<contrib contrib-type="author"/>'
            "<aff><addr-line>Rome, Italy</addr-line></aff></article>")


def _csv(row: str) -> str:
    return ",".join(cm.CSV_COLUMNS) + "\n" + row + "\n"


HARVEST = ["harvest", "--style", "nature-like", "--in", "arch",
           "--journal", "j", "--out", "h.csv"]
CLEAN_HARVEST = ["clean", "--in", "h.csv", "--out", "c.csv"]
REGRESS = ["regress", "--in", "corpus.csv", "--models", "M1",
           "--scope", "consolidated", "--out", "r.csv"]

#: files to write, the commands run in turn (each but the last exits 0),
#: the last one's exit code, and where the bad input is named: "err",
#: "out" or an output file
OUT_OF_RANGE = [
    pytest.param({"in.csv": _csv(f"{HUGE},j,2010-01-04,,,2,3,US")},
                 [["clean", "--in", "in.csv", "--out", "c.csv"]], 2, "err",
                 f"error: record {HUGE}: id outside the 64-bit range\n",
                 id="corpus-id"),
    pytest.param({"in.csv": _csv(f"1,j,2010-01-04,,,{HUGE},3,US")},
                 [["clean", "--in", "in.csv", "--out", "c.csv"]], 2, "err",
                 "error: record 1: author_count outside the 64-bit range\n",
                 id="author-count"),
    pytest.param({"arch/a.xml": _jats()},
                 [HARVEST + ["--first-id", HUGE], CLEAN_HARVEST], 2, "err",
                 f"error: record {HUGE}: id outside the 64-bit range\n",
                 id="first-id"),
    pytest.param({"arch/a.xml": _jats(year=HUGE)}, [HARVEST, CLEAN_HARVEST],
                 0, "out", "no-reception-date=1", id="jats-year"),
    pytest.param({"arch/a.xml": _jats(month=HUGE)}, [HARVEST, CLEAN_HARVEST],
                 0, "out", "no-reception-date=1", id="jats-month"),
    pytest.param({"countries.cfg": "iso=US continent=america hdi=0.9 "
                  f"from=2000-01-01 days={HUGE}\n"},
                 [["clean", "--in", "corpus.csv", "--countries",
                   "countries.cfg", "--out", "c.csv"]], 2, "err",
                 "error: countries.cfg line 1: weekend day codes must be "
                 "within 1..7\n", id="countries-days"),
    pytest.param({}, [["panel", "--in", "corpus.csv", "--from", "2005-01-01",
                       "--to", "2006-12-31", "--top", HUGE, "--out",
                       "p.csv"]], 2, "err", "error: panel_top: only 11 "
                 f"countries have articles in range, need {HUGE}\n",
                 id="panel-top"),
    pytest.param({}, [["lq", "--in", "corpus.csv", "--select", "weekday=6",
                       "--classes", HUGE, "--out", "l.csv", "--geojson",
                       "l.json"]], 2, "err", "error: classes: 11 distinct "
                 f"values cannot fill {HUGE} classes\n", id="classes"),
    pytest.param({}, [REGRESS + ["--windows", f"{HUGE}-{HUGE}"]], 0,
                 "r.csv", f"consolidated,{HUGE}-{HUGE},M1,,,,empty,0\n",
                 id="window"),
    pytest.param({"t.cfg": "scope=consolidated step1=power:1e999 "
                  "step2=power:1.0 jb=1.0\n"},
                 [REGRESS + ["--windows", "2005-2006", "--transform",
                             "t.cfg"]], 0, "r.csv",
                 "consolidated,2005-2006,M1,,,,failed: step 1 not finite",
                 id="transform-param"),
]


@pytest.mark.parametrize("files,commands,code,source,named", OUT_OF_RANGE)
def test_out_of_range_number_is_named(tmp_path, corpus_csv, capsys,
                                      monkeypatch, files, commands, code,
                                      source, named):
    # no traceback: main returns, and the error line, a cleaning count
    # or a marker row names the input
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in commands[:-1]:
        assert run(argv) == 0
    assert run(commands[-1]) == code
    streams = dict(zip(("out", "err"), capsys.readouterr()))
    text = streams[source] if source in streams \
        else (tmp_path / source).read_text(encoding="utf-8")
    assert named in text


def test_stages_read_only_their_keys(tmp_path, corpus_csv, card_archive,
                                     monkeypatch):
    # every key a stage reads passes through RunContext.value; a fresh
    # context per stage makes each read its own
    reads = []
    value = cli.RunContext.value

    def recording(ctx, key, *context):
        reads.append(key)
        return value(ctx, key, *context)

    monkeypatch.setattr(cli.RunContext, "value", recording)
    out = tmp_path / "out"
    out.mkdir()
    config = {"harvest_in": str(card_archive), "corpus": str(corpus_csv),
              **GOOD_KEYS}
    for stage in cli.STAGES:
        reads.clear()
        ctx = cli.RunContext(config, {name: str(out / name)
                                      for name in stage.outputs})
        stage.run(ctx)
        # equal: no read outside Stage.keys, and no declared key unread
        assert set(reads) == set(stage.keys), stage.name


def test_readme_stage_table_matches_stages():
    # per row: the backticked config keys, each with the default in the
    # parentheses after it (a required key's say "required"), then the
    # backticked file names; every other backticked word in the keys
    # column is a value some key takes, so no stale key name is left
    lines = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index(
        "| stage | keys it reads (default) | files in `out_dir` |")
    values = {value for key in cli.KEYS for value in key.choices}
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, keys, files = (cell.strip()
                             for cell in line.strip("|").split("|"))
        assert set(re.findall(r"`([^`]+)`", keys)) <= cli.KNOWN_KEYS | values
        found = [(k, d if d and "required" not in d else None)
                 for k, d in re.findall(r"`([^`]+)`(?: \(([^:;)]*))?", keys)
                 if k in cli.KNOWN_KEYS]
        rows[name] = (tuple(found), tuple(re.findall(r"`([^`]+)`", files)))
    assert rows == {s.name: (tuple((k.name, k.default) for k in s.keys),
                             s.outputs) for s in cli.STAGES}
    assert list(rows) == [s.name for s in cli.STAGES]


def test_readme_command_lines_parse():
    # every `dwe ...` line of the Command line section's sh blocks
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    lines = [line for block in re.findall(r"```sh\n(.*?)```", section,
                                          re.DOTALL)
             for line in block.splitlines() if line.startswith("dwe ")]
    assert len(lines) == len(cli.STAGES) + 1
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
