"""The experiment scripts run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("planted_weekday_effect.py", ["--years", "1", "--per-week", "30"]),
    ("panel_recovery.py", ["--seeds", "1", "--days", "120",
                           "--countries", "5"]),
    ("map_quotients.py", ["--classes", "3", "--out-dir", "map"]),
    ("panel_recovery.py", ["--seeds", "1", "--days", "120",
                           "--countries", "5", "--weighting", "multiply"])])
def test_script_runs(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_scale_run_one_tiny_pair(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_run.py"),
         "--a", str(ROOT), "--b", str(ROOT), "--per-week", "5",
         "--pairs", "1", "--work", str(tmp_path), "--json", "runs.json"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "corpus: 1542 articles at 5 a week"
    assert lines[1].startswith("pair 1: a ")
    assert lines[1].endswith("; outputs equal")
    record = json.loads((tmp_path / "runs.json").read_text())
    [pair] = record["pairs"]
    assert pair["differ"] == []
    for side in "ab":
        assert pair[side]["exit"] == 0
        assert pair[side]["wall_s"] > 0 and pair[side]["peak_rss_mb"] > 0
    # the ladder stages wrote every output
    assert sorted(p.name for p in (tmp_path / "b" / "out").iterdir()) == [
        "cleaned.csv", "cleaning_report.json", "normality.txt",
        "regress.csv", "rud.csv", "run_report.json", "transform.cfg"]


REGRESS = """scope,window,model,term,coefficient,stars,marker,n
all,2005-2006,M1,const,0.5,***,,100
all,2005-2006,M1,monday,0.25,**,,100
all,2005-2006,M1,_adjusted_r2,0.3,,,100
all,2007-2007,M1,,,,empty,0
"""
PANEL = """term,coefficient,std_error,t_stat,p_value,stars
const,1.0,0.1,10.0,0.0,***
weekend,-0.2,0.1,-2.0,0.04,**
"""
TRANSFORM = """scope=aaa step1=power:0.95 step2=power:0.55 jb=12.5
scope=bbb step1=power:0.5 step2=power:1.0 jb=3.25
"""


def test_outdiff_names_each_kind_of_change(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        (d / "run_report.json").write_text("{}\n", encoding="utf-8")
    (a / "regress.csv").write_text(REGRESS, encoding="utf-8")
    (b / "regress.csv").write_text(
        REGRESS.replace("0.25,**", "0.26,*")
        .replace(",,empty,0", ",,failed: 3 rows,0"), encoding="utf-8")
    (a / "sub" / "panel.csv").write_text(PANEL, encoding="utf-8")
    (b / "sub" / "panel.csv").write_text(
        PANEL.replace("-2.0,0.04", "-2.5,0.04"), encoding="utf-8")
    (a / "transform.cfg").write_text(TRANSFORM, encoding="utf-8")
    (b / "transform.cfg").write_text(
        TRANSFORM.replace("jb=12.5", "jb=12.50001")
        .replace("step2=power:1.0", "step2=power:0.9"), encoding="utf-8")
    (a / "normality.txt").write_text("x=1\ny=2\n", encoding="utf-8")
    (b / "normality.txt").write_text("x=1\ny=3\n", encoding="utf-8")
    (b / "extra.txt").write_text("new\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "outdiff.py"), str(a),
         str(b)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "extra.txt: differs",
        "  only in B",
        "normality.txt: differs",
        "  -y=2",
        "  +y=3",
        "regress.csv: differs",
        "  2 of 4 rows differ",
        "  coefficient: max abs change 0.01 at all 2005-2006 M1 monday; "
        "max rel change 0.04 at all 2005-2006 M1 monday",
        "  n: no change",
        "  stars: 1 changed",
        "  stars at all 2005-2006 M1 monday: '**' -> '*'",
        "  marker: 1 changed",
        "  marker at all 2007-2007 M1 : 'empty' -> 'failed: 3 rows'",
        "run_report.json: identical",
        "sub/panel.csv: differs",
        "  1 of 2 rows differ",
        "  coefficient: no change",
        "  std_error: no change",
        "  t_stat: max abs change 0.5 at weekend; max rel change 0.25 at "
        "weekend",
        "  p_value: no change",
        "  stars: no change",
        "transform.cfg: differs",
        "  spec 'bbb': 'scope=bbb step1=power:0.5 step2=power:1.0' -> "
        "'scope=bbb step1=power:0.5 step2=power:0.9'",
        "  1 scopes differ in their jb= digits alone"]
