"""The three benchmark workloads: inputs, pipeline config and expectations.

Every input is drawn from ``dwe.synth.SynthConfig`` with a seed derived
from the benchmark's ``--seed``, so a seed fixes the inputs byte for byte.
``setup(workload, seed, directory)`` writes one workload's inputs and its
``run.cfg`` into ``directory`` and returns what the output checks expect.

Why these three (each is one single-process ``dwe pipeline`` run, a closed
loop of one run at a time):

* ``ladder``: the OLS model ladder M1..M9 over two 3-year windows and four
  scopes, with the transform fitted in the run.  The transform grid search
  (diststat) and design building (linmod) do most of the work.
* ``robust``: the bisquare IRLS fit over six 1-year windows, reading a
  transform spec that set-up fitted.  linmod works differently from
  ``ladder`` and diststat does no work, so a transform-search gain must
  show as no change here.
* ``ingest``: harvest of a card and JATS archive, then panel and lq.
  harvest does most of the work; panel and geo run only here.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from dwe import cli, corpus, diststat, rud, synth

START_YEAR, END_YEAR = 2010, 2015
JOURNALS = ("alpha-letters", "beta-reports", "gamma-review")
INGEST_JOURNAL = "physica-a"
ALL_MODELS = tuple(f"M{i}" for i in range(1, 10))

#: planted bad inputs of the ingest archive, per kind
PLANTED_MALFORMED_XML = 2
PLANTED_NOT_RESEARCH = 2
PLANTED_UNRESOLVED_COUNTRY = 3
PLANTED_NO_HISTORY = 3
UNRESOLVABLE_COUNTRY = "Freedonia"


@dataclass
class Expected:
    """What a correct pipeline run over one workload's inputs produces."""

    stages: tuple[str, ...]
    articles: int                     # corpus rows the pipeline reads
    kept: int                         # rows that survive cleaning
    dropped: dict[str, int]           # cleaning drops by reason
    regress_scopes: tuple[str, ...] = ()
    windows: tuple[tuple[int, int], ...] = ()
    models: tuple[str, ...] = ()
    archive_files: int = 0            # harvest input files
    planted_skips: tuple[str, ...] = ()  # files harvest must skip


def workload_seed(workload: str, seed: int) -> int:
    """SynthConfig seed of one workload; distinct per workload."""
    return seed * 16 + WORKLOADS.index(workload) + 1


def _windows_text(windows) -> str:
    return ", ".join(f"{a}-{b}" for a, b in windows)


def _write_config(directory: Path, lines: dict[str, str]) -> None:
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    (directory / "run.cfg").write_text(text, encoding="utf-8")


def _no_drops() -> dict[str, int]:
    return {reason: 0 for reason in corpus.DROP_REASONS}


# -- ladder -----------------------------------------------------------------

def setup_ladder(seed: int, directory: Path) -> Expected:
    cfg = synth.SynthConfig(seed=seed, start_year=START_YEAR,
                            end_year=END_YEAR, articles_per_week=99.0,
                            journals=JOURNALS)
    rows = synth.make_corpus_rows(cfg)
    corpus.write_corpus_csv(rows, str(directory / "corpus.csv"))
    windows = ((2010, 2012), (2013, 2015))
    stages = ("clean", "rud", "normality", "transform", "regress")
    # no `scope` key: rud and transform use the consolidated flow and
    # regress runs every scope
    _write_config(directory, {
        "stages": ", ".join(stages), "out_dir": "out",
        "corpus": "corpus.csv", "models": "M1..M9",
        "windows": _windows_text(windows)})
    return Expected(stages=stages, articles=len(rows), kept=len(rows),
                    dropped=_no_drops(),
                    regress_scopes=(rud.CONSOLIDATED,) + JOURNALS,
                    windows=windows, models=ALL_MODELS)


# -- robust -----------------------------------------------------------------

def setup_robust(seed: int, directory: Path) -> Expected:
    cfg = synth.SynthConfig(seed=seed, start_year=START_YEAR,
                            end_year=END_YEAR, articles_per_week=150.0,
                            journals=JOURNALS)
    rows = synth.make_corpus_rows(cfg)
    corpus.write_corpus_csv(rows, str(directory / "corpus.csv"))
    # the spec is fitted on this corpus's own ratios, so every ratio lies
    # in the transform's domain
    cleaned = corpus.clean_corpus(rows, corpus.load_default_countries())
    sample = [o.rud for o in rud.build_rud_dataset(cleaned)]
    fit = diststat.fit_transform_spec(sample)
    cli.write_transform_cfg({rud.CONSOLIDATED: fit},
                            str(directory / "transform.cfg"))
    windows = tuple((y, y) for y in range(START_YEAR, END_YEAR + 1))
    stages = ("clean", "regress")
    _write_config(directory, {
        "stages": ", ".join(stages), "out_dir": "out",
        "corpus": "corpus.csv", "scope": rud.CONSOLIDATED,
        "method": "rls", "models": "M1..M9",
        "windows": _windows_text(windows), "transform": "transform.cfg"})
    return Expected(stages=stages, articles=len(rows), kept=len(rows),
                    dropped=_no_drops(), regress_scopes=(rud.CONSOLIDATED,),
                    windows=windows, models=ALL_MODELS)


# -- ingest -----------------------------------------------------------------

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")


def _physica_date(d: date) -> str:
    return f"{d.day} {_MONTHS[d.month - 1]} {d.year}"


def _author_names(n: int, tag: int) -> list[str]:
    return [f"{chr(65 + (tag + i) % 26)}. Writer{tag % 997}x{i}"
            for i in range(n)]


def _card(row: corpus.RawRecord, first_page: int, country_name: str,
          history: bool = True) -> str:
    names = _author_names(row.author_count, row.id)
    authors = names[0] if len(names) == 1 else \
        ", ".join(names[:-1]) + " and " + names[-1]
    lines = [f"Title: Synthetic study {row.id}",
             f"Authors: {authors}",
             f"Pages: pages {first_page}-{first_page + row.page_count - 1}"]
    if history:
        lines.append(f"History: Received {_physica_date(row.received)}; "
                     f"received in revised form {_physica_date(row.revised)}"
                     f"; available online {_physica_date(row.online)}")
    lines.append(f"Country: {country_name}")
    return "\n".join(lines) + "\n"


def _xml_date(tag: str, attr: str, d: date) -> str:
    return (f'<{tag} {attr}><day>{d.day}</day><month>{d.month}</month>'
            f'<year>{d.year}</year></{tag}>')


def _jats(row: corpus.RawRecord, country_name: str,
          subject: str = "Research Article") -> str:
    contribs = []
    for i, name in enumerate(_author_names(row.author_count, row.id)):
        given, surname = name.split(". ")
        corresp = ' corresp="yes"' if i == 0 else ""
        contribs.append(
            f'<contrib contrib-type="author"{corresp}><name>'
            f'<surname>{surname}</surname><given-names>{given}.'
            '</given-names></name><xref ref-type="aff" rid="aff1"/>'
            '</contrib>')
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n<article><front>'
        '<article-meta><article-categories><subj-group>'
        f'<subject>{subject}</subject></subj-group></article-categories>'
        f'<article-id pub-id-type="doi">10.5555/synth.{row.id}</article-id>'
        '<title-group><article-title>Synthetic study '
        f'{row.id}</article-title></title-group>'
        f'<contrib-group>{"".join(contribs)}</contrib-group>'
        f'<aff id="aff1"><addr-line>Institute {row.id % 89}, Campus Road, '
        f'{country_name}</addr-line></aff><history>'
        + _xml_date("date", 'date-type="received"', row.received)
        + _xml_date("date", 'date-type="accepted"', row.revised)
        + '</history>'
        + _xml_date("pub-date", 'pub-type="epub"', row.online)
        + f'<counts><page-count count="{row.page_count}"/></counts>'
        '</article-meta></front></article>\n')


def setup_ingest(seed: int, directory: Path) -> Expected:
    """Card and JATS archive with a few planted bad inputs.

    About 9 in 10 articles go to ``physica-like`` card files of 200 to 400
    cards; the rest are single-article JATS files.  Harvest reads files in
    sorted name order, so ``expected_corpus.csv`` lists the rows harvest
    must produce, planted bad cards included, with ids in that order.
    """
    table = corpus.load_default_countries()
    # every country in the table, with Zipf weights; the biggest eleven
    # all have an LTO value, so the panel keeps every top-11 cell
    isos = synth.DEFAULT_COUNTRIES + tuple(
        sorted(set(table) - set(synth.DEFAULT_COUNTRIES)))
    weights = tuple(1.0 / rank for rank in range(1, len(isos) + 1))
    rng = np.random.default_rng(seed)
    cfg = synth.SynthConfig(seed=seed, start_year=START_YEAR,
                            end_year=END_YEAR, articles_per_week=115.0,
                            journals=(INGEST_JOURNAL,), countries=isos,
                            country_weights=weights)
    rows = synth.make_corpus_rows(cfg)
    name_of = {iso: table[iso].names[0] for iso in isos}

    # file name -> list of (text, expected row or None); names sort in the
    # order the files were opened
    files: dict[str, list[tuple[str, corpus.RawRecord | None]]] = {}
    card_file: str | None = None
    card_limit = 0
    for row in rows:
        if rng.random() < 0.1:
            name = f"f{len(files):05d}.xml"
            files[name] = [(_jats(row, name_of[row.country]), row)]
            continue
        if card_file is None or len(files[card_file]) >= card_limit:
            card_file = f"f{len(files):05d}.txt"
            files[card_file] = []
            card_limit = int(rng.integers(200, 401))
        first = int(rng.integers(1, 900))
        files[card_file].append((_card(row, first, name_of[row.country]),
                                 row))

    card_files = [n for n in files if n.endswith(".txt")]
    planted_skips = []
    for kind, count in (("malformed", PLANTED_MALFORMED_XML),
                        ("editorial", PLANTED_NOT_RESEARCH)):
        for _ in range(count):
            name = f"f{len(files):05d}.xml"
            row = rows[int(rng.integers(len(rows)))]
            text = _jats(row, name_of[row.country],
                         "Editorial" if kind == "editorial"
                         else "Research Article")
            if kind == "malformed":
                text = text[:len(text) // 2]
            files[name] = [(text, None)]
            planted_skips.append(name)
    for history in (False,) * PLANTED_NO_HISTORY \
            + (True,) * PLANTED_UNRESOLVED_COUNTRY:
        row = rows[int(rng.integers(len(rows)))]
        target = files[card_files[int(rng.integers(len(card_files)))]]
        at = int(rng.integers(len(target) + 1))
        country = name_of[row.country] if not history \
            else UNRESOLVABLE_COUNTRY
        bad = corpus.RawRecord(
            id=0, journal=INGEST_JOURNAL,
            received=row.received if history else None,
            revised=row.revised if history else None,
            online=row.online if history else None,
            author_count=row.author_count, page_count=row.page_count,
            country=row.country if not history else "")
        target.insert(at, (_card(row, 1, country, history), bad))

    archive = directory / "archive"
    archive.mkdir()
    expected_rows = []
    for name in sorted(files):
        entries = files[name]
        text = "\n".join(t for t, _ in entries)
        (archive / name).write_text(text, encoding="utf-8")
        expected_rows.extend(r for _, r in entries if r is not None)
    with open(directory / "expected_corpus.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(corpus.CSV_COLUMNS)
        for i, r in enumerate(expected_rows, start=1):
            w.writerow([i, r.journal, _iso(r.received), _iso(r.revised),
                        _iso(r.online), r.author_count, r.page_count,
                        r.country])

    stages = ("harvest", "clean", "rud", "normality", "panel", "lq")
    _write_config(directory, {
        "stages": ", ".join(stages), "out_dir": "out",
        "harvest_in": "archive", "harvest_style": "physica-like",
        "harvest_journal": INGEST_JOURNAL, "panel_top": "11",
        "panel_from": f"{START_YEAR}-01-01",
        "panel_to": f"{END_YEAR}-12-31",
        "select": "weekday in 6, 7", "classes": "5"})
    dropped = _no_drops()
    dropped["no-reception-date"] = PLANTED_NO_HISTORY
    dropped["unclear-country"] = PLANTED_UNRESOLVED_COUNTRY
    return Expected(stages=stages, articles=len(expected_rows),
                    kept=len(expected_rows) - sum(dropped.values()),
                    dropped=dropped, archive_files=len(files),
                    planted_skips=tuple(sorted(planted_skips)))


def _iso(d: date | None) -> str:
    return d.isoformat() if d is not None else ""


SETUPS = {"ladder": setup_ladder, "robust": setup_robust,
          "ingest": setup_ingest}
WORKLOADS = tuple(SETUPS)


def setup(workload: str, seed: int, directory: Path) -> Expected:
    """Write one workload's inputs and run.cfg into an empty directory."""
    return SETUPS[workload](workload_seed(workload, seed), directory)


def tree_digest(directory: Path) -> str:
    """sha256 over the relative names and bytes of every file below."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
