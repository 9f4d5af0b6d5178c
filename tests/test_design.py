"""The columnar design build against its row-wise reference in
``reference_design.py``."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwe import corpus as cm, diststat, linmod, rud
from reference_corpus import DerivedFeatures, corpus_of, gather_columns
from reference_design import reference_build_design

YEARS = (2004, 2005, 2006)


@st.composite
def derived_features(draw, continents=cm.CONTINENTS):
    lto = draw(st.sampled_from((None, 25.0, 51.0, 87.0)))
    return DerivedFeatures(
        weekday=draw(st.integers(1, 7)),
        week_number=draw(st.integers(1, 54)),
        year=draw(st.sampled_from(YEARS)),
        season=draw(st.sampled_from(cm.SEASONS)),
        is_weekend=draw(st.booleans()),
        is_christmas=draw(st.booleans()),
        continent=draw(st.sampled_from(continents)),
        log10_authors=math.log10(draw(st.integers(1, 12))),
        log10_hdi=math.log10(draw(st.sampled_from((0.5, 0.8, 0.95, 1.0)))),
        log10_lto=None if lto is None else math.log10(lto))


@st.composite
def feature_sets(draw):
    """Features in article-id order and their (row, features) pairs in any
    order.

    Half the draws leave out some continents (africa among them), so
    their dummies are empty and drop."""
    continents = draw(st.sampled_from(
        (cm.CONTINENTS, ("europe", "america", "asia"))))
    feats = draw(st.lists(derived_features(continents), min_size=1,
                          max_size=40))
    ids = draw(st.permutations(range(1, len(feats) + 1)))
    pairs = [_pair(i, f) for i, f in zip(ids, feats)]
    by_id = [f for _, f in sorted(zip(ids, feats), key=lambda p: p[0])]
    return pairs, by_id


def _pair(article_id, f, journal="jj"):
    row = cm.RawRecord(
        id=article_id, journal=journal, received=date(f.year, 1, 1),
        revised=None, online=None, author_count=1, page_count=1,
        country="XX")
    return row, f


models = st.one_of(
    st.sampled_from(tuple(linmod.MODEL_TERMS)).map(linmod.standard_model),
    st.permutations(linmod.DESIGN_TERMS).flatmap(
        lambda terms: st.integers(1, len(terms)).map(
            lambda k: linmod.ModelSpec("custom", tuple(terms[:k])))))


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def assert_same_design(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.columns == want.columns
    assert got.dropped_columns == want.dropped_columns
    assert got.n_dropped_rows == want.n_dropped_rows
    for a, b in ((got.X, want.X), (got.y, want.y)):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # the same memory layout, so BLAS sums in the same order
        assert a.strides == b.strides


class TestColumnarDesign:
    @settings(max_examples=150, deadline=None)
    @given(feature_sets(), models, st.data())
    def test_equals_row_wise_reference(self, drawn, spec, data):
        pairs, feats = drawn
        y = data.draw(st.lists(st.floats(-5, 5), min_size=len(feats),
                               max_size=len(feats)))
        features = linmod.superset_matrix(gather_columns(pairs))
        got = _outcome(linmod.build_design, features,
                       np.asarray(y, dtype=float), spec)
        assert_same_design(got, _outcome(reference_build_design,
                                         feats, y, spec))
        if not isinstance(got, str):
            assert got.n_dropped_rows == sum(
                f.log10_lto is None for f in feats) \
                * ("log10_lto" in spec.terms)

    @settings(max_examples=40, deadline=None)
    @given(feature_sets())
    def test_roll_windows_are_row_masks(self, drawn):
        pairs, feats = drawn
        corpus = corpus_of(pairs)
        report = linmod.roll_window_run(
            corpus, windows=((1990, 1991), (2004, 2005), (2006, 2006)),
            model_ids=("M1", "M9"), scopes=["consolidated"],
            transform_specs={"consolidated": diststat.IDENTITY_SPEC})
        _, y = rud.attach_transform(rud.build_rud_dataset(corpus),
                                    diststat.IDENTITY_SPEC)
        for y0, y1 in ((1990, 1991), (2004, 2005), (2006, 2006)):
            rows = [i for i, f in enumerate(feats) if y0 <= f.year <= y1]
            for model_id in ("M1", "M9"):
                cell = [r for r in report.rows if r.model_id == model_id
                        and r.window == f"{y0}-{y1}"]
                if not rows:
                    assert [(r.marker, r.n) for r in cell] == [("empty", 0)]
                    continue
                want = _outcome(reference_build_design,
                                [feats[i] for i in rows],
                                [y[i] for i in rows],
                                linmod.standard_model(model_id))
                if not isinstance(want, str):
                    want = _outcome(linmod.ols_fit, want)
                if isinstance(want, str):
                    assert [r.marker for r in cell] == [f"failed: {want}"]
                    continue
                assert [r.term for r in cell] \
                    == list(want.columns) + ["_adjusted_r2"]
                assert [r.coefficient for r in cell[:-1]] \
                    == want.coefficients.tolist()
                assert {r.n for r in cell} == {want.n}

    def test_missing_lto_rows_counted(self):
        feats = [DerivedFeatures(
            weekday=1 + i % 7, week_number=1 + i // 7, year=2005,
            season=cm.SEASONS[i % 4], is_weekend=i % 7 >= 5,
            is_christmas=i % 11 == 0, continent=("europe", "asia")[i % 2],
            log10_authors=math.log10(1 + i % 5), log10_hdi=-0.05,
            log10_lto=None if i % 3 == 0 else math.log10(20 + i))
            for i in range(60)]
        features = linmod.superset_matrix(gather_columns(
            [_pair(i + 1, f) for i, f in enumerate(feats)]))
        y = np.linspace(-1.0, 1.0, 60) ** 3
        spec = linmod.standard_model("M9")
        design = linmod.build_design(features, y, spec)
        assert design.n_dropped_rows == 20 and design.n == 40
        # no africa, america or oceania rows: their dummies drop
        assert {"america", "africa", "oceania"} \
            <= set(design.dropped_columns)
        assert_same_design(design, reference_build_design(feats, y, spec))

    def test_no_rows_rejected(self):
        features = np.empty((0, len(linmod.DESIGN_TERMS)))
        with pytest.raises(ValueError, match="no usable observations"):
            linmod.build_design(features, np.empty(0),
                                linmod.standard_model("M1"))

    def test_unknown_term_rejected(self):
        features = np.ones((5, len(linmod.DESIGN_TERMS)))
        with pytest.raises(ValueError, match="unknown term 'friday'"):
            linmod.build_design(features, np.arange(5.0),
                                linmod.ModelSpec("x", ("const", "friday")))

