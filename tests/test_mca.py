"""Tests for the correspondence-analysis fit and literal-label scores."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import burt_scores, centred_burt, flat_literals, with_never_seen_category
from mcarules import mca
from mcarules.benchmark import synthetic_dataset
from mcarules.dataset import AttributeSchema, CategoricalDataset, Literal, subset
from mcarules.mca import (
    ScoreUndefinedError,
    build_indicator,
    fit,
    score_table,
)
from mcarules.miner import MinerConfig, mine


def ca_oracle(N):
    """Brute-force correspondence analysis via eigen-decomposition of StS.

    Independent of the fitted path: forms the n x J residual matrix S from
    its definition in floating point, where ``fit`` forms SᵀS from integer
    Burt counts. Returns (singular values, column principal coordinates) for components
    whose singular value is clearly nonzero.
    """
    N = np.asarray(N, dtype=np.float64)
    P = N / N.sum()
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    S = (P - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    evals, evecs = np.linalg.eigh(S.T @ S)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    keep = evals > 1e-12  # sigma > 1e-6, clear of the eigh noise floor
    sigma = np.sqrt(evals[keep])
    V = evecs[:, keep]
    coords = V * sigma[None, :] / np.sqrt(c)[:, None]
    return sigma, coords


def oracle_cosine(coords, i, j):
    u, v = coords[i], coords[j]
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def random_dataset(rng, n, sizes, n_labels=2):
    """Random dataset in which every declared category and label occurs."""
    while True:
        X = np.column_stack([rng.integers(0, s, size=n) for s in sizes])
        Y = rng.integers(0, n_labels, size=n)
        occupied = all(
            np.unique(X[:, j]).size == s for j, s in enumerate(sizes)
        ) and np.unique(Y).size == n_labels
        if occupied:
            break
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=tuple(f"c{v}" for v in range(s)))
        for j, s in enumerate(sizes)
    )
    labels = tuple(f"l{v}" for v in range(n_labels))
    return CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=labels)


def perfectly_correlated_dataset():
    schemas = (AttributeSchema(name="a1", categories=("c1", "c2")),)
    X = np.array([[0], [1]])
    Y = np.array([0, 1])
    return CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("l0", "l1"))


def dataset_with_absent_categories():
    """Three attributes and three labels; ``a1`` category ``c2`` and label ``l2`` never occur."""
    rng = np.random.default_rng(0)
    n = 40
    X = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 4, n)])
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=tuple(f"c{v}" for v in range(s)))
        for j, s in enumerate([2, 3, 4])
    )
    return CategoricalDataset(
        schemas=schemas, X=X, Y=rng.integers(0, 2, n), label_names=("l0", "l1", "l2")
    )


class TestBuildIndicator:
    def test_two_row_one_hot(self):
        ind = build_indicator(perfectly_correlated_dataset())
        np.testing.assert_array_equal(
            ind.matrix, [[1, 0, 1, 0], [0, 1, 0, 1]]
        )

    def test_literal_column_is_its_attribute_test(self):
        ds = dataset_with_absent_categories()
        ind = build_indicator(ds)
        assert ind.n_columns == int(ds.literal_offsets[-1]) + ds.n_labels
        for j, schema in enumerate(ds.schemas):
            for c in range(schema.n_categories):
                np.testing.assert_array_equal(
                    ind.matrix[:, ds.literal_offsets[j] + c], ds.X[:, j] == c
                )

    def test_label_column_is_its_label_test(self):
        ds = dataset_with_absent_categories()
        ind = build_indicator(ds)
        n_literals = int(ds.literal_offsets[-1])
        for k in range(ds.n_labels):
            np.testing.assert_array_equal(ind.matrix[:, n_literals + k], ds.Y == k)

    def test_row_sums_are_p_plus_one(self):
        ds = dataset_with_absent_categories()
        ind = build_indicator(ds)
        np.testing.assert_array_equal(ind.matrix.sum(axis=1), np.full(ds.n, ds.p + 1))

    def test_never_seen_category_has_zero_column(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y", "z")),)
        X = np.array([[0], [1], [0], [1]])
        Y = np.array([0, 1, 0, 1])
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("u", "v"))
        ind = build_indicator(ds)
        np.testing.assert_array_equal(
            ind.matrix, [[1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]
        )


class TestFit:
    def test_perfectly_correlated_scores(self):
        ds = perfectly_correlated_dataset()
        table = score_table(fit(build_indicator(ds)), ds)
        assert table.score(Literal(0, 0), 0) == pytest.approx(1.0)
        assert table.score(Literal(0, 0), 1) == pytest.approx(-1.0)
        assert table.score(Literal(0, 1), 1) == pytest.approx(1.0)

    def test_perfectly_correlated_matches_oracle(self):
        ds = perfectly_correlated_dataset()
        ind = build_indicator(ds)
        model = fit(ind)
        sigma, coords = ca_oracle(ind.matrix)
        assert model.n_components == sigma.size
        np.testing.assert_allclose(model.singular_values, sigma, atol=1e-10)
        for comp in range(sigma.size):
            a = model.category_coords[:, comp]
            b = coords[:, comp]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8

    def test_identical_rows_yield_zero_components(self):
        schemas = (AttributeSchema(name="a", categories=("x", "y")),)
        X = np.zeros((5, 1), dtype=int)
        Y = np.zeros(5, dtype=int)
        # Bypass the two-class label check: declare two labels, use one.
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("u", "v"))
        model = fit(build_indicator(ds))
        assert model.n_components == 0
        with pytest.raises(ScoreUndefinedError):
            score_table(model, ds).score(Literal(0, 0), 0)

    def test_total_inertia_identity(self):
        rng = np.random.default_rng(42)
        for sizes in ([2, 3, 2], [3, 3], [2, 2, 2, 2]):
            ds = random_dataset(rng, n=50, sizes=sizes)
            ind = build_indicator(ds)
            model = fit(ind)
            expected = ind.n_columns / (ds.p + 1) - 1
            assert np.sum(model.singular_values**2) == pytest.approx(expected, abs=1e-8)

    def test_right_vectors_orthonormal_and_sign_fixed(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=30, sizes=[2, 3])
        model = fit(build_indicator(ds))
        V = (
            model.category_coords
            * np.sqrt(model.column_counts / model.column_counts.sum())[:, None]
            / model.singular_values[None, :]
        )
        np.testing.assert_allclose(V.T @ V, np.eye(model.n_components), atol=1e-8)
        for j in range(model.n_components):
            assert V[np.argmax(np.abs(V[:, j])), j] > 0

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=25, sizes=[2, 3])
        perm = rng.permutation(ds.n)
        shuffled = CategoricalDataset(
            schemas=ds.schemas, X=ds.X[perm], Y=ds.Y[perm], label_names=ds.label_names
        )
        a = score_table(fit(build_indicator(ds)), ds)
        b = score_table(fit(build_indicator(shuffled)), shuffled)
        for lit in (Literal(0, 0), Literal(1, 2)):
            for k in (0, 1):
                assert a.score(lit, k) == pytest.approx(b.score(lit, k), abs=1e-10)

    def test_row_duplication_invariance(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=20, sizes=[2, 2])
        doubled = CategoricalDataset(
            schemas=ds.schemas,
            X=np.vstack([ds.X, ds.X]),
            Y=np.concatenate([ds.Y, ds.Y]),
            label_names=ds.label_names,
        )
        a = score_table(fit(build_indicator(ds)), ds)
        b = score_table(fit(build_indicator(doubled)), doubled)
        for lit in (Literal(0, 0), Literal(1, 1)):
            for k in (0, 1):
                assert a.score(lit, k) == pytest.approx(b.score(lit, k), abs=1e-10)


class TestOracleEquivalence:
    def test_coordinates_and_cosines_match_oracle(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 20:
            sizes = list(rng.choice([2, 3], size=rng.integers(2, 4)))
            n = int(rng.integers(8, 21))
            ds = random_dataset(rng, n=n, sizes=sizes)
            ind = build_indicator(ds)
            present = ind.matrix.sum(axis=0) > 0
            if present.sum() > 15:
                continue
            model = fit(ind)
            table = score_table(model, ds)
            sigma, coords = ca_oracle(ind.matrix[:, present])
            oracle_row = np.cumsum(present) - 1
            strong = model.singular_values > 1e-6
            assert strong.sum() == sigma.size
            # Components are sign-comparable only when singular values are
            # well separated; cosines are compared unconditionally below.
            gaps_ok = np.all(np.abs(np.diff(sigma)) > 1e-6)
            if gaps_ok:
                for comp in range(sigma.size):
                    a = model.category_coords[present, comp]
                    b = coords[:, comp]
                    assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8
            n_literals = int(ds.literal_offsets[-1])
            for flat, lit in enumerate(flat_literals(ds)):
                for k in range(ds.n_labels):
                    try:
                        got = table.score(lit, k)
                    except ScoreUndefinedError:
                        continue
                    want = oracle_cosine(coords, oracle_row[flat], oracle_row[n_literals + k])
                    assert got == pytest.approx(want, abs=1e-8)
            checked += 1

    def test_scores_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ds = random_dataset(rng, n=15, sizes=[2, 3])
            model = fit(build_indicator(ds))
            table = score_table(model, ds)
            vals = table.scores
            vals = vals[~np.isnan(vals)]
            assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


class TestTruncation:
    def test_truncated_fit_keeps_leading_columns(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n=40, sizes=[3, 3, 2])
        ind = build_indicator(ds)
        full = fit(ind)
        assert full.n_components >= 3
        cut = fit(ind, components=2)
        assert cut.n_components == 2
        np.testing.assert_array_equal(
            cut.singular_values, full.singular_values[:2]
        )
        np.testing.assert_array_equal(
            cut.category_coords, full.category_coords[:, :2]
        )

    def test_components_beyond_rank_keeps_full_fit(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, n=30, sizes=[2, 3])
        ind = build_indicator(ds)
        full = fit(ind)
        wide = fit(ind, components=999)
        assert wide.n_components == full.n_components
        np.testing.assert_array_equal(wide.category_coords, full.category_coords)

    def test_components_must_be_positive(self):
        ds = perfectly_correlated_dataset()
        ind = build_indicator(ds)
        with pytest.raises(ValueError):
            fit(ind, components=0)
        with pytest.raises(ValueError):
            fit(ind, components=-1)

    def test_truncated_cosine_matches_oracle_on_leading_coords(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 5:
            ds = random_dataset(rng, n=int(rng.integers(15, 30)), sizes=[2, 3, 2])
            ind = build_indicator(ds)
            present = ind.matrix.sum(axis=0) > 0
            sigma, coords = ca_oracle(ind.matrix[:, present])
            oracle_row = np.cumsum(present) - 1
            # Component order is only comparable with a separated spectrum.
            if sigma.size < 3 or np.any(np.abs(np.diff(sigma)) < 1e-6):
                continue
            model = fit(ind, components=2)
            table = score_table(model, ds)
            lead = coords[:, :2]
            n_literals = int(ds.literal_offsets[-1])
            for flat, lit in enumerate(flat_literals(ds)):
                for k in range(ds.n_labels):
                    try:
                        got = table.score(lit, k)
                    except ScoreUndefinedError:
                        continue
                    want = oracle_cosine(lead, oracle_row[flat], oracle_row[n_literals + k])
                    assert got == pytest.approx(want, abs=1e-8)
            checked += 1

    def test_single_component_scores_are_signs(self):
        # In a one-dimensional space the cosine of two scalars is the sign
        # of their product, so every defined score collapses to +-1.
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, n=40, sizes=[3, 2, 2])
        table = score_table(fit(build_indicator(ds), components=1), ds)
        vals = table.scores
        vals = vals[~np.isnan(vals)]
        assert vals.size > 0
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-8)


class TestScoreTable:
    def test_full_coverage_category_is_undefined(self):
        # A category present in every row carries no information; its
        # residual column is exactly zero and its score must be undefined.
        schemas = (
            AttributeSchema(name="const", categories=("always", "never")),
            AttributeSchema(name="var", categories=("x", "y")),
        )
        X = np.array([[0, 0], [0, 1], [0, 0], [0, 1]])
        Y = np.array([0, 1, 0, 1])
        ds = CategoricalDataset(schemas=schemas, X=X, Y=Y, label_names=("u", "v"))
        model = fit(build_indicator(ds))
        table = score_table(model, ds)
        with pytest.raises(ScoreUndefinedError):
            table.score(Literal(0, 0), 0)
        # The never-seen sibling category is undefined too.
        with pytest.raises(ScoreUndefinedError):
            table.score(Literal(0, 1), 0)
        assert table.score(Literal(1, 0), 0) == pytest.approx(1.0)


@st.composite
def small_datasets(draw):
    """A small dataset; categories and labels may be absent or cover every row."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    n_labels = draw(st.integers(2, 3))
    cells = [st.integers(0, s - 1) for s in sizes] + [st.integers(0, n_labels - 1)]
    row = st.tuples(*cells)
    rows = np.array(draw(st.lists(row, min_size=1, max_size=30)))
    schemas = tuple(
        AttributeSchema(name=f"a{j}", categories=tuple(f"c{v}" for v in range(s)))
        for j, s in enumerate(sizes)
    )
    labels = tuple(f"l{v}" for v in range(n_labels))
    return CategoricalDataset(
        schemas=schemas, X=rows[:, :-1], Y=rows[:, -1], label_names=labels
    )


class TestPhiIdentity:
    @settings(max_examples=150, deadline=None)
    @given(ds=small_datasets())
    def test_full_rank_score_is_phi_coefficient(self, ds):
        # With every component kept, the cosine of two category rows is the
        # phi coefficient of their indicator columns:
        # (n n_lk - f_l f_k) / sqrt(f_l (n - f_l) f_k (n - f_k)).
        table = score_table(fit(build_indicator(ds)), ds)
        n = ds.n
        for j, schema in enumerate(ds.schemas):
            for cat in range(schema.n_categories):
                in_l = ds.X[:, j] == cat
                f_l = int(in_l.sum())
                for k in range(ds.n_labels):
                    in_k = ds.Y == k
                    f_k = int(in_k.sum())
                    num = Fraction(n * int((in_l & in_k).sum()) - f_l * f_k)
                    den = Fraction(f_l * (n - f_l) * f_k * (n - f_k))
                    got = table.scores[table.flat_index(Literal(j, cat)), k]
                    if den == 0:
                        assert np.isnan(got)
                    elif num == 0:
                        assert got == 0.0
                    else:
                        # got = num / sqrt(den), compared exactly via squares.
                        assert np.sign(got) == np.sign(num)
                        ratio = Fraction(got) ** 2 * den / num**2
                        assert abs(ratio - 1) < Fraction(1, 10**12)


class TestNeverSeenCategory:
    @settings(max_examples=150, deadline=None)
    @given(ds=small_datasets(), data=st.data())
    def test_appended_category_changes_no_other_score(self, ds, data):
        # A category no row takes gets an all-zero indicator column. It must
        # score NaN against every label and leave every other score, and the
        # mined rules, bit for bit as they were.
        j = data.draw(st.integers(0, ds.p - 1))
        wider = with_never_seen_category(ds, j)
        new = int(wider.literal_offsets[j + 1]) - 1
        config = MinerConfig(s_min=0.1, mu_min=0.0)
        for components in (None, 1, 2):
            model = fit(build_indicator(ds), components=components)
            wider_model = fit(build_indicator(wider), components=components)
            got = score_table(wider_model, wider).scores
            assert np.isnan(got[new]).all()
            np.testing.assert_array_equal(
                np.delete(got, new, axis=0), score_table(model, ds).scores
            )
            assert mine(wider, wider_model, config) == mine(ds, model, config)


class TestDeferredCoordinates:
    @settings(max_examples=100, deadline=None)
    @given(ds=small_datasets())
    @example(ds=CategoricalDataset(
        schemas=(AttributeSchema(name="a0", categories=("c0", "c1")),),
        X=np.zeros((3, 1), dtype=int), Y=np.zeros(3, dtype=int), label_names=("l0", "l1"),
    ))
    def test_deferred_equals_eager(self, ds):
        # fit(ind) computes coordinates on first read; components=J computes
        # them inside fit. Both must give the same bits.
        ind = build_indicator(ds)
        deferred = fit(ind)
        eager = fit(ind, components=ind.n_columns)
        np.testing.assert_array_equal(deferred.gram, eager.gram)
        assert deferred.n_components == eager.n_components
        np.testing.assert_array_equal(deferred.singular_values, eager.singular_values)
        np.testing.assert_array_equal(deferred.category_coords, eager.category_coords)
        assert deferred.category_coords.shape == (ind.n_columns, deferred.n_components)
        if np.all(ind.matrix == ind.matrix[:1]):
            assert deferred.n_components == 0

    def test_deferred_values_are_validated(self, monkeypatch):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, n=30, sizes=[2, 3])
        ind = build_indicator(ds)
        real_eigh = np.linalg.eigh

        def ascending_after_reversal(a):
            evals, evecs = real_eigh(a)
            return evals[::-1], evecs[:, ::-1]

        monkeypatch.setattr(np.linalg, "eigh", ascending_after_reversal)
        model = fit(ind)  # counts only; nothing decomposed yet
        for read in ("singular_values", "category_coords", "n_components"):
            with pytest.raises(ValueError, match="positive and descending"):
                getattr(model, read)
        with pytest.raises(ValueError, match="positive and descending"):
            fit(ind, components=1)


@st.composite
def count_path_datasets(draw):
    """``small_datasets``, cut to a row subset and maybe given a never-seen category."""
    ds = draw(small_datasets())
    rows = draw(st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=ds.n, unique=True))
    ds = subset(ds, sorted(rows))
    if draw(st.booleans()):
        ds = with_never_seen_category(ds, draw(st.integers(0, ds.p - 1)))
    return ds


class TestFullRankCounts:
    @settings(max_examples=150, deadline=None)
    @given(ds=count_path_datasets())
    def test_scores_and_rules_match_burt_oracle(self, ds):
        # The full-rank fit counts literal-label pairs; its scores must have
        # the bits of the ones read from the whole centred Burt matrix, and
        # mine what the eager K-based fit (components at the rank) mines.
        ind = build_indicator(ds)
        model = fit(ind)
        table = score_table(model, ds)
        assert "matrix" not in vars(ind)
        assert np.array_equal(table.scores, burt_scores(ds), equal_nan=True)
        config = MinerConfig(s_min=0.1, mu_min=0.0)
        assert mine(ds, model, config) == mine(ds, fit(ind, components=ind.n_columns), config)

    @settings(max_examples=100, deadline=None)
    @given(ds=count_path_datasets())
    def test_lazy_gram_is_centred_burt(self, ds):
        ind = build_indicator(ds)
        model = fit(ind)
        assert "gram" not in vars(model)
        np.testing.assert_array_equal(model.gram, centred_burt(ds))
        assert "matrix" not in vars(ind)
        eager = fit(ind, components=ind.n_columns)
        np.testing.assert_array_equal(model.category_coords, eager.category_coords)
        np.testing.assert_array_equal(model.singular_values, eager.singular_values)

    def test_full_rank_builds_no_one_hot_and_truncated_counts_nothing(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(3), n=60, sizes=[2, 3, 4])
        real_one_hot = mca._one_hot

        def refuse(*_):
            raise AssertionError("this path must not call it")

        monkeypatch.setattr(mca, "_one_hot", refuse)
        ind = build_indicator(ds)
        model = fit(ind)
        mine(ds, model, MinerConfig(s_min=0.1, mu_min=0.0))
        assert "matrix" not in vars(ind) and "gram" not in vars(model)
        # The truncated fit needs the one-hot anyway; it must not count too,
        # so a fresh dataset's packed literal rows stay unbuilt.
        monkeypatch.setattr(mca, "_one_hot", real_one_hot)
        fresh = subset(ds, np.arange(ds.n))
        score_table(fit(build_indicator(fresh), components=1), fresh)
        assert "literal_bits" not in vars(fresh)


    @pytest.mark.parametrize("n, p", [(3_000, 40), (500, 2_000)])
    def test_counts_over_several_row_blocks_match_burt_oracle(self, n, p):
        # Each label's rows fill several packed 64-row words, all popcounted.
        ds = synthetic_dataset(n, p, 3, 0.1, 0.5, seed=n + p)
        assert ds.label_counts().min() > 64
        table = score_table(fit(build_indicator(ds)), ds)
        assert np.array_equal(table.scores, burt_scores(ds), equal_nan=True)


class TestMemory:
    def test_full_rank_scoring_stays_far_below_the_one_hot(self):
        ds = synthetic_dataset(20_000, 100, 3, 0.1, 0.5, seed=0)
        one_hot_bytes = ds.n * (int(ds.literal_offsets[-1]) + ds.n_labels) * 8
        tracemalloc.start()
        try:
            score_table(fit(build_indicator(ds)), ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_hot_bytes / 10
