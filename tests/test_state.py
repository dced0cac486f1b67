import dataclasses

import numpy as np
import pytest

from stsdiff.state import (
    GridLayout,
    StateVector,
    ToleranceSpec,
    _cell_rms,
    wrms,
)


def make_state(values, layout):
    return StateVector(np.asarray(values, dtype=float), layout)


class TestGridLayout:
    def test_fd_dof_count(self):
        g = GridLayout("fd", 64, 32)
        assert g.n_b == 1
        assert g.n_cells == 64 * 32
        assert g.n_dof == 64 * 32

    def test_dg_dof_count(self):
        g = GridLayout("dg", 120, 20)
        assert g.n_b == 4
        assert g.n_dof == 120 * 20 * 4

    @pytest.mark.parametrize("kind,n_b", [("fd", 1), ("dg", 4)])
    def test_derived_sizes_are_set_once_and_are_not_fields(self, kind, n_b):
        g = GridLayout(kind, 12, 5)
        assert (g.n_b, g.n_cells, g.n_dof) == (n_b, 60, 60 * n_b)
        # numpy counts give an equal layout, with an equal hash
        h = GridLayout(kind, np.int64(12), np.int32(5))
        assert h == g and hash(h) == hash(g)
        assert (h.n_b, h.n_cells, h.n_dof) == (n_b, 60, 60 * n_b)
        assert g != GridLayout(kind, 5, 12)
        fields = [f.name for f in dataclasses.fields(g)]
        assert fields == ["kind", "n_v", "n_x"]
        assert repr(g) == f"GridLayout(kind={kind!r}, n_v=12, n_x=5)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n_dof = 1

    def test_cell_widths(self):
        g = GridLayout("fd", 8, 4)
        assert g.dv == pytest.approx(2 * np.pi / 8)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            GridLayout("fv", 8, 8)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            GridLayout("fd", 0, 8)

    def test_rejects_non_integer_counts(self):
        # a float count would reach n_dof and fail later as a TypeError
        for n_v, n_x in ((16.5, 1), (16.0, 1), (16, 2.0), ("16", 1)):
            with pytest.raises(ValueError, match="integers"):
                GridLayout("fd", n_v, n_x)
        assert GridLayout("dg", np.int64(16), np.int32(2)).n_dof == 128


class TestStateVector:
    def test_length_must_match_layout(self):
        g = GridLayout("dg", 2, 2)
        with pytest.raises(ValueError):
            StateVector(np.zeros(7), g)

    def test_cells_view_shape(self):
        g = GridLayout("dg", 3, 2)
        u = make_state(np.arange(24.0), g)
        assert u.cells().shape == (6, 4)
        # cell-major ordering: first 4 entries form cell 0
        assert list(u.cells()[0]) == [0.0, 1.0, 2.0, 3.0]


class TestToleranceSpec:
    def test_rejects_zero_rtol(self):
        with pytest.raises(ValueError):
            ToleranceSpec(rtol=0.0)

    def test_rejects_negative_atol(self):
        with pytest.raises(ValueError):
            ToleranceSpec(rtol=1e-3, atol=-1.0)

    @pytest.mark.parametrize("bad", [dict(atol=np.nan), dict(atol=np.inf),
                                     dict(rtol=np.nan), dict(rtol=np.inf)])
    def test_rejects_nonfinite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ToleranceSpec(**{"rtol": 1e-3, **bad})

    def test_accepts_zero_atol(self):
        assert ToleranceSpec(rtol=1e-3, atol=0.0).atol == 0.0


class TestWrmsComponent:
    def test_zero_error(self):
        g = GridLayout("fd", 4, 1)
        ref = make_state([1.0, -2.0, 3.0, 0.5], g)
        err = make_state(np.zeros(4), g)
        assert wrms("component", err, ref, ToleranceSpec(1e-3, 1e-6)) == 0.0

    def test_weights_cancel(self):
        g = GridLayout("fd", 4, 1)
        tol = ToleranceSpec(1e-3, 1e-6)
        ref = make_state([1.0, -2.0, 3.0, 0.5], g)
        err = make_state(tol.rtol * np.abs(ref.values) + tol.atol, g)
        assert wrms("component", err, ref, tol) == pytest.approx(
            1.0, rel=1e-14)

    def test_two_component_value(self):
        # hand evaluation: weights 2e-2, ratios (1.5, 2), rms sqrt(3.125)
        g = GridLayout("fd", 2, 1)
        ref = make_state([1.0, 1.0], g)
        err = make_state([3e-2, 4e-2], g)
        got = wrms("component", err, ref, ToleranceSpec(1e-2, 1e-2))
        assert got == pytest.approx(1.7677669529663689, rel=1e-14)

    def test_mismatched_layouts_rejected(self):
        a = make_state(np.zeros(4), GridLayout("fd", 4, 1))
        b = make_state(np.zeros(4), GridLayout("fd", 2, 2))
        with pytest.raises(ValueError):
            wrms("component", a, b, ToleranceSpec(1e-3))

    def test_nonfinite_propagates(self):
        g = GridLayout("fd", 2, 1)
        ref = make_state([1.0, 1.0], g)
        err = make_state([np.nan, 0.0], g)
        assert np.isnan(wrms("component", err, ref, ToleranceSpec(1e-3, 1e-6)))


class TestWrmsCellwise:
    def test_zero_error(self):
        g = GridLayout("dg", 2, 1)
        ref = make_state(np.ones(8), g)
        err = make_state(np.zeros(8), g)
        assert wrms("cell", err, ref, ToleranceSpec(1e-3, 1e-6)) == 0.0

    def test_single_cell_fixture(self):
        # ||ref||_C = sqrt((9+16)/2) = 3.5355, ||err||_C = 0.35355,
        # one cell, ratio 1 exactly
        got = (_cell_rms(np.array([[0.3, 0.4]]))
               / (0.1 * _cell_rms(np.array([[3.0, 4.0]])) + 0.0))[0]
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_single_cell_fixture_public_path(self):
        # duplicating the 2-dof pattern leaves both cell RMS values
        # unchanged, so the 4-dof DG cell reproduces the same ratio
        g = GridLayout("dg", 1, 1)
        ref = make_state([3.0, 4.0, 3.0, 4.0], g)
        err = make_state([0.3, 0.4, 0.3, 0.4], g)
        got = wrms("cell", err, ref, ToleranceSpec(0.1, 0.0))
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_reduces_to_component_when_one_dof_per_cell(self):
        g = GridLayout("fd", 10, 10)
        tol = ToleranceSpec(1e-4, 1e-9)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            ref = make_state(rng.standard_normal(100), g)
            err = make_state(1e-4 * rng.standard_normal(100), g)
            a = wrms("component", err, ref, tol)
            b = wrms("cell", err, ref, tol)
            assert b == pytest.approx(a, rel=1e-12)


class TestCellNorm:
    def test_zero_cell(self):
        g = GridLayout("dg", 1, 1)
        u = make_state(np.zeros(4), g)
        assert _cell_rms(u.cells())[0] == 0.0

    def test_constant_cell(self):
        g = GridLayout("dg", 1, 1)
        u = make_state(np.ones(4), g)
        assert _cell_rms(u.cells())[0] == pytest.approx(1.0)

    def test_two_dof_value(self):
        # RMS of (1, 2) is sqrt(2.5)
        assert _cell_rms(np.array([[1.0, 2.0]]))[0] == pytest.approx(
            np.sqrt(2.5), rel=1e-14)

    @pytest.mark.parametrize("n_b", [4, 2, 1])
    def test_matches_mean_of_squares(self, n_b):
        rng = np.random.default_rng(n_b)
        for scale in (1.0, 1e-150, 1e150):
            cells = scale * rng.standard_normal((2400, n_b))
            want = np.sqrt(np.mean(cells * cells, axis=1))
            np.testing.assert_allclose(_cell_rms(cells), want, rtol=1e-14)

    def test_duplicated_pattern_public_path(self):
        # one DG cell through the public cell-wise norm: atol 1 and
        # rtol * 0 weights leave the RMS of (1, 2, 1, 2)
        g = GridLayout("dg", 1, 1)
        u = make_state([1.0, 2.0, 1.0, 2.0], g)
        zero = make_state(np.zeros(4), g)
        assert wrms("cell", u, zero, ToleranceSpec(1.0, 1.0)) == \
            pytest.approx(np.sqrt(2.5), rel=1e-14)


class TestNormProperties:
    def test_absolute_homogeneity_at_zero_atol(self):
        tol = ToleranceSpec(1e-3, 0.0)
        rng = np.random.default_rng(7)
        for g in (GridLayout("fd", 16, 4), GridLayout("dg", 4, 4)):
            for _ in range(50):
                ref = make_state(rng.standard_normal(g.n_dof) + 2.0, g)
                err = make_state(rng.standard_normal(g.n_dof), g)
                c = rng.uniform(-5.0, 5.0)
                scaled = make_state(c * err.values, g)
                for kind in ("component", "cell"):
                    assert wrms(kind, scaled, ref, tol) == pytest.approx(
                        abs(c) * wrms(kind, err, ref, tol), rel=1e-12,
                        abs=1e-300)

    def test_monotonicity(self):
        tol = ToleranceSpec(1e-3, 1e-8)
        g = GridLayout("fd", 8, 8)
        rng = np.random.default_rng(11)
        for _ in range(200):
            ref = make_state(rng.standard_normal(64), g)
            err = rng.standard_normal(64)
            i = rng.integers(64)
            bigger = err.copy()
            bigger[i] = 3.0 * err[i] + np.sign(err[i]) + 1e-3
            a = wrms("component", make_state(err, g), ref, tol)
            b = wrms("component", make_state(bigger, g), ref, tol)
            assert b >= a

    def test_atol_only_bound(self):
        # with rtol effectively zero the norm cannot exceed max|e|/atol
        atol = 1e-6
        tol = ToleranceSpec(1e-300, atol)
        g = GridLayout("fd", 32, 1)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ref = make_state(rng.standard_normal(32), g)
            err = make_state(rng.standard_normal(32), g)
            bound = np.max(np.abs(err.values)) / atol
            assert wrms("component", err, ref, tol) <= bound * (1 + 1e-12)


def test_wrms_dispatch():
    g = GridLayout("fd", 2, 1)
    ref = make_state([1.0, 1.0], g)
    err = make_state([3e-2, 4e-2], g)
    tol = ToleranceSpec(1e-2, 1e-2)
    # hand evaluation as in test_two_component_value; with one dof per
    # cell the cell norm is the component norm bit for bit
    assert wrms("component", err, ref, tol) == pytest.approx(
        1.7677669529663689, rel=1e-14)
    assert wrms("cell", err, ref, tol) == wrms("component", err, ref, tol)
    with pytest.raises(ValueError):
        wrms("l2", err, ref, tol)
