"""Planted interpolation pairs and their gap tables and fidelity sweeps."""

import numpy as np
import pytest
import scipy.linalg

from adiawalk import toymodels
from adiawalk.toymodels import (
    DEFAULT_EPSILONS,
    TOY_KINDS,
    build_toy,
    fidelity_sweep,
    four_level_pair,
    gap_table,
    qr_basis,
)

TRIDIAG = np.array(
    [
        [2.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 2.0],
    ]
)


# ---------------------------------------------------------------------------
# oracles

def planted_spectrum(eps: float) -> np.ndarray:
    return np.array([-0.5, -0.5 + eps, 0.2, 0.6])


def midpoint_walk(model) -> np.ndarray:
    """W(1/2) for the first-order splitting at h = 1, via scipy."""
    return scipy.linalg.expm(-0.5j * model.h1.matrix) @ scipy.linalg.expm(
        -0.5j * model.h0.matrix
    )


# ---------------------------------------------------------------------------
# construction

def test_qr_basis_properties():
    q = qr_basis(TRIDIAG)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-14)
    assert np.array_equal(q, qr_basis(TRIDIAG))
    assert np.allclose(qr_basis(np.eye(4)), np.eye(4), atol=1e-15)
    # sign convention: the R factor it implies has a nonnegative diagonal
    r = q.T @ TRIDIAG
    assert np.all(np.diag(r) >= 0.0)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_toy1_plants_the_midpoint_walk(eps):
    model = build_toy("toy1", eps)
    q = qr_basis(TRIDIAG)
    target = (q * np.exp(-1j * planted_spectrum(eps))) @ q.T
    assert np.max(np.abs(midpoint_walk(model) - target)) <= 1e-10
    assert np.max(np.abs(model.reference - target)) <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_toy2_plants_the_midpoint_hamiltonian(eps):
    model = build_toy("toy2", eps)
    q = qr_basis(TRIDIAG)
    target = (q * planted_spectrum(eps)) @ q.T
    mid = (model.h0.matrix + model.h1.matrix) / 2.0
    assert np.max(np.abs(mid - target)) <= 1e-12
    assert np.allclose(np.linalg.eigvalsh(mid), np.sort(planted_spectrum(eps)), atol=1e-12)


def test_build_toy_validation():
    with pytest.raises(ValueError, match="kind"):
        build_toy("toy3", 0.0)
    with pytest.raises(ValueError, match="eps"):
        build_toy("toy1", -0.01)
    with pytest.raises(ValueError, match="eps"):
        build_toy("toy1", 0.2)
    assert set(TOY_KINDS) == {"toy1", "toy2"}


def test_toy_models_share_fixed_pieces():
    model = build_toy("toy2", 0.05)
    assert model.schedule.kind == "linear"
    assert np.allclose(model.h1.matrix, np.diag([-1.0, -0.6, 0.0, 1.0]), atol=1e-15)
    assert model.eps == 0.05
    assert model.kind == "toy2"


def test_four_level_pair_spectra():
    h0, h1 = four_level_pair()
    assert np.allclose(np.linalg.eigvalsh(h0.matrix), [0.5, 0.8, 1.2, 1.4], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(h1.matrix), [0.3, 1.0, 1.5, 1.9], atol=1e-12)


# ---------------------------------------------------------------------------
# gap tables

def test_gap_table_degenerate_rows():
    # planting the degeneracy in the walk (toy1) leaves the Hamiltonian
    # gapped, and vice versa (toy2)
    row1 = gap_table("toy1", eps_list=(0.0,), grid=2000)[0]
    assert row1.gap_w == 0.0
    assert 1e-3 <= row1.gap_h <= 4e-3
    row2 = gap_table("toy2", eps_list=(0.0,), grid=2000)[0]
    assert row2.gap_h == 0.0
    assert 1e-3 <= row2.gap_w <= 4e-3


def test_gap_table_flags_the_odd_reference_row():
    rows = gap_table("toy1", eps_list=(1e-2, 5e-3, 0.0), grid=500)
    assert rows[0].flag == "reference-mismatch"
    assert rows[1].flag == ""
    assert rows[2].flag == ""


def test_gap_table_default_rows():
    rows = gap_table("toy2", grid=500)
    assert [r.eps for r in rows] == list(DEFAULT_EPSILONS)
    flagged = [r.eps for r in rows if r.flag]
    assert flagged == [0.01]


def test_gap_table_rows_do_not_depend_on_the_chunk_length(monkeypatch):
    whole = gap_table("toy1", eps_list=(0.05, 0.0), grid=2000)
    monkeypatch.setattr(toymodels, "GAP_TABLE_CHUNK", 7)
    assert gap_table("toy1", eps_list=(0.05, 0.0), grid=2000) == whole


def test_gap_table_gaps_shrink_with_eps():
    rows = gap_table("toy2", eps_list=(0.1, 0.02, 0.005), grid=1000)
    gaps_h = [r.gap_h for r in rows]
    assert gaps_h == sorted(gaps_h, reverse=True)


# ---------------------------------------------------------------------------
# fidelity sweeps

def test_fidelity_sweep_mechanics():
    rows = fidelity_sweep([10.0, 20.0], [1.0, 0.5], eps=0.05)
    assert [(r.t, r.h) for r in rows] == [(10.0, 1.0), (20.0, 1.0), (10.0, 0.5), (20.0, 0.5)]
    for row in rows:
        assert row.td == round(row.t / row.h)
        assert row.fidelity_ground ** 2 + row.fidelity_excited ** 2 <= 1.0 + 1e-9
    with pytest.raises(ValueError, match="no steps"):
        fidelity_sweep([0.3], [1.0])


def test_fidelity_sweep_slow_evolution_improves():
    rows = fidelity_sweep([1e3, 1e4], [1.0], eps=0.0)
    assert rows[1].fidelity_ground > rows[0].fidelity_ground
    assert rows[0].fidelity_ground == pytest.approx(0.0756, abs=1e-3)
    assert rows[1].fidelity_ground == pytest.approx(0.2229, abs=1e-3)
    # at this gapless point the excited path keeps nearly all the weight
    assert rows[1].fidelity_excited > 0.9
