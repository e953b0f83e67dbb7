"""Two-dimensional search reduction: closed forms, schedule-driven runs,
angle export, and step-count scaling."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from adiawalk import grover
from adiawalk.grover import (
    GroverInstance,
    QaoaAngleSet,
    ThresholdWarning,
    _result_from_state,
    effective_hamiltonians,
    gap_closed_forms,
    qaoa_angles,
    qaoa_replay,
    run_search,
    scaling_experiment,
    walk_closed_form,
)
from adiawalk.integrators import PF1, walk_operator
from adiawalk.linalg import operator_norm
from adiawalk.schedules import (
    bc_composite_schedule,
    build_grover_schedule,
    grover_d_constant,
    linear_schedule,
)

LINEAR = linear_schedule()


# ---------------------------------------------------------------------------
# oracles

def brute_pf1_walk(inst: GroverInstance, f: float, h: float) -> np.ndarray:
    """First-order splitting assembled from scipy matrix exponentials."""
    h0, h1 = effective_hamiltonians(inst)
    return scipy.linalg.expm(-1j * h * f * h1.matrix) @ scipy.linalg.expm(
        -1j * h * (1.0 - f) * h0.matrix
    )


def brute_gaps(inst: GroverInstance, f: float, h: float):
    """Hamiltonian gap by eigvalsh, walk gap by eigenphase arc."""
    h0, h1 = effective_hamiltonians(inst)
    evals = np.linalg.eigvalsh((1.0 - f) * h0.matrix + f * h1.matrix)
    lam = np.linalg.eigvals(brute_pf1_walk(inst, f, h))
    arc = abs(np.angle(lam[1]) - np.angle(lam[0]))
    return float(evals[1] - evals[0]), float(min(arc, 2.0 * math.pi - arc))


# ---------------------------------------------------------------------------
# instances and closed forms

def test_instance_validation():
    with pytest.raises(ValueError, match="marked"):
        GroverInstance(8, 0)
    with pytest.raises(ValueError, match="n >= 2m"):
        GroverInstance(8, 5)
    assert GroverInstance(64, 4).mu == pytest.approx(1.0 / 16.0)


@pytest.mark.parametrize("n,m", [(64, 1), (1024, 16)])
def test_effective_hamiltonian_entries(n, m):
    inst = GroverInstance(n, m)
    h0, h1 = effective_hamiltonians(inst)
    mu = m / n
    c = math.sqrt(mu * (1.0 - mu))
    assert np.allclose(h0.matrix, [[1.0 - mu, -c], [-c, mu]], atol=1e-15)
    assert np.allclose(h1.matrix, np.diag([0.0, 1.0]), atol=1e-15)
    assert np.linalg.eigvalsh(h0.matrix).min() >= -1e-15
    comm = h0.matrix @ h1.matrix - h1.matrix @ h0.matrix
    assert operator_norm(comm) == pytest.approx(math.sqrt(m * (n - m)) / n, abs=1e-14)


@pytest.mark.parametrize("h", [1.0, 0.7])
def test_gap_closed_forms_match_numeric(h):
    inst = GroverInstance(64, 1)
    for f in np.linspace(0.0, 1.0, 101):
        gh, gw = gap_closed_forms(inst, float(f), h)
        bh, bw = brute_gaps(inst, float(f), h)
        assert gh == pytest.approx(bh, abs=1e-13)
        assert gw == pytest.approx(bw, abs=1e-12)


def test_gap_closed_forms_shapes():
    inst = GroverInstance(64, 1)
    gh, gw = gap_closed_forms(inst, 0.3)
    assert isinstance(gh, float) and isinstance(gw, float)
    gh_arr, gw_arr = gap_closed_forms(inst, np.linspace(0, 1, 7))
    assert gh_arr.shape == (7,) and gw_arr.shape == (7,)


def test_walk_closed_form_is_the_first_order_walk():
    inst = GroverInstance(1024, 16)
    f = np.linspace(0.0, 1.0, 9)
    ws = walk_closed_form(inst, f)
    assert ws.shape == (9, 2, 2)
    eye = np.eye(2)
    for i, fi in enumerate(f):
        assert np.max(np.abs(ws[i].conj().T @ ws[i] - eye)) <= 1e-14
        assert np.allclose(ws[i], brute_pf1_walk(inst, float(fi), 1.0), atol=1e-12)
    h0, h1 = effective_hamiltonians(inst)
    via_operator = walk_operator(h0, h1, LINEAR, PF1, 1.0, 0.37)
    assert np.allclose(walk_closed_form(inst, 0.37), via_operator, atol=1e-12)


# ---------------------------------------------------------------------------
# schedule-driven searches

def test_run_search_validation_and_edge():
    inst = GroverInstance(1024, 1)
    with pytest.raises(ValueError, match="at least one step"):
        run_search(inst, LINEAR, 0)
    res = run_search(GroverInstance(4, 2), LINEAR, 16)  # n = 2m edge
    assert 0.0 <= res.success <= 1.0


def test_run_search_step_count_must_be_an_integer():
    # a float t used to issue its ThresholdWarning and then fail in range()
    inst, sched = GroverInstance(64), build_grover_schedule(64, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (10.0, 10.5):
            with pytest.raises(ValueError, match="integer"):
                run_search(inst, sched, t)
    ref = run_search(inst, sched, 300)
    assert np.array_equal(run_search(inst, sched, np.int64(300)).final_state, ref.final_state)


def test_search_error_success_consistency():
    res = run_search(GroverInstance(256, 1), build_grover_schedule(256, 1.0), 290)
    assert res.error ** 2 + res.success == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(res.final_state) == pytest.approx(1.0, abs=1e-12)


def test_search_error_resolves_below_roundoff_of_success():
    # at this step count the off-marked amplitude is ~3e-11, so 1 - success
    # cancels to zero in double precision; the error must still report it
    res = run_search(GroverInstance(1024, 1), bc_composite_schedule(), 25600)
    assert res.error > 0.0
    assert res.error == abs(res.final_state[1])
    assert res.error < 1e-9


def test_search_success_stays_a_probability():
    # the walk product's norm drifts by ~3e-14 here; success divides it out
    res = run_search(GroverInstance(1024, 1), bc_composite_schedule(), 25600)
    assert res.success <= 1.0
    assert res.success == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RuntimeError, match="norm drifted"):
        _result_from_state(np.array([1.0, 1e-4], dtype=complex))


def test_threshold_warning_boundary():
    # the regime threshold for this schedule sits at 12 d(256) ~ 41.66
    inst = GroverInstance(256, 1)
    sched = build_grover_schedule(256, 1.0)
    assert 41 < 12.0 * grover_d_constant(256, 1.0) < 42
    with pytest.warns(ThresholdWarning, match="threshold"):
        run_search(inst, sched, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_search(inst, sched, 42)


@pytest.mark.parametrize("log2n,expected", [(8, 0.9714), (14, 0.9509)])
def test_steeper_power_reaches_high_success(log2n, expected):
    n = 2 ** log2n
    t = math.ceil(8.0 * math.sqrt(n))
    res = run_search(GroverInstance(n, 1), build_grover_schedule(n, 1.5), t)
    assert res.success >= 0.5
    assert res.success == pytest.approx(expected, abs=5e-4)


def test_longer_runs_do_not_overshoot():
    # once the target is reached, doubling the step count keeps it reached
    cell = scaling_experiment([1024], [1], "power", 0.1)[0]
    sched = build_grover_schedule(1024, 1.0)
    inst = GroverInstance(1024, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThresholdWarning)
        errors = [run_search(inst, sched, cell.t_required * 2 ** k).error for k in range(4)]
    assert all(e <= 0.1 for e in errors)
    assert errors == sorted(errors, reverse=True)


# ---------------------------------------------------------------------------
# angle export

def test_qaoa_angles_values():
    angles = qaoa_angles(LINEAR, 8)
    assert angles.gammas.size == 8
    assert np.allclose(angles.gammas, np.arange(8) / 8.0, atol=1e-15)
    assert np.allclose(angles.betas, 1.0 - np.arange(8) / 8.0, atol=1e-15)
    with pytest.raises(ValueError, match="at least one step"):
        qaoa_angles(LINEAR, 0)


def test_qaoa_angles_step_count_must_be_an_integer():
    # t = 10.5 used to give 11 angle pairs read at j / 10.5
    sched = build_grover_schedule(64, 1.0)
    for t in (10.5, 10.0):
        with pytest.raises(ValueError, match="integer"):
            qaoa_angles(sched, t)
    angles = qaoa_angles(sched, np.int64(10))
    assert np.array_equal(angles.gammas, qaoa_angles(sched, 10).gammas)


def test_qaoa_angle_set_validation():
    with pytest.raises(ValueError, match="shapes"):
        QaoaAngleSet(gammas=np.zeros(3), betas=np.zeros(4))
    with pytest.raises(ValueError, match="shapes"):
        QaoaAngleSet(gammas=np.zeros((2, 2)), betas=np.zeros((2, 2)))


def test_qaoa_replay_is_bit_identical():
    inst = GroverInstance(1024, 1)
    sched = build_grover_schedule(1024, 1.0)
    direct = run_search(inst, sched, 64)
    replayed = qaoa_replay(inst, qaoa_angles(sched, 64))
    assert np.array_equal(direct.final_state, replayed.final_state)
    assert direct.success == replayed.success


def test_qaoa_replay_applies_its_betas():
    inst = GroverInstance(64, 3)
    h0, h1 = effective_hamiltonians(inst)
    gammas, betas = np.random.default_rng(11).uniform(-5.0, 5.0, (2, 40))
    psi = np.array([math.sqrt(inst.mu), math.sqrt(1.0 - inst.mu)], dtype=complex)
    for g, b in zip(gammas, betas):
        walk = scipy.linalg.expm(-1j * g * h1.matrix) @ scipy.linalg.expm(-1j * b * h0.matrix)
        psi = walk @ psi
    replayed = qaoa_replay(inst, QaoaAngleSet(gammas, betas))
    assert np.max(np.abs(replayed.final_state - psi)) < 1e-14


# ---------------------------------------------------------------------------
# scaling

def test_scaling_finds_exact_minimal_step_count():
    cell = scaling_experiment([256], [1], "power", 0.1)[0]
    assert cell.t_required == 290
    assert not cell.unreached
    assert cell.normalized_ratio == pytest.approx(290.0 / (16.0 * math.log(256)), rel=1e-12)
    sched = build_grover_schedule(256, 1.0)
    inst = GroverInstance(256, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThresholdWarning)
        assert run_search(inst, sched, 290).error <= 0.1
        assert run_search(inst, sched, 289).error > 0.1


def test_scaling_unreached_flag(monkeypatch):
    monkeypatch.setattr(grover, "SCALING_CAP", 8)
    cell = scaling_experiment([4096], [1], "power", 0.01)[0]
    assert cell.unreached
    assert cell.t_required is None
    assert math.isnan(cell.normalized_ratio)


def test_scaling_target_validation():
    with pytest.raises(ValueError, match="target error"):
        scaling_experiment([64], [1], "power", 0.0)
    with pytest.raises(ValueError, match="target error"):
        scaling_experiment([64], [1], "power", 1.0)
    with pytest.raises(ValueError, match="schedule kind"):
        scaling_experiment([64], [1], "cosine", 0.1)


def test_scaling_more_marked_items_is_easier():
    cells = scaling_experiment([256], [1, 2], "power", 0.1)
    assert cells[0].m == 1 and cells[1].m == 2
    assert cells[1].t_required <= cells[0].t_required


def test_scaling_alternative_schedules_run():
    lin = scaling_experiment([64], [1], "linear", 0.3)[0]
    assert lin.t_required == 201
    assert lin.normalized_ratio == pytest.approx(201.0 / 64.0, rel=1e-12)
    bc = scaling_experiment([64], [1], "bc", 0.3)[0]
    assert bc.t_required == 52
