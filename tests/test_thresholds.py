import math
from types import SimpleNamespace

import numpy as np
import pytest

from angiosim import harness, thresholds
from angiosim.config import parse_config
from angiosim.dynamics import ModelParams
from angiosim.thresholds import (
    REPORT_FIELDS,
    ThresholdReport,
    compute_m1,
    condition_presets,
    empirical_d0_check,
    empirical_mu_threshold,
    lambda_of_z,
    m1c_value,
    mitosis_regime_floor,
    sigma_rate,
    structural_M0,
    structural_gradw_bound,
)

def params(**kw):
    base = dict(chi=0.0, xi1=0.0, xi2=0.0, d=1.0, a=0.0, mu=0.0, theta=1.0, n_dim=1)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# generic constants

def test_generic_constants_are_fixed_at_one():
    # the paper gives no values for K1, K2, xi0 and mu0
    assert (thresholds.K1, thresholds.K2, thresholds.XI0, thresholds.MU0) == (1.0,) * 4


# ---------------------------------------------------------------------------
# mass ceiling

def test_m1_is_exact_mass_without_damping():
    assert compute_m1(2.0, params(mu=0.0, a=1.0), 1.0) == 2.0


def test_m1_logistic_excess_pinned():
    # a = mu = theta = 1, |Omega| = 1: excess = 2^2 * 1 * 1 * (1/2) = 2
    assert compute_m1(2.0, params(a=1.0, mu=1.0, theta=1.0), 1.0) == pytest.approx(4.0, rel=1e-15)


def test_m1_strong_damping_limit():
    heavy = compute_m1(2.0, params(a=1.0, mu=1e12, theta=1.0), 1.0)
    assert 2.0 < heavy < 2.0 + 1e-10


def test_m1_scales_with_measure():
    small = compute_m1(1.0, params(a=1.0, mu=1.0, theta=2.0), 1.0)
    big = compute_m1(1.0, params(a=1.0, mu=1.0, theta=2.0), 3.0)
    assert big - 1.0 == pytest.approx(3.0 * (small - 1.0), rel=1e-14)


def test_m1_rejects_bad_inputs():
    with pytest.raises(ValueError, match="measure"):
        compute_m1(1.0, params(), 0.0)
    with pytest.raises(ValueError, match="u0_mass"):
        compute_m1(-1.0, params(), 1.0)


# ---------------------------------------------------------------------------
# structural sup-norm bound for v

def test_M0_pinned_no_damping():
    # xi2 = d = 1, n = 2, mu = 0: (1 + 1) * (1 + 1 + 1) = 6
    p = params(xi2=1.0, d=1.0, mu=0.0, n_dim=2)
    assert structural_M0(p) == pytest.approx(6.0, rel=1e-15)


def test_M0_pinned_with_damping():
    # mu = 4, theta = 2 gives r = 1/2; xi2 = d = 1, n = 1:
    # (1 + .5 + 1)(1 + .5 + .5^1.5) = 2.5 * 1.8535533905932737
    p = params(xi2=1.0, d=1.0, mu=4.0, theta=2.0, a=1.0, n_dim=1)
    assert structural_M0(p) == pytest.approx(4.633883476483184, rel=1e-14)


def test_M0_large_diffusivity_limit():
    p = params(xi2=2.0, d=1e12, mu=0.0, n_dim=2)
    assert structural_M0(p) == pytest.approx(1.5 * 3.0, rel=1e-9)


def test_M0_nonincreasing_in_d():
    vals = [structural_M0(params(xi2=1.0, d=d, n_dim=2)) for d in (0.5, 1.0, 2.0, 10.0)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_M0_requires_positive_xi2():
    with pytest.raises(ValueError, match="xi2"):
        structural_M0(params(xi2=0.0))


def test_M0_scales_with_K1(monkeypatch):
    p = params(xi2=1.0, d=1.0, mu=0.0, n_dim=2)
    monkeypatch.setattr(thresholds, "K1", 2.5)
    assert structural_M0(p) == pytest.approx(15.0, rel=1e-14)


# ---------------------------------------------------------------------------
# mitosis floor and the gradient-bound branches

def test_mitosis_floor_exponents(monkeypatch):
    # n = 2: exponents 12/7 and 2/7 combine to chi^2 when chi >= 1
    assert mitosis_regime_floor(2.0, 2) == pytest.approx(4.0, rel=1e-14)
    assert mitosis_regime_floor(1.0, 2) == 1.0
    # chi < 1 drops the max term, leaving chi^(2/7)
    assert mitosis_regime_floor(0.5, 2) == pytest.approx(0.5 ** (2.0 / 7.0), rel=1e-14)
    monkeypatch.setattr(thresholds, "MU0", 3.0)
    assert mitosis_regime_floor(2.0, 2) == pytest.approx(12.0, rel=1e-14)


def test_m1c_repulsion_branch():
    m1c, m_mu = m1c_value(params(mu=0.0, xi1=2.0, chi=1.0), 1.0)
    assert m1c == 2.0
    assert math.isnan(m_mu)


def test_m1c_repulsion_branch_needs_dominance():
    with pytest.raises(ValueError, match="xi1 >= xi0\\*chi\\^2"):
        m1c_value(params(mu=0.0, xi1=0.5, chi=1.0), 1.0)


def test_m1c_mitosis_branch_pinned():
    # theta = 1, mu = 2 > floor(chi=1) = 1, xi1 = 0, n = 1:
    # r = 1/2, M_mu = (1 + 0 + 1/2) * (1/2)^2 = 0.375
    p = params(mu=2.0, theta=1.0, chi=1.0, xi1=0.0, a=1.0)
    m1c, m_mu = m1c_value(p, 1.0)
    assert m1c == pytest.approx(0.375, rel=1e-15)
    assert m_mu == m1c


def test_m1c_mitosis_branch_floor_enforced():
    p = params(mu=0.5, theta=1.0, chi=1.0, xi1=0.0, a=1.0)
    with pytest.raises(ValueError, match="needs mu >"):
        m1c_value(p, 1.0)


def test_m1c_strong_damping_tail_pinned():
    # theta = 2, mu = d = M0 = xi2 = 1, chi = 1, xi1 = 0, n = 1:
    # M_mu = 2, tail = (2 * 2 * 1)^4 = 256
    p = params(mu=1.0, theta=2.0, chi=1.0, xi1=0.0, xi2=1.0, d=1.0, a=1.0)
    m1c, m_mu = m1c_value(p, 1.0)
    assert m_mu == pytest.approx(2.0, rel=1e-15)
    assert m1c == pytest.approx(258.0, rel=1e-14)


def test_m1c_no_branch_for_weak_damping_exponent():
    p = params(mu=1.0, theta=0.5, chi=2.0, xi1=0.0, a=1.0)
    with pytest.raises(ValueError, match="no gradient-bound branch"):
        m1c_value(p, 1.0)


def test_gradw_bound_pinned():
    # mu = 0, xi1 = chi = d = 1, n = 1, M0 = 2: m1c = 1, inner = 1 + 1 + 1 = 3
    p = params(mu=0.0, xi1=1.0, chi=1.0, d=1.0, n_dim=1)
    assert structural_gradw_bound(p, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_gradw_bound_past_the_float_range_reads_inf():
    # M0 is about 1e100, so M0^(2n+2) overflows; the bound has no domain
    # term on a convex box to turn that into 0 * inf = nan
    p = params(chi=0.5, xi1=1.0, xi2=1.0, mu=1e-80, theta=2.0)
    with np.errstate(over="ignore"):
        M0 = structural_M0(p)
        assert math.isfinite(M0) and M0 ** 4 == math.inf
        assert structural_gradw_bound(p, M0) == math.inf


# ---------------------------------------------------------------------------
# damping threshold kernel

def test_lambda_of_z_pinned():
    p = params(chi=0.0, xi1=0.0, xi2=1.0, d=1.0, a=1.0, theta=2.0)
    assert lambda_of_z(p, 1.0 / math.pi, 4.0) == pytest.approx(2.0 / math.pi ** 2, rel=1e-14)


def test_lambda_of_z_theta_two_denominator():
    # theta = 2 removes the a-dependence: lambda = d chi^2 / (2 d^2)
    p = params(chi=1.0, d=3.0, a=7.0, theta=2.0)
    assert lambda_of_z(p, 0.5, 1.0) == pytest.approx(3.0 / 18.0, rel=1e-14)


def test_lambda_of_z_growth_scaling_theta_one():
    p1 = params(chi=1.0, d=1.0, a=1.0, theta=1.0)
    p4 = params(chi=1.0, d=1.0, a=4.0, theta=1.0)
    assert lambda_of_z(p4, 0.5, 1.0) == pytest.approx(4.0 * lambda_of_z(p1, 0.5, 1.0), rel=1e-14)


def test_lambda_of_z_needs_growth():
    with pytest.raises(ValueError, match="a > 0"):
        lambda_of_z(params(a=0.0), 0.5, 1.0)


# ---------------------------------------------------------------------------
# empirical checks of measured sups

def test_mu_threshold_zero_without_couplings():
    p = params(a=1.0, mu=1.0, theta=1.0)
    assert empirical_mu_threshold(p, 0.5, 1.0) == 0.0


def test_mu_threshold_pinned():
    # chi = d = 1, xi = 0, theta = 2: lambda = 1/2 regardless of A, threshold = 1/2
    p = params(chi=1.0, d=1.0, a=1.0, mu=1.0, theta=2.0)
    got = empirical_mu_threshold(p, 0.5, 2.0)
    assert got == pytest.approx(0.5, rel=1e-14)
    # adding xi2 = 1 with sup A = 2: lambda = (1 + .25*4)/2 = 1
    p2 = params(chi=1.0, xi2=1.0, d=1.0, a=1.0, mu=1.0, theta=2.0)
    got2 = empirical_mu_threshold(p2, 0.5, 2.0)
    assert got2 == pytest.approx(1.0, rel=1e-14)


def run_report(p, records, cp=0.5):
    """harness._report of a completed run with params p, whose records are given
    as dicts of the columns that differ from a flat state's."""
    cfg = SimpleNamespace(preset="custom", params=p, grid=SimpleNamespace(measure=1.0),
                          fit_column="l2_u_dev", fit_window=None)
    flat = dict(mass_u=1.0, linf_u=1.0, linf_v=1.0, linf_grad_w=0.0, min_u=1.0, min_v=1.0,
                elliptic_residual=0.0, F1=math.nan, l2_u_dev=1.0)
    recs = [SimpleNamespace(**{"t": float(k), **flat, **rec}) for k, rec in enumerate(records)]
    traj = SimpleNamespace(records=recs, termination_reason="completed", failure_detail="")
    return harness._report(cfg, traj, cp)


def test_mu_threshold_uses_running_sup():
    # the report measures A as the largest linf_v of the run, not its last
    p = params(xi2=1.0, d=1.0, a=1.0, mu=1.0, theta=2.0)

    def report(linf_v):
        return run_report(p, [{"linf_v": x} for x in linf_v])[0]
    lo, hi = report([1.0, 2.0, 1.5]), report([1.0, 3.0, 1.5])
    assert (lo.empirical_A, hi.empirical_A) == (2.0, 3.0)
    assert hi.mu_threshold > lo.mu_threshold == empirical_mu_threshold(p, 0.5, 2.0)


def test_mu_threshold_preconditions():
    with pytest.raises(ValueError, match="theta >= 1"):
        empirical_mu_threshold(params(a=1.0, mu=1.0, theta=0.5), 0.5, 1.0)
    with pytest.raises(ValueError):
        empirical_mu_threshold(params(a=0.0, mu=1.0), 0.5, 1.0)


def test_d0_check_pinned():
    # d = 1, chi = 0.1, xi1 = xi2 = 1, A = 1, B = 0.5:
    # core = 1 - 0.225 - 0.0625 = 0.7125, check = 0.07125, eps1 = 0.35625/0.775
    p = params(chi=0.1, xi1=1.0, xi2=1.0, d=1.0)
    value, eps1 = empirical_d0_check(p, 1.0, 0.5)
    assert value == pytest.approx(0.07125, rel=1e-13)
    assert eps1 == pytest.approx(0.35625 / 0.775, rel=1e-13)


def test_d0_check_chi_zero_always_passes():
    value, eps1 = empirical_d0_check(params(chi=0.0, xi1=1.0, xi2=1.0), 5.0, 5.0)
    assert value == 0.0  # on the pass boundary, check_value >= 0
    assert eps1 == 0.0


def test_d0_check_fails_for_thin_diffusion():
    p = params(chi=1.0, xi1=0.5, xi2=0.0, d=0.2)
    value, eps1 = empirical_d0_check(p, 1.0, 2.0)
    assert value == pytest.approx(-1.8, rel=1e-13)
    assert eps1 == 0.0


def test_d0_check_improves_with_d():
    lo, _ = empirical_d0_check(params(chi=0.5, xi1=1.0, d=1.0), 1.0, 1.0)
    hi, _ = empirical_d0_check(params(chi=0.5, xi1=1.0, d=2.0), 1.0, 1.0)
    assert hi > lo


def test_d0_check_preconditions():
    with pytest.raises(ValueError, match="growth-free"):
        empirical_d0_check(params(a=1.0, xi1=1.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="xi1"):
        empirical_d0_check(params(chi=1.0, xi1=0.0), 1.0, 1.0)


# ---------------------------------------------------------------------------
# entropy decay rate floor

def test_sigma_uncoupled_unit_rate():
    assert sigma_rate(params(a=1.0, mu=1.0, theta=1.0), 0.5, 1.0) == 1.0


def test_sigma_clamps_at_one():
    # b = 4, bracket = 1: raw rate 4 clamps to 1
    assert sigma_rate(params(a=4.0, mu=1.0, theta=1.0), 0.5, 1.0) == 1.0


def test_sigma_unclamped_value():
    assert sigma_rate(params(a=0.25, mu=1.0, theta=1.0), 0.5, 1.0) == pytest.approx(0.25, rel=1e-14)


def test_sigma_pinned_with_couplings():
    # a = 0.5, chi = 0.5, cp = 0.3, theta = 1: bracket = mu - 0.125 b, b = 0.5/mu
    p1 = params(a=0.5, mu=1.0, chi=0.5, theta=1.0)
    assert sigma_rate(p1, 0.3, 1.0) == pytest.approx(0.46875, rel=1e-13)
    p2 = params(a=0.5, mu=2.0, chi=0.5, theta=1.0)
    assert sigma_rate(p2, 0.3, 1.0) == pytest.approx(0.4921875, rel=1e-13)
    assert sigma_rate(p2, 0.3, 1.0) > sigma_rate(p1, 0.3, 1.0)


def test_sigma_rejects_subcritical_damping():
    p = params(a=0.1, mu=0.1, chi=10.0, theta=1.0)
    with pytest.raises(ValueError, match="damping below the decay regime"):
        sigma_rate(p, 0.5, 1.0)


def test_sigma_preconditions():
    with pytest.raises(ValueError, match="theta >= 1"):
        sigma_rate(params(a=1.0, mu=1.0, theta=0.5), 0.5, 1.0)
    with pytest.raises(ValueError):
        sigma_rate(params(a=1.0, mu=0.0), 0.5, 1.0)


# ---------------------------------------------------------------------------
# regime classification

def test_regime_repulsion_dominant():
    assert condition_presets(params(theta=1.0, mu=0.0, chi=1.0, xi1=10.0)) == "R1"


def test_regime_repulsion_takes_precedence():
    # satisfies both the xi1 condition and the theta > 1 branch: reported as R1
    assert condition_presets(params(chi=1.0, xi1=2.0, theta=2.0, mu=1.0, a=1.0)) == "R1"


def test_regime_mitosis_branch():
    # chi = 2, n = 1: floor = 2^(5/3) * 2^(1/3) = 4; boundary value included
    p = params(chi=2.0, xi1=0.0, theta=1.0, mu=4.0, a=1.0)
    assert condition_presets(p) == "R2"
    assert condition_presets(params(chi=2.0, xi1=0.0, theta=1.0, mu=5.0, a=1.0)) == "R2"


def test_regime_strong_damping_branch():
    p = params(chi=1.0, xi1=0.5, theta=1.5, mu=0.1, a=1.0)
    assert condition_presets(p) == "R3"


def test_regime_open_cases():
    assert condition_presets(params(chi=2.0, xi1=0.0, theta=1.0, mu=3.9, a=1.0)) == "open"
    assert condition_presets(params(chi=1.0, xi1=0.0, theta=0.5, mu=1.0, a=1.0)) == "open"
    assert condition_presets(params(chi=1.0, xi1=0.5, theta=2.0, mu=0.0)) == "open"


def test_bounds_past_the_float_range_read_inf():
    # ModelParams holds float64, so chi^2 and (1/mu)^(1/theta) overflow to inf
    # where Python floats would raise
    p = params(chi=1e308, xi1=1.0, theta=2.0, mu=1.0, a=1.0)
    with np.errstate(over="ignore"):
        assert condition_presets(p) == "R3"
        assert mitosis_regime_floor(p.chi, 1) == math.inf
        assert lambda_of_z(p, 0.3, 1.0) == math.inf
        assert compute_m1(1.0, params(mu=1e-300, theta=0.01, a=1.0), 1.0) == math.inf


def test_empirical_checks_of_sups_past_1e154_read_inf():
    # a Python float sup whose square overflows: each formula holds it as
    # float64, so the square reads inf where Python's float power raised
    logistic = params(chi=0.5, xi2=0.5, a=1.0, mu=1.0, theta=1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="damping below the decay regime"):
            sigma_rate(logistic, 0.3, 1e200)
        assert empirical_mu_threshold(logistic, 0.3, 1e200) == math.inf
        growth_free = params(chi=0.5, xi1=1.0, xi2=0.5)
        assert empirical_d0_check(growth_free, 1e200, 1e200) == (-math.inf, 0.0)


def test_regime_respects_xi0(monkeypatch):
    p = params(chi=1.0, xi1=1.5, mu=0.0, theta=1.0)
    assert condition_presets(p) == "R1"
    monkeypatch.setattr(thresholds, "XI0", 2.0)
    assert condition_presets(p) == "open"


# ---------------------------------------------------------------------------
# report serialization

def written_report(tmp_path, monkeypatch, rep):
    """thresholds.txt and thresholds.csv as run_scenario writes them for a run
    whose report is rep."""
    report = harness._report
    monkeypatch.setattr(harness, "_report", lambda *args: (rep, report(*args)[1]))
    path = tmp_path / "case.cfg"
    path.write_text("preset = custom\ngrid.cells = 16\nsolver.t_end = 0.02\n")
    assert harness.run_scenario(parse_config(str(path), {"out": str(tmp_path)}), quiet=True) == 0
    return [(tmp_path / name).read_bytes().decode() for name in ("thresholds.txt", "thresholds.csv")]


def test_report_text_round_trip(tmp_path, monkeypatch):
    rep = ThresholdReport(m1=4.0, sigma=0.5, b=1.0)
    text = written_report(tmp_path, monkeypatch, rep)[0]
    lines = text.strip().split("\n")
    assert len(lines) == len(REPORT_FIELDS)
    parsed = {}
    for line in lines:
        key, val = line.split(" = ")
        parsed[key] = float(val)
    assert parsed["m1"] == 4.0
    assert parsed["sigma"] == 0.5
    assert math.isnan(parsed["M0"])


def test_report_csv_layout(tmp_path, monkeypatch):
    rep = ThresholdReport(mu_threshold=0.391140859906180190)
    header, row, trailing = written_report(tmp_path, monkeypatch, rep)[1].split("\n")
    assert trailing == ""
    assert header == ",".join(REPORT_FIELDS)
    cells = row.split(",")
    assert len(cells) == len(REPORT_FIELDS)
    got = float(cells[REPORT_FIELDS.index("mu_threshold")])
    assert got == 0.391140859906180190  # %.17g round-trips doubles exactly


def test_d0check_pass_boundary(monkeypatch):
    # the summary's verdict is the one home of the rule check_value >= 0
    p = params(chi=0.5, xi1=1.0, xi2=1.0)
    for value, verdict in ((0.0, "pass"), (-1e-300, "fail")):
        monkeypatch.setattr(harness, "empirical_d0_check", lambda *_: (value, 0.0))
        rep, lines = run_report(p, [{}])
        assert rep.d0_check_value == value
        assert ("d0_check", verdict) in lines


@pytest.mark.parametrize("a, mu, regime_lines", [
    (0.0, 0.0, ["mass_ceiling_ok", "d0_check", "d0_check_value", "epsilon1",
                "f1_monotone_after_t1"]),
    (1.0, 1.0, ["mass_ceiling_ok", "b", "mu_threshold", "mu_above_threshold", "sigma"]),
    (0.0, 1.0, ["mass_ceiling_ok", "exponential_rate"]),
    (1.0, 0.0, []),
])
def test_each_growth_regime_gets_its_summary_lines(a, mu, regime_lines):
    # between the lines every run gets and the fit: the mass ceiling where the
    # regime has one, then the regime's own lines, in this order
    p = params(chi=0.5, xi1=1.0, xi2=1.0, a=a, mu=mu, theta=2.0)
    records = [{"F1": 2.0 - 0.1 * k, "l2_u_dev": math.exp(-k)} for k in range(12)]
    rep, lines = run_report(p, records)
    keys = [key for key, _ in lines]
    start = keys.index("max_elliptic_residual") + 1
    assert keys[start:keys.index("fitted_column")] == regime_lines
    assert math.isnan(rep.b) != (p.growth.name == "logistic")
    assert math.isnan(rep.d0_check_value) != (p.growth.name == "growth-free")


def test_formulas_are_deterministic():
    p = params(chi=0.7, xi1=0.3, xi2=1.2, d=1.5, a=0.9, mu=1.1, theta=1.0, n_dim=2)
    m0a = structural_M0(p)
    m0b = structural_M0(p)
    assert m0a == m0b
    assert empirical_mu_threshold(p, 0.31, 1.7) == empirical_mu_threshold(p, 0.31, 1.7)
