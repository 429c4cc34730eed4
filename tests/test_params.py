import dataclasses
import re
import sys

import pytest

from pairslit import PairConfiguration, PhysicalParams, SpinStatistics


def test_baseline_timescale(p_fast):
    # tau = 2 m sigma0^2 / hbar for the electron baseline
    assert p_fast.tau == pytest.approx(1.7275985484637697e-08, rel=1e-14)


def test_baseline_geometry(p_fast):
    assert p_fast.beta == pytest.approx(5.0, rel=1e-14)
    assert p_fast.x_speed == pytest.approx(2.0e7, rel=1e-14)
    assert p_fast.flight_time == pytest.approx(1.0e-8, rel=1e-14)


def test_slow_regime_flight_time(p_slow):
    assert p_slow.flight_time == pytest.approx(1.0e-7, rel=1e-14)


@pytest.mark.parametrize("field", ["m", "hbar", "sigma0", "Y", "kx", "d", "L"])
def test_positive_fields_enforced(p_fast, field):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(p_fast, **{field: 0.0})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(p_fast, **{field: -1.0})


@pytest.mark.parametrize("fields, name", [
    ({"L": 5e-26, "kx": 1e300}, "flight_time"),  # 4.3e-322 s
    ({"m": 1.0, "hbar": 1.0, "sigma0": 1e5, "L": 1e-300, "kx": 1.0}, "flight_time / tau"),
])
def test_subnormal_time_spans_refused(p_fast, fields, name):
    # a subnormal span repeats values once split into sample times
    bound = f"{name} must be finite and >= {sys.float_info.min!r}, got "
    with pytest.raises(ValueError, match=re.escape(bound)):
        dataclasses.replace(p_fast, **fields)


def test_params_frozen(p_fast):
    with pytest.raises(dataclasses.FrozenInstanceError):
        p_fast.sigma0 = 2e-6


def test_pair_configuration_rejects_negative_time():
    with pytest.raises(ValueError):
        PairConfiguration(0.0, 1e-6, 0.0, -1e-6, -1e-9)


def test_statistics_signs():
    assert SpinStatistics.BOSON.sign == 1
    assert SpinStatistics.FERMION.sign == -1
    assert SpinStatistics("boson") is SpinStatistics.BOSON
