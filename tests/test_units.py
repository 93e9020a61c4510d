"""Unit conventions and the single-port loss channel."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvteleport.units import VACUUM_VARIANCE, from_db, invert_loss_channel, \
    loss_channel, to_db


def test_vacuum_convention():
    assert VACUUM_VARIANCE == 1.0


def test_db_known_values():
    assert to_db(1.0) == 0.0
    assert to_db(2.0) == pytest.approx(3.0102999566398116, rel=1e-15)
    assert from_db(4.771212547196624) == pytest.approx(3.0, rel=1e-14)


def test_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        to_db(0.0)
    with pytest.raises(ValueError):
        to_db(-2.0)


@given(st.floats(min_value=-60.0, max_value=60.0))
def test_db_roundtrip(level):
    assert to_db(from_db(level)) == pytest.approx(level, abs=1e-10)


def test_loss_channel_endpoints():
    assert loss_channel(5.0, 1.0) == 5.0
    assert loss_channel(5.0, 0.0) == 1.0
    # vacuum is a fixed point of the loss channel
    assert loss_channel(1.0, 0.7) == pytest.approx(1.0, rel=1e-15)


def test_loss_channel_worked_example():
    # 2.4% intensity loss on a -4 dB quadrature
    assert loss_channel(0.4, math.sqrt(0.976)) == pytest.approx(0.4144, abs=1e-12)


def test_loss_channel_domain():
    with pytest.raises(ValueError):
        loss_channel(1.0, 1.5)
    with pytest.raises(ValueError):
        loss_channel(1.0, -0.1)
    with pytest.raises(ValueError):
        loss_channel(-0.5, 0.9)


@given(st.floats(min_value=0.05, max_value=10.0),
       st.floats(min_value=0.2, max_value=1.0),
       st.floats(min_value=0.2, max_value=1.0))
def test_loss_composition(variance, t1, t2):
    # two cascaded loss channels equal one with the product transmission
    two_step = loss_channel(loss_channel(variance, t1), t2)
    assert two_step == pytest.approx(loss_channel(variance, t1 * t2), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=10.0),
       st.floats(min_value=0.3, max_value=1.0))
def test_loss_inverse_roundtrip(variance, transmission):
    forward = loss_channel(variance, transmission)
    assert invert_loss_channel(forward, transmission) == pytest.approx(
        variance, rel=1e-9)


def test_invert_rejects_sub_vacuum_floor():
    # 0.2 is below the 0.75 vacuum share a t=0.5 channel must leave behind
    with pytest.raises(ValueError):
        invert_loss_channel(0.2, 0.5)
