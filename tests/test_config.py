import threading
from dataclasses import fields

import numpy as np
import pytest

from kronlap import (
    NumericConfig,
    default_config,
    embed,
    get_config,
    set_config,
    use_config,
)


def test_defaults():
    cfg = NumericConfig()
    assert [f.name for f in fields(cfg)] == ["dense_cap", "membership_tol", "pivot_tol"]
    assert cfg.dense_cap == 4096
    assert cfg.membership_tol == 1e-8
    assert cfg.pivot_tol == 1e-12


def test_env_override(monkeypatch):
    monkeypatch.setenv("KRONLAP_DENSE_CAP", "128")
    assert default_config().dense_cap == 128
    assert get_config().dense_cap == 128


@pytest.mark.parametrize("value", ["lots", "0", "-3"])
def test_env_bad_value(monkeypatch, value):
    monkeypatch.setenv("KRONLAP_DENSE_CAP", value)
    with pytest.raises(ValueError, match="must be a positive integer"):
        default_config()


def test_use_config_scoped():
    assert get_config().dense_cap == 4096
    with use_config(dense_cap=10):
        assert get_config().dense_cap == 10
        with use_config(membership_tol=1e-3):
            assert get_config().dense_cap == 10
            assert get_config().membership_tol == 1e-3
        assert get_config().membership_tol == 1e-8
    assert get_config().dense_cap == 4096


def test_set_config_roundtrip():
    try:
        set_config(NumericConfig(dense_cap=7))
        assert get_config().dense_cap == 7
    finally:
        set_config(None)
    assert get_config().dense_cap == 4096


@pytest.mark.parametrize("cap", [0, -3])
def test_nonpositive_cap_rejected_by_set_config(cap):
    with pytest.raises(ValueError, match=f"dense_cap must be at least 1, got {cap}"):
        set_config(NumericConfig(dense_cap=cap))
    assert get_config().dense_cap == 4096


@pytest.mark.parametrize("cap", [0, -3])
def test_nonpositive_cap_rejected_by_use_config(cap):
    with pytest.raises(ValueError, match=f"dense_cap must be at least 1, got {cap}"):
        with use_config(dense_cap=cap):
            embed(0, np.eye(2), (2, 3))
    assert get_config().dense_cap == 4096


def test_thread_started_in_scope_sees_process_config():
    seen = []
    try:
        set_config(NumericConfig(dense_cap=7))
        with use_config(pivot_tol=1e-3):
            assert get_config().pivot_tol == 1e-3
            t = threading.Thread(target=lambda: seen.append(get_config()))
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [NumericConfig(dense_cap=7)]
    finally:
        set_config(None)


def test_scopes_in_two_threads_are_separate():
    barrier = threading.Barrier(2, timeout=10)

    def scoped(tol):
        with use_config(pivot_tol=tol):
            barrier.wait()  # both blocks are entered before either thread reads
            seen = get_config().pivot_tol
            barrier.wait()  # and neither exits before both have read
        return seen

    results = {}
    threads = [
        threading.Thread(target=lambda tol=tol: results.__setitem__(tol, scoped(tol)))
        for tol in (1e-3, 1e-5)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert results == {1e-3: 1e-3, 1e-5: 1e-5}
    assert get_config().pivot_tol == 1e-12
