"""The deployment setting, KRONLAP_DENSE_CAP, and the default of each tolerance."""

import pytest

from kronlap import SizeLimitError, kron_core, laplacian_distance


def test_defaults(monkeypatch):
    monkeypatch.delenv("KRONLAP_DENSE_CAP", raising=False)
    kron_core._check_dense_cap(4096)
    with pytest.raises(SizeLimitError, match="size 4097 exceeds the configured cap 4096"):
        kron_core._check_dense_cap(4097)
    assert laplacian_distance.__defaults__ == (1e-8,)
    assert kron_core._PIVOT_TOL == 1e-12


def test_env_override(monkeypatch):
    monkeypatch.setenv("KRONLAP_DENSE_CAP", "128")
    kron_core._check_dense_cap(128)
    with pytest.raises(SizeLimitError, match="size 129 exceeds the configured cap 128"):
        kron_core._check_dense_cap(129)


@pytest.mark.parametrize("value", ["lots", "0", "-3"])
def test_env_bad_value(monkeypatch, value):
    monkeypatch.setenv("KRONLAP_DENSE_CAP", value)
    with pytest.raises(ValueError, match=f"KRONLAP_DENSE_CAP must be a positive integer, got '{value}'"):
        kron_core._check_dense_cap(1)
