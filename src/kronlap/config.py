"""Numeric tolerances and materialization caps.

Every tolerance the library consults lives in one record so callers can tune
them in a single place, either process-wide (`set_config`) or for a scoped
block (`use_config`). A scoped block is a ``contextvars`` value, so it holds
only in the thread or task that entered it. The dense materialization cap can
also be set through the ``KRONLAP_DENSE_CAP`` environment variable.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

ENV_DENSE_CAP = "KRONLAP_DENSE_CAP"


@dataclass(frozen=True)
class NumericConfig:
    dense_cap: int = 4096          # max side of a materialized N x N matrix
    membership_tol: float = 1e-8   # relative residual threshold for subspace membership
    pivot_tol: float = 1e-12       # relative pivot threshold for singularity detection

    def __post_init__(self):
        if self.dense_cap < 1:
            raise ValueError(f"dense_cap must be at least 1, got {self.dense_cap!r}")


def default_config() -> NumericConfig:
    """Built-in defaults, with the dense cap taken from the environment if set."""
    cfg = NumericConfig()
    cap = os.environ.get(ENV_DENSE_CAP)
    if cap is not None:
        try:
            cfg = replace(cfg, dense_cap=int(cap))
        except ValueError:
            raise ValueError(f"{ENV_DENSE_CAP} must be a positive integer, got {cap!r}") from None
    return cfg


_override: NumericConfig | None = None
_scoped: ContextVar[NumericConfig | None] = ContextVar("kronlap_config", default=None)


def get_config() -> NumericConfig:
    """The innermost ``use_config`` of this context, else the process config."""
    scoped = _scoped.get()
    if scoped is not None:
        return scoped
    return _override if _override is not None else default_config()


def set_config(cfg: NumericConfig | None) -> None:
    """Install a process-wide config; ``None`` restores the defaults."""
    global _override
    _override = cfg


@contextmanager
def use_config(**changes):
    """Override selected fields of the active config in this context until the block exits.

    A thread started inside the block begins in a fresh context, so it sees
    the process config, not this override.
    """
    cfg = replace(get_config(), **changes)
    token = _scoped.set(cfg)
    try:
        yield cfg
    finally:
        _scoped.reset(token)
