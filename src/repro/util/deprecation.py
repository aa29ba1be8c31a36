"""Once-per-process deprecation warnings for the remaining legacy paths
(the ``DedupGovernor`` shim and ``DedupConfig``'s flat index knobs).

Warning once (not per call) keeps bulk call sites — a test suite builds
hundreds of configs — from drowning real warnings; tests that assert on
the warning call :func:`reset_deprecation_warnings` first.
"""

from __future__ import annotations

import warnings

_WARNED: set[str] = set()


def warn_once(key: str, message: str, *, stacklevel: int = 3) -> bool:
    """Emit ``message`` as a DeprecationWarning the first time ``key`` is seen.

    Returns True when the warning actually fired (first use), False on
    every later call with the same key.
    """
    if key in _WARNED:
        return False
    _WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)
    return True


def reset_deprecation_warnings() -> None:
    """Forget which keys already warned (test isolation helper)."""
    _WARNED.clear()
