"""cProfile self time summed by ``repro.<package>``.

The class wrappers in :mod:`spans` see methods, not module functions:
``repro.hashing.murmur3_32``, ``repro.delta.deserialize``/``apply_delta``,
``repro.obs`` and ``repro.util`` have no span of their own and their
time lands in whichever layer called them. This cross-check attributes
every Python frame to the package its file lives in, so a layer whose
span share and package share disagree is visible. cProfile slows calls
but not C code, so these are shares to compare, never times to report.
"""

from __future__ import annotations

import cProfile
import os
import pstats

#: Packages reported; anything else (stdlib, numpy, builtins, the
#: harness itself) is ``other``.
PACKAGES = (
    "api", "cache", "chunking", "compression", "core", "db", "delta",
    "encoding", "hashing", "index", "obs", "sim", "sketch", "storage", "util",
)


def package_shares(profile: cProfile.Profile) -> dict[str, float]:
    """``{package: share of total tottime}`` plus ``other``; sums to 1."""
    marker = os.sep + "repro" + os.sep
    seconds = dict.fromkeys((*PACKAGES, "other"), 0.0)
    for (filename, _line, _func), entry in pstats.Stats(profile).stats.items():
        tottime = entry[2]
        _, found, tail = filename.rpartition(marker)
        package = tail.split(os.sep, 1)[0] if found and os.sep in tail else "other"
        seconds[package if package in seconds else "other"] += tottime
    total = sum(seconds.values()) or 1.0
    return {package: spent / total for package, spent in seconds.items()}
