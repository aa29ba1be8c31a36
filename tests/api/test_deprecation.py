"""What is left of the legacy constructor paths: ``warn_once`` (behind
the governor and flat-index shims), and a ``Cluster`` that takes the one
spec and nothing it could disagree with."""

import warnings

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.util.deprecation import (
    reset_deprecation_warnings,
    warn_once,
)

#: The internal constructor, reached through the public escape hatch.
Cluster = type(open_cluster().cluster)


@pytest.fixture(autouse=True)
def fresh_warning_state():
    """Each test sees a process that has never warned."""
    reset_deprecation_warnings()
    yield
    reset_deprecation_warnings()


class TestWarnOnce:
    def test_fires_once_per_key(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert warn_once("k", "message")
            assert not warn_once("k", "message")
            assert warn_once("other", "message")
        assert len(caught) == 2


class TestClusterShim:
    def test_positional_still_builds_equivalent_cluster(self):
        spec = ClusterSpec(insert_batch_size=2)
        assert Cluster(spec).config is spec

    def test_keyword_construction_never_warns(self):
        spec = ClusterSpec()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert Cluster(spec=spec).config is spec
            assert Cluster(spec).config is spec
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_duplicate_argument_rejected(self):
        with pytest.raises(TypeError):
            Cluster(ClusterSpec(), spec=ClusterSpec())

    def test_excess_positionals_rejected(self):
        # The second positional used to be the cost model; it lives on
        # the spec now, and nothing else is accepted by position.
        with pytest.raises(TypeError):
            Cluster(ClusterSpec(), ClusterSpec().costs)

    def test_engine_is_keyword_only(self):
        from repro.core.config import DedupConfig
        from repro.core.engine import DedupEngine

        with pytest.raises(TypeError):
            DedupEngine(DedupConfig())
