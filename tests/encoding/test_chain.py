"""Chain registry: growth, forking, positions, GC bookkeeping."""

import pytest

from repro.encoding.chain import ChainRegistry


@pytest.fixture()
def registry() -> ChainRegistry:
    return ChainRegistry()


class TestLinearGrowth:
    def test_start_chain(self, registry):
        chain_id = registry.start_chain("r0")
        assert registry.position_of("r0") == (chain_id, 0)
        assert registry.is_tail("r0")

    def test_extend_from_tail(self, registry):
        registry.start_chain("r0")
        chain_id, position, overlapped = registry.extend("r0", "r1")
        assert position == 1
        assert not overlapped
        assert registry.is_tail("r1")
        assert not registry.is_tail("r0")

    def test_extend_unknown_source_starts_chain(self, registry):
        chain_id, position, overlapped = registry.extend("ghost", "r1")
        assert position == 1
        assert not overlapped
        assert registry.position_of("ghost") == (chain_id, 0)

    def test_records_in_write_order(self, registry):
        registry.start_chain("a")
        registry.extend("a", "b")
        registry.extend("b", "c")
        chain_id, _ = registry.position_of("a")
        assert registry.records_of_chain(chain_id) == ["a", "b", "c"]
        assert registry.chain_length(chain_id) == 3
        assert registry.is_tail("c")


class TestOverlappedFork:
    def test_fork_from_mid_chain(self, registry):
        registry.start_chain("r0")
        registry.extend("r0", "r1")
        chain_id, position, overlapped = registry.extend("r0", "r2")
        assert overlapped
        assert position == 1
        # Source restarts at position 0 of the fork.
        assert registry.position_of("r0") == (chain_id, 0)
        assert registry.is_tail("r2")
        # The orphaned tail of the old chain stays the old chain's tail.
        assert registry.is_tail("r1")

    def test_fork_keeps_growing(self, registry):
        registry.start_chain("r0")
        registry.extend("r0", "r1")
        registry.extend("r0", "r2")  # fork
        chain_id, position, overlapped = registry.extend("r2", "r3")
        assert not overlapped
        assert position == 2


class TestForget:
    def test_forget_reindexes_positions(self, registry):
        registry.start_chain("a")
        registry.extend("a", "b")
        registry.extend("b", "c")
        registry.forget("b")
        chain_id, _ = registry.position_of("a")
        assert registry.records_of_chain(chain_id) == ["a", "c"]
        assert registry.position_of("c") == (chain_id, 1)

    def test_forget_last_record_drops_chain(self, registry):
        chain_id = registry.start_chain("solo")
        registry.forget("solo")
        with pytest.raises(KeyError):
            registry.chain_length(chain_id)
        assert "solo" not in registry

    def test_forget_unknown_is_noop(self, registry):
        registry.forget("nothing")
