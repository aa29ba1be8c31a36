"""Differential fuzzing: the anchor-only encoder vs the frozen oracle.

``DeltaCompressor.compress`` (full checksums only at anchors, sorted
source table, one ``searchsorted`` probe) must emit exactly the
instruction stream of ``OracleDeltaCompressor.compress`` (an Adler-32 at
every offset, a ``dict`` of anchors, every target anchor walked). The
families below aim at where the rewrite could diverge:

1. the pairs a real ingest encodes — every ``compress`` call of a
   Wikipedia, an Enron and a StackExchange load through the public client
   (forward deltas and GC re-encodes alike),
2. periodic, constant and self-similar inputs, which overfill the
   four-offset bucket of a checksum (the cap and its ascending-offset
   order), and engineered Adler-32 collisions (hits that must fail byte
   verification),
3. lengths around the window (``window - 1``, ``window``, ``window + 1``)
   and the empty target,
4. the interval x window grid: mask 0 (every offset an anchor), masks
   above ``0xFFFF`` (re-filtered on the full checksum), windows on both
   sides of the widths where the A half first needs its mod-65521 (257)
   and that are not powers of two,
5. hypothesis-drawn ``(source, edit script)`` pairs.

On a mismatch both instruction streams and the inputs are written to
``$CHUNKING_ARTIFACT_DIR`` (default ``chunking-artifacts/``), the
directory the chunking-diff CI job uploads.
"""

import os
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig
from repro.delta.dbdelta import MAX_OFFSETS_PER_CHECKSUM, DeltaCompressor
from repro.delta.decode import apply_delta
from repro.delta.instructions import CopyInst, InsertInst
from repro.delta.reference import OracleDeltaCompressor
from repro.hashing.adler import rolling_adler32
from repro.workloads import make_workload

ARTIFACT_DIR = os.environ.get("CHUNKING_ARTIFACT_DIR", "chunking-artifacts")

INTERVALS = (1, 16, 64, 128, 1 << 17)
WINDOWS = (4, 16, 22, 23, 256, 257, 300)


def _dump_artifact(family, src, tgt, interval, window, want, got) -> Path:
    """Persist a mismatching pair and both streams for the CI upload."""
    directory = Path(ARTIFACT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    digest = zlib.crc32(src + tgt) & 0xFFFFFFFF
    stem = directory / f"dbdelta-{family}-i{interval}-w{window}-{digest:08x}"
    stem.with_suffix(".src").write_bytes(src)
    stem.with_suffix(".tgt").write_bytes(tgt)
    stem.with_suffix(".txt").write_text(
        f"family={family} anchor_interval={interval} window={window}\n"
        + "".join(
            f"\n{name} ({len(insts)} instructions):\n"
            + "".join(f"  {inst!r}\n" for inst in insts)
            for name, insts in (("oracle", want), ("encoder", got))
        ),
        encoding="utf-8",
    )
    return stem


def assert_matches_oracle(family, src, tgt, interval, window, got) -> None:
    want = OracleDeltaCompressor(interval, window).compress(src, tgt)
    if got != want:
        stem = _dump_artifact(family, src, tgt, interval, window, want, got)
        raise AssertionError(
            f"encoder differs from oracle on {family} input, interval "
            f"{interval}, window {window} (saved to {stem}.*)"
        )


def assert_encoders_agree(family, src, tgt, interval=64, window=16):
    got = DeltaCompressor(interval, window).compress(src, tgt)
    assert_matches_oracle(family, src, tgt, interval, window, got)
    assert apply_delta(src, got) == tgt
    return got


class TestRealEncodePairs:
    @pytest.mark.parametrize("name", ["wikipedia", "enron", "stackexchange"])
    def test_every_pair_of_an_ingest(self, name, monkeypatch):
        """Each ``compress`` call a seeded load makes, checked in place."""
        production = DeltaCompressor.compress
        pairs = 0

        def checked(self, src, tgt):
            nonlocal pairs
            pairs += 1
            got = production(self, src, tgt)
            assert_matches_oracle(name, src, tgt, self.anchor_interval, self.window, got)
            return got

        monkeypatch.setattr(DeltaCompressor, "compress", checked)
        client = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64)))
        for op in make_workload(name, 7, 400_000).insert_trace():
            client.insert(op.database, op.record_id, op.content)
        client.finalize()
        assert pairs >= 20, f"{name}: only {pairs} pairs were encoded"


class TestSelfSimilarInputs:
    @pytest.mark.parametrize("interval", [1, 16, 64])
    @pytest.mark.parametrize("byte", [0x00, 0x41, 0xFF])
    def test_constant_runs(self, interval, byte):
        src = bytes([byte]) * 3000
        tgt = bytes([byte]) * 1200 + b"edit" + bytes([byte]) * 1500
        assert_encoders_agree("constant", src, tgt, interval)
        assert_encoders_agree("constant", src, src, interval)

    @pytest.mark.parametrize("interval", [1, 16, 64])
    @pytest.mark.parametrize("period", [1, 3, 16, 17, 64, 100])
    def test_periodic_inputs_overfill_buckets(self, interval, period):
        unit = random.Random(period).randbytes(period)
        src = unit * (4000 // period)
        # Shifted by part of a period and cut by foreign bytes, so the
        # best candidate is not always the first offset of its bucket.
        shift = period // 2
        tgt = src[shift:1500] + b"\x01\x02\x03" + src[700:2100] + unit[:5] + src[:900]
        assert_encoders_agree("periodic", src, tgt, interval)

    def test_bucket_cap_keeps_the_first_offsets(self):
        """Six copies of one block: only the first four are candidates."""
        rng = random.Random(5)
        block = rng.randbytes(200)
        src = b"".join(block + rng.randbytes(50 + i) for i in range(6))
        tgt = rng.randbytes(40) + block + rng.randbytes(40)
        delta = assert_encoders_agree("bucketcap", src, tgt, interval=1)
        copies = [inst for inst in delta if isinstance(inst, CopyInst)]
        first_four = [i * 250 + sum(range(i)) for i in range(MAX_OFFSETS_PER_CHECKSUM)]
        assert copies and all(
            any(start <= c.offset < start + 200 for start in first_four) for c in copies
        )

    @pytest.mark.parametrize("interval", [1, 16])
    def test_self_similar_source(self, interval):
        seed = random.Random(9).randbytes(97)
        src = seed
        while len(src) < 6000:
            src += src[len(src) // 3 :] + seed[: len(src) % 50]
        tgt = src[1000:3000] + seed + src[:2500]
        assert_encoders_agree("selfsimilar", src, tgt, interval)

    @pytest.mark.parametrize("window", [4, 16, 23])
    def test_engineered_checksum_collisions(self, window):
        """Windows that collide in Adler-32 but differ in bytes.

        Adding (+1, -2, +1) to three consecutive bytes keeps both the
        byte sum and the position-weighted sum of every window that holds
        all three, hence its checksum: the probe hits, byte verification
        must reject it, and where a real match shares the bucket it must
        still win.
        """
        rng = random.Random(window)
        real = bytes(rng.randrange(2, 250) for _ in range(window * 3))
        twin = bytearray(real)
        for at in range(window // 2 - 1, len(twin) - 2, window):
            twin[at] += 1
            twin[at + 1] -= 2
            twin[at + 2] += 1
        twin = bytes(twin)
        assert real[:window] != twin[:window]
        assert rolling_adler32(real, window)[0] == rolling_adler32(twin, window)[0]

        filler = bytes(rng.randrange(2, 250) for _ in range(80))
        src = filler + twin + filler[::-1] + real + filler
        tgt = real + filler[:30] + twin + real
        assert_encoders_agree("collision", src, tgt, 1, window)
        # Only colliding windows in the source: every hit is rejected.
        delta = assert_encoders_agree("collision", twin, real, 1, window)
        assert delta == [InsertInst(real)]


class TestLengthsAroundTheWindow:
    @pytest.mark.parametrize("window", [4, 16, 23, 300])
    @pytest.mark.parametrize("interval", [1, 64])
    def test_short_sources_and_targets(self, window, interval):
        data = random.Random(window).randbytes(window * 3)
        lengths = (0, window - 1, window, window + 1, window * 3)
        for src_len in lengths:
            for tgt_len in lengths:
                assert_encoders_agree(
                    "lengths", data[:src_len], data[:tgt_len], interval, window
                )
                assert_encoders_agree(
                    "lengths", data[:src_len], data[-tgt_len:] if tgt_len else b"",
                    interval, window,
                )


class TestIntervalWindowGrid:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_revision_pairs(self, interval, window, revision_pair, revision_chain):
        source, target = revision_pair
        assert_encoders_agree("grid", source, target, interval, window)
        assert_encoders_agree("grid", target, source, interval, window)
        assert_encoders_agree(
            "grid", revision_chain[0], revision_chain[-1], interval, window
        )

    @pytest.mark.parametrize("window", [256, 257, 300])
    def test_high_bytes_reach_the_mod(self, window):
        """0xFF runs push the window sum past 65521 from width 257 on."""
        rng = random.Random(window)
        src = b"\xff" * 900 + rng.randbytes(300) + b"\xfe" * 900
        tgt = src[:700] + rng.randbytes(20) + src[650:]
        for interval in (1, 16, 64):
            assert_encoders_agree("highbytes", src, tgt, interval, window)


def _apply_edits(source: bytes, edits) -> bytes:
    target = bytearray(source)
    for kind, at, span, fresh in edits:
        at = at % (len(target) + 1)
        if kind == "insert":
            target[at:at] = fresh
        elif kind == "delete":
            del target[at : at + span]
        elif kind == "replace":
            target[at : at + span] = fresh
        else:  # move: a block copied to another place
            target[at:at] = bytes(target[span : span + len(fresh) * 8])
    return bytes(target)


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "move"]),
        st.integers(0, 4000),
        st.integers(0, 300),
        st.binary(min_size=0, max_size=40),
    ),
    max_size=8,
)

#: A small alphabet makes repeated windows, full buckets and collisions
#: likely; the full byte range keeps the arithmetic honest.
SOURCES = st.one_of(
    st.binary(min_size=0, max_size=1500),
    st.lists(st.sampled_from(b"ab \n\xff"), max_size=1500).map(bytes),
)


@settings(max_examples=150, deadline=None)
@given(
    source=SOURCES,
    edits=EDITS,
    interval=st.sampled_from([1, 2, 16, 64]),
    window=st.sampled_from([4, 16, 23]),
)
def test_property_edit_scripts(source, edits, interval, window):
    target = _apply_edits(source, edits)
    assert_encoders_agree("hypothesis", source, target, interval, window)
