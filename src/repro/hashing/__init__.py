"""Hash primitives used by chunking, sketching, and delta compression.

The paper's pipeline needs four different hashes, each chosen for a
different speed/strength trade-off (§3.1.1, §4.2):

* Gear hash — table-driven rolling hash for content-defined chunk
  boundaries (the hot path; one lookup + shift-add per byte, and a
  log2(width)-pass numpy sweep in bulk, in the width the caller reads).
* MurmurHash3 — cheap, non-cryptographic chunk identity for the similarity
  sketch (collisions are tolerable because delta compression verifies
  bytes); a frozen scalar oracle plus a block-parallel numpy lane that
  hashes all chunks of a record or batch at once.
* Rolling Adler-32 — the block checksum xDelta/dbDelta use to find candidate
  match offsets between a source and a target byte stream.
* SHA-1 — collision-resistant chunk identity for the trad-dedup baseline,
  where a collision would corrupt data.
"""

from repro.hashing.adler import adler32_block, rolling_adler32
from repro.hashing.gear import GearHasher, gear_hashes, gear_table
from repro.hashing.murmur import murmur3_32, murmur3_32_chunks

__all__ = [
    "murmur3_32",
    "murmur3_32_chunks",
    "GearHasher",
    "gear_hashes",
    "gear_table",
    "adler32_block",
    "rolling_adler32",
]
