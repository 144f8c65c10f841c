"""Per-component random generators derived from one global seed.

Every stochastic component takes its generator from ``derive_rng(seed, tag)``
where the tag names the component ("weights", "dropout", "shuffle", ...).
The tag is hashed with SHA-256 and the first 8 bytes are appended to the
seed material, so components stay independently reproducible: changing one
tag's consumer never shifts the stream another component sees.
"""

from __future__ import annotations

import hashlib

import numpy as np


def tag_entropy(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def derive_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag_entropy(tag)])


def derive_seed(seed: int, tag: str) -> int:
    """A plain integer sub-seed, for components that take one (e.g. sarima.fit)."""
    return int(derive_rng(seed, tag).integers(0, 2**63))
