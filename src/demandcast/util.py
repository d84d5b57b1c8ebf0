"""Small shared helpers for stable file output."""

from __future__ import annotations

import hashlib
import json


# The ``%`` format of every float the toolkit writes: 17 significant digits,
# enough for bit-stable float round trips.
FLOAT_FORMAT = "%.17g"


def fmt_float(x: float) -> str:
    """``x`` in ``FLOAT_FORMAT``."""
    return FLOAT_FORMAT % float(x)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
