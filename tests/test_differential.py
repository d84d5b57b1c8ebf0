"""The CSV loaders against their per-row oracles on seeded random texts, and
the CSV writer against csv.writer on seeded tables; a larger budget runs as
``python tests/differential.py --batches N``."""

from differential import run_batch


def test_loaders_equal_their_oracles_on_random_texts():
    status, output = run_batch(0, files=96)
    assert status == 0, f"batch 0: exit status {status}\n{output}"
