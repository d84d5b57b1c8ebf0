"""The CSV loaders against their per-row oracles on seeded random texts, the
CSV writer against csv.writer on seeded tables, and the model core against
its row-major oracles on seeded random models; a larger budget runs as
``python tests/differential.py [--suite model] --batches N``."""

from differential import run_batch


def test_loaders_equal_their_oracles_on_random_texts():
    status, output = run_batch(0, files=96)
    assert status == 0, f"batch 0: exit status {status}\n{output}"


def test_model_core_equals_its_oracles_on_random_models():
    status, output = run_batch(0, suite="model", models=16)
    assert status == 0, f"model batch 0: exit status {status}\n{output}"
