"""The pin store: every pin in tests/pins.json is read by a pinned test,
and every pinned run has a pin."""

import re

from pinned_runs import CLI_RUNS, PINS, SAMPLE_MATCH_RUNS, TINY_RUNS

OUTPUT_FLAGS = ("--out-a", "--out-b", "--out-perm", "--report")


def test_every_pin_has_a_run_and_every_run_a_pin():
    written = [argv[i + 1] for argv in SAMPLE_MATCH_RUNS
               for i, flag in enumerate(argv) if flag in OUTPUT_FLAGS]
    assert sorted(PINS) == ["draws", "files", "outputs", "tables"]
    assert sorted(PINS["tables"]) == sorted(TINY_RUNS)
    assert sorted(PINS["outputs"]) == sorted(CLI_RUNS)
    assert sorted(PINS["files"]) == sorted(written)
    # read by test_samplers.py::TestHeterogeneous::test_draws_pinned
    assert list(PINS["draws"]) == ["heterogeneous-pair"]
    digests = [d for section in PINS.values() for pin in section.values()
               for d in (pin if isinstance(pin, list) else [pin])]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert all(len(pin) == 2 for pin in PINS["outputs"].values())
