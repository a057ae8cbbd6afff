"""``tools/output_digests.py``: the byte-identity listing of every output file."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def digests(seed: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", str(seed)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_two_runs_list_the_same_digests():
    first = digests(3)
    assert first == digests(3)
    paths = [line.split("  ", 1)[1] for line in first]
    for expected in (
        "seed-3/plane-64/metrics.csv",
        "seed-3/steps-volume-zsweep/kernel.bin",
        "seed-3/steps-desk-snr-dense/ideal/metrics.csv",
        "seed-3/steps-volume-zsweep/ideal/metrics.csv",
    ):
        assert expected in paths
    assert not any(path.endswith("timings.csv") for path in paths)


def test_comparing_the_sources_with_themselves_lists_nothing():
    src = str(TOOL.parent.parent / "src")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "3", "--compare-src", src],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
