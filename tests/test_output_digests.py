"""``tools/output_digests.py``: the byte-identity listing of every output file."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

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
        "seed-3/steps-volume-odd/kernel.bin",
        "seed-3/steps-volume-odd/synth/profiles.bin",
        "seed-3/steps-plane-odd/kernel.bin",
        "seed-3/steps-plane-odd/synth/profiles.bin",
        "seed-3/steps-plane-odd/ideal/metrics.csv",
        "seed-3/volume-snr/metrics.csv",
        "seed-3/volume-snr/estimate_002_slice3_im.pgm",
        "seed-3/desk-counts/metrics.csv",
        "seed-3/desk-counts/estimate_007.pgm",
    ):
        assert expected in paths
    for stem in ("masks_ideal", "masks_realized", "profiles", "synthesis"):
        for count in (256, 1024):  # one export of each count at each of the two distances
            assert sum(f"desk-counts/artifacts/{stem}_" in p and f"_I{count}." in p for p in paths) == 2
    assert not any("/kernels/" in path for path in paths)
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


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


METRICS_HEADER = "I,snr_db,z_prime,gamma,nmse,retained_rank,seed\n"


def write_tree(root, metrics_rows, extra=None):
    (root / "seed-3" / "plane").mkdir(parents=True)
    (root / "seed-3" / "plane" / "metrics.csv").write_text(METRICS_HEADER + "".join(metrics_rows))
    for name, text in (extra or {}).items():
        (root / "seed-3" / name).write_text(text)
    return root


def test_changed_metrics_report_the_nmse_change_and_the_exact_columns(tmp_path, capsys):
    tool = load_tool()
    theirs = write_tree(
        tmp_path / "theirs",
        ["256,20,0.125,1e-12,0.5,64,7\n", "256,20,0.25,1e-12,0.25,60,8\n"],
        {"a.txt": "a", "gone.txt": "g"},
    )
    ours = write_tree(
        tmp_path / "ours",
        ["256,20,0.125,1e-12,0.5000000000015,64,7\n", "256,20,0.25,1e-12,0.25,60,8\n"],
        {"a.txt": "a", "new.txt": "n"},
    )
    assert tool.compare_outputs(ours, theirs, "ours", "theirs") == 1
    assert capsys.readouterr().out.splitlines() == [
        "only theirs  seed-3/gone.txt",
        "only ours  seed-3/new.txt",
        "changed  seed-3/plane/metrics.csv",
        "    largest relative nmse change 3e-12; gamma, retained_rank, seed match",
    ]
    assert tool.compare_outputs(theirs, theirs, "theirs", "theirs") == 0
    assert capsys.readouterr().out == ""


def test_metrics_change_names_the_exact_columns_that_differ(tmp_path):
    tool = load_tool()
    theirs = write_tree(tmp_path / "theirs", ["256,none,0.125,1e-12,0.5,64,7\n", "256,20,0.25,1e-12,0.0,60,8\n"])
    ours = write_tree(tmp_path / "ours", ["256,none,0.125,1e-10,0.5,63,7\n", "256,20,0.25,1e-12,0.0,60,8\n"])
    path = "seed-3/plane/metrics.csv"
    assert tool.metrics_change(ours / path, theirs / path) == (
        "largest relative nmse change 0; gamma, retained_rank differ"
    )
    shorter = write_tree(tmp_path / "shorter", ["256,none,0.125,1e-12,0.5,64,7\n"])
    assert tool.metrics_change(shorter / path, theirs / path) == "1 rows against 2"
    zero = write_tree(tmp_path / "zero", ["256,none,0.125,1e-12,0.5,64,7\n", "256,20,0.25,1e-12,1e-30,60,8\n"])
    assert tool.metrics_change(zero / path, theirs / path) == (
        "largest relative nmse change inf; gamma, retained_rank, seed match"
    )


def write_bin(path, header, values):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + b"\n" + np.asarray(values, dtype="<c16").tobytes())


def test_changed_exports_report_the_header_and_the_largest_element_change(tmp_path, capsys):
    tool = load_tool()
    header = b"kind=profiles count=1 points=2 fingerprint=f"
    theirs, ours = tmp_path / "theirs", tmp_path / "ours"
    write_bin(theirs / "seed-3" / "a.bin", header, [2.0, 1j])
    write_bin(ours / "seed-3" / "a.bin", header, [2.0 + 1e-12, 1j])
    write_bin(theirs / "seed-3" / "k.bin", header, [1.0, 2.0, 3.0])
    write_bin(ours / "seed-3" / "k.bin", header.replace(b"count=1", b"count=2"), [1.0, 2.0])
    assert tool.compare_outputs(ours, theirs, "ours", "theirs") == 1
    assert capsys.readouterr().out.splitlines() == [
        "changed  seed-3/a.bin",
        "    header matches; largest relative element change 5e-13",
        "changed  seed-3/k.bin",
        "    header differs; bodies of 32 and 48 bytes",
    ]
