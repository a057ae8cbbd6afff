"""Digest every output file of the risimage chain, to show that a change keeps every byte.

For each seed, in this process through ``risimage.cli.main``:

* the four benchmark workloads of ``perfbench/workloads.py`` are swept from
  their plan files, each twice into one directory, so that the second sweep
  replaces every file the first one wrote;
* the desk scene is swept with ``--keep-artifacts`` over two mask counts
  (256 and 1024) at two distances (into ``desk-counts``), so that the
  exports of several counts, read from one realization pass per distance,
  are digested too;
* the step verbs ``kernel``, ``masks``, ``synthesize``, ``measure`` and
  ``reconstruct``, and ``run --ideal-masks`` (into ``ideal/``), run on the
  desk scene and on the ``volume-zsweep`` scene, with the workload's noise
  seed, and on each scene's variant of odd counts (:data:`ODD_SCENES`, into
  ``steps-plane-odd`` and ``steps-volume-odd``) with the same noise seed;
* the ``volume-zsweep`` scene is swept at its own distance over the SNR
  values none, 0 and 20 dB (into ``volume-snr``), so that one group of
  volume points is reconstructed together, as the benchmark's volume
  sweep, one point per distance, never does.

Then ``sha256  path`` is printed for every output file, its path relative to
the output directory, in sorted order. ``timings.csv`` holds wall times and is
skipped; ``config_snapshot.txt`` is hashed without its ``plan.output_dir``
line, which names the directory. Run from the repository root:

    python3 tools/output_digests.py --seeds 3 8 > change.txt
    python3 tools/output_digests.py --seeds 3 8 --src ../parent/src > parent.txt
    diff parent.txt change.txt

or, in one step, list only the paths whose digests differ or that one side
lacks, and exit 1 if there are any:

    python3 tools/output_digests.py --seeds 3 8 --compare-src ../parent/src

Under each ``metrics.csv`` that differs, that listing also gives the largest
relative change of its ``nmse`` column and says whether its ``gamma``,
``retained_rank`` and ``seed`` columns match; under each binary export
(``.bin``) that differs, whether its header line matches and the largest
relative change of its complex entries, max |delta| / max |x|.

BLAS runs on at most 2 threads, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import math
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the scenes the step verbs run on, the desk scene and the volume scene, each with its variant
# of odd aperture and target counts: a 15 x 15 target over 33 x 33, and 3 x 5 x 2 over 33 x 31
ODD_SCENES = {
    "desk-snr-dense": ("steps-plane-odd", {"n_ris_x": 33, "n_ris_y": 33, "n_target_x": 15, "n_target_y": 15}),
    "volume-zsweep": (
        "steps-volume-odd",
        {"n_ris_x": 33, "n_ris_y": 31, "n_target_x": 3, "n_target_y": 5, "n_target_z": 2},
    ),
}
EXACT_METRICS = ("gamma", "retained_rank", "seed")  # metrics.csv columns a numerical change keeps


def run_seed(cli, workloads, seed: int, inputs: Path, outputs: Path) -> None:
    """Every workload's sweep for ``seed``, the desk sweep over two counts
    with artifacts, and the step verbs on the scenes of :data:`ODD_SCENES`
    and on their variants of odd counts."""
    for name, workload in workloads.WORKLOADS.items():
        plan, noise_seed = workloads.write_inputs(workload, seed, inputs / name, outputs / name)
        for _ in range(2):
            run(cli, ["sweep", "--plan", str(plan)])
        if name == "desk-artifacts":
            scene = ["--scene", str(plan.parent / "scene.txt"), "--target", "block", "--keep-artifacts"]
            axes = ["--i-sweep", "256,1024", "--z-sweep", "0.125,0.25", "--snr-sweep", "none,20"]
            run(cli, ["sweep", *scene, *axes, "--seed", str(noise_seed), "--output", str(outputs / "desk-counts")])
        if name == "volume-zsweep":
            scene = ["--scene", str(plan.parent / "scene.txt"), "-I", str(workload.i_values[0])]
            snr = ["--snr-sweep", "none,0,20", "--seed", str(noise_seed)]
            run(cli, ["sweep", *scene, *snr, "--output", str(outputs / "volume-snr")])
        if name in ODD_SCENES:
            run_steps(cli, plan.parent / "scene.txt", noise_seed, outputs / f"steps-{name}")
            label, counts = ODD_SCENES[name]
            odd = inputs / f"{label}.txt"
            odd.write_text("".join(f"{key} = {value}\n" for key, value in {**workload.scene, **counts}.items()))
            run_steps(cli, odd, noise_seed, outputs / label)


def run_steps(cli, scene: Path, noise_seed: int, out: Path) -> None:
    """The step verbs in order, each reading what the one before it wrote,
    then a ``run`` on the ideal masks."""
    common = ["--scene", str(scene), "--target", "block"]
    run(cli, ["kernel", "--scene", str(scene), "--output", str(out / "kernel.bin")])
    run(cli, ["masks", *common, "--output", str(out / "masks.bin")])
    run(cli, ["synthesize", *common, "--output", str(out / "synth")])
    records = out / "records.csv"
    noise = ["--snr-db", "20", "--seed", str(noise_seed)]
    run(cli, ["measure", *common, *noise, "--output", str(records)])
    masks = str(out / "synth" / "masks_realized.bin")
    run(cli, ["reconstruct", *common, "--records", str(records), "--masks", masks, "--output", str(out / "estimate.pgm")])
    run(cli, ["run", *common, "--ideal-masks", *noise, "--output", str(out / "ideal")])


def run(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"risimage {' '.join(argv)} exited {code}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "config_snapshot.txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"plan.output_dir"))
    return hashlib.sha256(data).hexdigest()


def listing(outputs: Path) -> list[str]:
    files = sorted(p for p in outputs.rglob("*") if p.is_file() and p.name != "timings.csv")
    return [f"{digest(p)}  {p.relative_to(outputs).as_posix()}" for p in files]


def produce(src: Path, seeds: list[int], outputs: Path) -> None:
    """Every output of the sources ``src`` for ``seeds``, written under ``outputs``."""
    # BLAS reads its thread count once, when numpy is first imported
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from risimage import cli

    with tempfile.TemporaryDirectory(prefix="output-digests-inputs-") as inputs:
        for seed in seeds:
            run_seed(cli, workloads, seed, Path(inputs, f"seed-{seed}"), outputs / f"seed-{seed}")


def produce_apart(src: Path, seeds: list[int], outputs: Path) -> None:
    """:func:`produce` in a new interpreter of its own, so each source tree is imported afresh."""
    child = multiprocessing.get_context("spawn").Process(target=produce, args=(src, seeds, outputs))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise SystemExit(f"the outputs of {src} could not be produced (exit code {child.exitcode})")


def metrics_change(ours: Path, theirs: Path) -> str:
    """How the ``metrics.csv`` ``ours`` differs from ``theirs``: the largest
    relative change of its ``nmse`` column, taken against ``theirs``, and
    which of :data:`EXACT_METRICS` differ."""
    ours_rows, theirs_rows = (list(csv.DictReader(path.read_text().splitlines())) for path in (ours, theirs))
    if len(ours_rows) != len(theirs_rows):
        return f"{len(ours_rows)} rows against {len(theirs_rows)}"
    worst = 0.0
    for mine, base in zip(ours_rows, theirs_rows):
        new, old = float(mine["nmse"]), float(base["nmse"])
        if new != old and not (math.isnan(new) and math.isnan(old)):
            worst = max(worst, abs(new - old) / abs(old) if old else math.inf)
    differ = [key for key in EXACT_METRICS if any(a[key] != b[key] for a, b in zip(ours_rows, theirs_rows))]
    exact = f"{', '.join(differ)} differ" if differ else f"{', '.join(EXACT_METRICS)} match"
    return f"largest relative nmse change {worst:.3g}; {exact}"


def binary_change(ours: Path, theirs: Path) -> str:
    """How the binary export ``ours`` differs from ``theirs``: whether the
    header lines match, and the largest change of an entry relative to the
    largest entry of ``theirs``, max |delta| / max |x|, when the bodies hold
    as many entries. numpy is imported here, after :func:`produce` has set
    the BLAS thread count."""
    import numpy as np

    (head, body), (base_head, base_body) = (path.read_bytes().split(b"\n", 1) for path in (ours, theirs))
    header = "header matches" if head == base_head else "header differs"
    if len(body) != len(base_body) or len(body) % 16:
        return f"{header}; bodies of {len(body)} and {len(base_body)} bytes"
    new, old = (np.frombuffer(data, dtype="<c16") for data in (body, base_body))
    scale = np.abs(old).max(initial=0.0)
    worst = np.abs(new - old).max(initial=0.0)
    relative = worst / scale if scale else (math.inf if worst else 0.0)
    return f"{header}; largest relative element change {relative:.3g}"


def compare_outputs(ours: Path, theirs: Path, ours_name: str, theirs_name: str) -> int:
    """Print each output path whose digest differs between the trees ``ours``
    and ``theirs``, or that one of them lacks, marked ``changed``, ``only
    <ours_name>`` or ``only <theirs_name>``, with the :func:`metrics_change`
    of a changed ``metrics.csv`` or the :func:`binary_change` of a changed
    ``.bin`` export on an indented line; return 1 if there is any, else 0."""
    mine, base = (dict(line.split("  ", 1)[::-1] for line in listing(tree)) for tree in (ours, theirs))
    differ = 0
    for path in sorted(mine.keys() | base.keys()):
        if path not in base:
            print(f"only {ours_name}  {path}")
        elif path not in mine:
            print(f"only {theirs_name}  {path}")
        elif mine[path] != base[path]:
            print(f"changed  {path}")
            if Path(path).name == "metrics.csv":
                print(f"    {metrics_change(ours / path, theirs / path)}")
            elif Path(path).suffix == ".bin":
                print(f"    {binary_change(ours / path, theirs / path)}")
        else:
            continue
        differ = 1
    return differ


def compare(src: Path, other: Path, seeds: list[int]) -> int:
    """:func:`compare_outputs` of the outputs of the sources ``src`` and ``other``."""
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        ours, theirs = Path(work, "ours"), Path(work, "theirs")
        produce_apart(src, seeds, ours)
        produce_apart(other, seeds, theirs)
        return compare_outputs(ours, theirs, str(src), str(other))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="risimage sources to run")
    parser.add_argument(
        "--compare-src", type=Path, metavar="DIR", help="list only the outputs that differ from those of DIR"
    )
    args = parser.parse_args(argv)
    if args.compare_src is not None:
        return compare(args.src, args.compare_src, args.seeds)

    with tempfile.TemporaryDirectory(prefix="output-digests-") as outputs:
        produce(args.src, args.seeds, Path(outputs))
        print("\n".join(listing(Path(outputs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
