"""Command-line experiment runner.

Verbs: validate, kernel, masks, synthesize, measure, reconstruct, run, sweep.
Scene options come from a config file; any key can be overridden on the
command line with repeated ``--set key=value`` flags (same syntax and units
as the file).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import shutil
import sys
from pathlib import Path

import numpy as np

from . import em_core, mask_design, measurement, ris_synthesis
from .errors import ImagingError, MalformedConfig
from .runner import (
    PLAN_MODES,
    ExperimentPlan,
    export_synthesis,
    load_plan,
    plan_points,
    run_plan,
    score,
    write_estimate_images,
)
from .scene import (
    SceneConfig,
    ValidatedScene,
    aperture_half_sine,
    check_scene_dimensions,
    parse_scene_config,
    read_config_text,
    read_fields,
    resolution,
    sample_grids,
    validate_scene,
)
from .targets import resolve_target


def _scene_from_args(args) -> SceneConfig:
    text = read_config_text(args.scene)
    if args.set:
        malformed = [item for item in args.set if "=" not in item]
        if malformed:
            raise MalformedConfig(f"--set expects KEY=VALUE, got {malformed[0]!r}")
        values = dict(item.split("=", 1) for item in args.set)
        lines = []
        for raw in text.splitlines():
            key = raw.split("#", 1)[0].split("=", 1)[0].strip()
            if key in values:
                lines.append(f"{key} = {values.pop(key)}")
            else:
                lines.append(raw)
        lines.extend(f"{key} = {value}" for key, value in values.items())
        text = "\n".join(lines)
    return parse_scene_config(text)


def _add_scene_options(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--scene", required=required, help="scene config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scene config key (repeatable)",
    )


def _add_plan_options(parser: argparse.ArgumentParser) -> None:
    """Options whose defaults are the :class:`ExperimentPlan` defaults, but
    for ``-I`` (:func:`_measurement_count`)."""
    parser.add_argument("--target", help="built-in name or target file")
    parser.add_argument("-I", "--measurements", type=int, help="mask count")
    parser.add_argument("--snr-db", type=float, help="receiver SNR (omit for noiseless)")
    parser.add_argument("--gamma", type=float, help="regularization weight")
    parser.add_argument("--threshold-factor", type=float)
    parser.add_argument("--truncation-mode", choices=PLAN_MODES["truncation_mode"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", dest="output_dir", help="run directory or output file")
    parser.add_argument("--calibration", choices=PLAN_MODES["calibration"])
    parser.add_argument("--noise-mode", choices=PLAN_MODES["noise_mode"])
    parser.add_argument("--phase-mode", choices=PLAN_MODES["phase_mode"])
    parser.add_argument(
        "--ideal-masks",
        action="store_true",
        default=None,
        help="bypass synthesis and apply the ideal masks directly (oracle mode)",
    )
    parser.add_argument("--keep-artifacts", action="store_true", default=None)


def _measurement_count(args, scene) -> int:
    """``-I`` when given; else the smallest usable Hadamard order that leaves
    no point on the all-ones column."""
    if args.measurements is not None:
        return args.measurements
    check_scene_dimensions(scene)
    n_points = scene.n_target
    count = 4
    while count < n_points + 1:
        count *= 2
    return count


def _step_plan(args, synthesis: bool | None = None) -> tuple[ExperimentPlan, ValidatedScene]:
    """A step verb's options as a validated one-point plan, and its validated scene.

    The plan rules of ``run`` apply to every verb that takes plan options;
    ``synthesis`` says whether the verb realizes masks, by default unless
    ``--ideal-masks`` (``ExperimentPlan.validate``).
    """
    plan = _plan_from_args(args, sweep=False)
    plan.validate(synthesis)
    return plan, validate_scene(plan.scene)


def _ideal_masks(plan: ExperimentPlan, scene, grids) -> mask_design.MaskSet:
    return mask_design.ideal_masks(scene, grids, plan.i_values[0], plan.phase_mode)


def cmd_validate(args) -> int:
    scene = validate_scene(_scene_from_args(args))
    cfg = scene.config
    dx, dy = resolution(scene)
    print(f"scene valid: N={scene.n_ris} aperture samples, M={scene.n_target} target samples")
    print(f"rayleigh_distance_m = {scene.rayleigh_distance!r}")
    print(f"receiver_target_distance_m = {scene.receiver_target_distance!r}")
    print(f"receiver_far_field_bound_m = {scene.receiver_far_field_bound!r}")
    print(f"aperture_half_sine_x = {aperture_half_sine(cfg.ris_len_x, cfg.target_distance)!r}")
    print(f"aperture_half_sine_y = {aperture_half_sine(cfg.ris_len_y, cfg.target_distance)!r}")
    print(f"resolution_x_m = {dx!r}")
    print(f"resolution_y_m = {dy!r}")
    # a pitch below the resolution asks for masks finer than the aperture can form
    print(f"target_pitch_over_resolution_x = {cfg.target_len_x / cfg.n_target_x / dx!r}")
    print(f"target_pitch_over_resolution_y = {cfg.target_len_y / cfg.n_target_y / dy!r}")
    return 0


def cmd_kernel(args) -> int:
    scene = validate_scene(_scene_from_args(args))
    grids = sample_grids(scene)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the stored rows go to the file as they are assembled, so the kernel never
    # exists whole; the file replaces any old one once the last row is written
    kernel = em_core.kernel_stream(scene, grids).saved_to(out)
    for _ in kernel.blocks:
        pass
    print(f"assembled {_kernel_label(kernel)} kernel -> {out}")
    return 0


def _kernel_label(kernel: em_core.KernelStream) -> str:
    """Kind and shape, marked when synthesis can split a plane kernel into
    mirror sectors, and when it can split them further under the x <-> y swap."""
    symmetry = kernel.symmetry
    if symmetry is None or symmetry.weights is not None:
        marked = ""
    elif symmetry.swap:
        marked = ", mirror- and swap-symmetric"
    else:
        marked = ", mirror-symmetric"
    return f"{kernel.kind} {kernel.shape[0]}x{kernel.shape[1]}{marked}"


def cmd_masks(args) -> int:
    plan, scene = _step_plan(args, synthesis=False)
    grids = sample_grids(scene)
    masks = _ideal_masks(plan, scene, grids)
    out = Path(plan.output_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    mask_design.save_mask_vectors(out, masks, scene.fingerprint)
    print(f"designed {masks.count} ideal {masks.kind} masks over {masks.points} points -> {out}")
    return 0


def _inverse(plan: ExperimentPlan, scene, grids) -> ris_synthesis.RegularizedInverse:
    """The regularized inverse of the scene's kernel, decomposed from the
    stream of its rows; it holds its sector blocks, so the kernel never
    exists whole."""
    gamma = plan_points(plan)[0].gamma  # the fallback run uses
    kernel = em_core.kernel_stream(scene, grids)
    return ris_synthesis.tikhonov_inverse(kernel, gamma, plan.threshold_factor, plan.truncation_mode)


def cmd_synthesize(args) -> int:
    plan, scene = _step_plan(args, synthesis=True)
    grids = sample_grids(scene)
    ideal = _ideal_masks(plan, scene, grids)
    inv = _inverse(plan, scene, grids)
    out_dir = Path(plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fp = scene.fingerprint
    realized = export_synthesis(out_dir, [(ideal.count, "")], fp, inv, ideal, scene.config.amplification)
    mask_design.save_mask_vectors(out_dir / "masks_ideal.bin", ideal, fp)
    print(
        f"synthesized {realized.count} profiles (retained rank {inv.retained_rank}, "
        f"gamma {inv.gamma!r}) -> {out_dir}"
    )
    return 0


def cmd_measure(args) -> int:
    plan, scene = _step_plan(args)
    grids = sample_grids(scene)
    target = resolve_target(plan.target, scene)
    masks = _ideal_masks(plan, scene, grids)
    if plan.ideal_masks:
        fields = measurement.noiseless_fields(scene, grids, masks, target)
    else:  # fields come from the realization pass; no profile is exported, so the sector blocks go
        inv = _inverse(plan, scene, grids).without_blocks()
        receiver = measurement.ReceiverFields(scene, grids, masks, target)
        ris_synthesis.realize_masks(inv, masks, scene.config.amplification, [receiver.add])
        fields = receiver.fields()
    meas = measurement.measure(fields, masks.kind, plan.snr_values[0], plan.seed, noise_mode=plan.noise_mode)
    out = Path(plan.output_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    measurement.records_to_csv(out, meas)
    print(f"measured {len(meas)} records (sigma2 {meas.noise_variance!r}) -> {out}")
    return 0


def cmd_reconstruct(args) -> int:
    plan, scene = _step_plan(args, synthesis=False)
    grids = sample_grids(scene)
    meas = measurement.records_from_csv(args.records)
    kind, vectors, fp = mask_design.load_mask_vectors(args.masks)
    if fp != scene.fingerprint:
        print(f"warning: mask export fingerprint {fp[:16]} does not match the scene", file=sys.stderr)
    if kind == mask_design.KIND_MASK2D:  # a plane reconstruction reads only the mask magnitudes
        vectors = np.abs(vectors)
    masks = mask_design.MaskSet(kind=kind, stored=vectors)
    psf = None if scene.is_3d else em_core.psf_vector(scene, grids.target_points)
    target = resolve_target(plan.target, scene)
    calibrated, error = score(scene, grids, psf, meas, masks, plan.calibration, target.values)
    out = Path(plan.output_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_estimate_images(out, calibrated, target.grid_shape)
    print(f"nmse = {error!r}")
    print(f"estimate written -> {out}")
    return 0


def _plan_from_args(args, sweep: bool) -> ExperimentPlan:
    """The plan the options describe. An option sets the plan field of its
    name (``--output`` sets ``output_dir``), and one left out keeps the
    field's default, except ``-I``: without it the mask count is the
    smallest Hadamard order above the sample count (:func:`_measurement_count`),
    not the plan default. A sweep reads its comma lists as a plan file does,
    and a list beside the single value it replaces is a :class:`MalformedConfig`."""
    if sweep:
        replaced = (
            ("--snr-sweep", args.snr_sweep, "--snr-db", args.snr_db),
            ("--i-sweep", args.i_sweep, "-I", args.measurements),
        )
        for listed, values, flag, value in replaced:
            if values is not None and value is not None:
                raise MalformedConfig(f"sweep {listed} would ignore {flag}")
    scene = _scene_from_args(args)
    kwargs = {"i_values": (_measurement_count(args, scene),), "snr_values": (args.snr_db,)}
    options = vars(args)
    kwargs.update(
        (f.name, options[f.name])
        for f in dataclasses.fields(ExperimentPlan)
        if f.name != "scene" and options.get(f.name) is not None
    )
    if sweep:
        lists = {"snr_values": args.snr_sweep, "i_values": args.i_sweep, "z_values": args.z_sweep}
        kwargs.update(read_fields(ExperimentPlan, {k: v for k, v in lists.items() if v is not None}, "sweep"))
    return ExperimentPlan(scene=scene, **kwargs)


def _print_run(result) -> int:
    failed = [p for p in result.points if p.error is not None]
    for p in result.points:
        label = f"I={p.n_measurements} snr={p.snr_db} z'={p.z_prime}"
        if p.error is not None:
            print(f"{label}: ERROR {p.error}")
        else:
            print(f"{label}: nmse={p.nmse!r}")
    print(f"metrics -> {result.run_dir / 'metrics.csv'} (kernel builds: {result.kernel_builds})")
    return 1 if failed and len(failed) == len(result.points) else 0


def cmd_run(args) -> int:
    return _print_run(run_plan(_plan_from_args(args, sweep=False)))


def cmd_sweep(args) -> int:
    if args.plan:
        # the plan file sets the scene, the plan and the sweep; only --output replaces one
        ignored = [
            f"--{name.replace('_', '-')}"
            for name, value in vars(args).items()
            if name not in ("command", "func", "plan", "output_dir") and value not in (None, [])
        ]
        if ignored:
            raise MalformedConfig(f"sweep --plan would ignore {', '.join(ignored)}")
        plan = load_plan(args.plan)
        if args.output_dir is not None:
            plan = dataclasses.replace(plan, output_dir=args.output_dir)
        return _print_run(run_plan(plan))
    if not args.scene:
        raise MalformedConfig("sweep needs either --plan or --scene")
    return _print_run(run_plan(_plan_from_args(args, sweep=True)))


def _kernel_options(parser: argparse.ArgumentParser) -> None:
    _add_scene_options(parser)
    parser.add_argument("--output", required=True, help="kernel export file")


def _step_options(parser: argparse.ArgumentParser) -> None:
    _add_scene_options(parser)
    _add_plan_options(parser)


def _reconstruct_options(parser: argparse.ArgumentParser) -> None:
    _step_options(parser)
    parser.add_argument("--records", required=True, help="measurement CSV")
    parser.add_argument("--masks", required=True, help="mask vector export used for the measurement")


def _sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--plan", help="plan file (takes no scene, plan or sweep option but --output)")
    _add_scene_options(parser, required=False)
    _add_plan_options(parser)
    parser.add_argument("--i-sweep", help="comma list of measurement counts")
    parser.add_argument("--snr-sweep", help="comma list of SNR values in dB ('none' = noiseless)")
    parser.add_argument("--z-sweep", help="comma list of target distances in m")


# verb -> (help, adds the verb's options, runs it), in help order
VERBS = {
    "validate": ("check scene invariants and report resolution", _add_scene_options, cmd_validate),
    "kernel": ("assemble the propagation kernel and export it", _kernel_options, cmd_kernel),
    "masks": ("design ideal masks and export them", _step_options, cmd_masks),
    "synthesize": ("compute coefficient profiles realizing the masks", _step_options, cmd_synthesize),
    "measure": ("simulate noisy measurements to CSV", _step_options, cmd_measure),
    "reconstruct": ("reconstruct from measurement CSV + mask export", _reconstruct_options, cmd_reconstruct),
    "run": ("end-to-end single experiment", _step_options, cmd_run),
    "sweep": ("plan-driven sweep over I / SNR / target distance", _sweep_options, cmd_sweep),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or, given one of :data:`VERBS`, a parser
    with that verb's subparser alone. It parses, helps and fails on that
    verb's command lines as the full parser does: its usage line lists every
    verb."""
    # argparse makes a help formatter for every argument it adds, and each one
    # looks up the terminal width unless given one: look it up once, as they would
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="risimage",
        description="Virtual-mask computational imaging simulator",
        formatter_class=formatter,
    )
    # the full parser names the verbs from its subparsers; one verb's must list them all
    listed = None if verb is None else "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name, (help_text, add_options, func) in VERBS.items():
        if verb in (None, name):
            p = sub.add_parser(name, help=help_text, formatter_class=formatter)
            add_options(p)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command line that starts with a verb needs only that verb's parser
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ImagingError, OSError) as exc:  # OSError: an unusable path given by the user
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
