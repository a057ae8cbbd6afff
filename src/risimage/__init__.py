"""Near-field computational imaging with surface-generated virtual field masks.

Pipeline: describe a scene, assemble the propagation kernel, design orthogonal
masks, synthesize the reflection coefficients that realize them, simulate noisy
measurements, and reconstruct the target by mask/measurement correlation.
"""

from .em_core import (
    KernelMatrix,
    KernelStream,
    assemble_kernel,
    green_tensor,
    incident_current,
    kernel_stream,
    load_kernel,
    psf_vector,
    save_kernel,
)
from .mask_design import (
    MaskSet,
    design_amplitudes,
    design_phases_2d,
    hadamard,
    ideal_masks,
    mask_covariance,
)
from .measurement import (
    Measurements,
    ReceiverFields,
    TargetModel,
    measure,
    noise_power_dbm,
    noise_power_watts,
    noise_variance,
    noiseless_fields,
)
from .reconstruct import (
    ReconstructionResult,
    calibrate_estimate,
    nmse,
    reconstruct_2d,
    reconstruct_3d,
    zero_variance_flags,
)
from .ris_synthesis import (
    RegularizedInverse,
    realize_masks,
    synthesis_profiles,
    tikhonov_inverse,
)
from .runner import ExperimentPlan, default_gamma, load_plan, run_plan
from .scene import (
    SampleGrids,
    SceneConfig,
    ValidatedScene,
    aperture_half_sine,
    load_scene_config,
    resolution,
    resolution_from_sine,
    sample_grids,
    validate_scene,
)
from .targets import builtin_target, load_target_2d, load_target_3d, read_pgm, write_pgm

__version__ = "0.1.0"
