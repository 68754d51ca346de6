"""Calibration toolkit for focused plenoptic cameras.

The camera is modeled as an unconstrained two-parallel-plane (TPP) light
field coordinate; observations decode to rays, the intrinsics come from a
closed-form linear stage, and a damped least-squares refinement with two
plane radial distortion minimizes the re-projection error.  A built-in
simulator provides ground truth for validation.
"""

from . import errors
from .calibration import (CalibrationOutput, CalibrationResult, RefineOptions,
                          calibrate, estimate_homography, extrinsics_from_homography,
                          linear_calibrate, refine, scene_tpp_from_transform,
                          solve_q)
from .evaluate import intrinsic_errors, mean_intrinsic_error, pose_errors
from .projection import DistortionParams, Observations, residuals
from .rectification import (MicroImageCenters, detect_centers,
                            estimate_rectifying_homography, read_pgm,
                            rectify_observations, row_slopes, write_pgm)
from .simulator import (BoardSpec, PhysicalCameraSpec, PoseEnvelope,
                        default_envelope, default_setting, generate_poses,
                        reference_board, reference_camera, physical_to_tpp,
                        synthesize_observations, synthesize_white_image)
from .tpp import (Point3, TppParams, decode_virtual_rays, incidence_matrix,
                  projective_matrix, transform_point, triangulate)

__version__ = "0.1.0"
