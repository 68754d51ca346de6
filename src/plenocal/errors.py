"""Exception hierarchy for the plenocal toolkit.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map errors to stable exit codes without string matching.
"""


class PlenocalError(Exception):
    """Base class for all toolkit errors."""


# --- ray geometry ----------------------------------------------------------

class DegenerateRays(PlenocalError):
    """Stacked ray system is rank deficient; no unique intersection point."""


class SingularParams(PlenocalError):
    """Plane-transform parameters produce a singular 4x4 matrix."""


class PointAtInfinity(PlenocalError):
    """Homogeneous point maps to (or too close to) the plane at infinity."""


# --- projection / distortion ----------------------------------------------

class BehindPlane(PlenocalError):
    """Point lies on the lens plane; its projection is undefined."""


class MissingReference(PlenocalError):
    """Observation references a pose id or board point id that does not exist."""


# --- linear calibration stage ----------------------------------------------

class InsufficientData(PlenocalError):
    """Too few board points or rays to estimate a homography."""


class DegenerateBoard(PlenocalError):
    """Board points are collinear; the homography system is rank deficient."""


class InsufficientPoses(PlenocalError):
    """Fewer than three poses; the intrinsic system is underdetermined."""


class IllConditioned(PlenocalError):
    """Stacked intrinsic constraints are too close to rank deficient."""


class NegativeDiscriminant(PlenocalError):
    """Closed-form square roots are complex; noise overwhelmed the linear stage."""


class ReflectionDetected(PlenocalError):
    """Recovered rotation has negative determinant after projection to SO(3)."""


# --- refinement -------------------------------------------------------------

class DivergedOptimization(PlenocalError):
    """Damped least squares rejected too many consecutive steps."""


class NonFiniteResidual(PlenocalError):
    """Residual or Jacobian evaluation produced NaN or Inf."""


# --- rectification -----------------------------------------------------------

class NoGridFound(PlenocalError):
    """White image yields too few blobs to be a micro-image grid."""


class AmbiguousPitch(PlenocalError):
    """Detected grid spacing is too far from the expected pitch."""


class TooFewCenters(PlenocalError):
    """Not enough labeled centers for a row-slope or homography fit."""


class DegenerateConfiguration(PlenocalError):
    """Center/grid correspondences are rank deficient for the homography fit."""


class DegenerateGeometry(PlenocalError):
    """Micro-lens center sits on or behind the projection origin."""


# --- simulator ----------------------------------------------------------------

class FocalSingularity(PlenocalError):
    """Sensor or MLA plane coincides with the main-lens focal plane."""


class EnvelopeInfeasible(PlenocalError):
    """Pose sampler exhausted its rejection budget for the given envelope."""
