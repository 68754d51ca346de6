"""Shared fixtures: the reference simulated camera and canned datasets.

The heavy artifacts (pose sets, observation lists, the white image) are
session-scoped; tests must not mutate them.
"""

import numpy as np
import pytest

from plenocal import simulator as sim
from plenocal.projection import DistortionParams


@pytest.fixture(scope="session")
def camera():
    return sim.reference_camera()


@pytest.fixture(scope="session")
def board():
    return sim.reference_board()


@pytest.fixture(scope="session")
def board_points(camera, board):
    return board.points_mm() / camera.pixel_pitch


@pytest.fixture(scope="session")
def setting(camera):
    return sim.default_setting(camera)


@pytest.fixture(scope="session")
def tpp_truth(camera):
    return sim.physical_to_tpp(camera)[1]


@pytest.fixture(scope="session")
def poses12(camera, board):
    env = sim.default_envelope(camera, board)
    return sim.generate_poses(12, 42, env)


@pytest.fixture(scope="session")
def clean_observations(camera, board, poses12):
    return sim.synthesize_observations(camera, board, poses12,
                                       DistortionParams(), 0.0, 7)


@pytest.fixture(scope="session")
def noisy_observations(camera, board, poses12):
    return sim.synthesize_observations(camera, board, poses12,
                                       DistortionParams(), 0.3, 7)


@pytest.fixture(scope="session")
def white_image(camera):
    return sim.synthesize_white_image(camera)


@pytest.fixture(scope="session")
def dense_seed_white(camera):
    """The white image with the array turned by (0.2, -0.1, 0.3) degrees, made
    3 times brighter and clipped, then given read noise of 300 counts and
    clipped again: the noise breaks each clipped disc top into scattered
    65535 pixels, each its own seed, about 156k seeds for 8.8k discs."""
    img = sim.synthesize_white_image(camera, np.radians([0.2, -0.1, 0.3]))
    img = np.clip(img * 3.0, 0, 65535).astype(np.uint16)
    noise = np.random.default_rng(5).normal(0.0, 300.0, img.shape)
    return np.clip(img + noise, 0, 65535).astype(np.uint16)
