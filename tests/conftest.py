"""Shared fixtures: the reference simulated camera and canned datasets.

The heavy artifacts (pose sets, observation lists, the white image) are
session-scoped; tests must not mutate them.
"""

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
