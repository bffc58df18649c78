import dataclasses

import pytest

from levitomo.physics import ExperimentConfig, derive


@pytest.fixture(scope="session")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def dq(config):
    return derive(config)


@pytest.fixture(scope="session")
def damped_config(config):
    """Reference config at 1 mbar: ~5500 amplitude correlation times per second,
    which quantitative single-record statistics need."""
    return dataclasses.replace(config, pressure_mbar=1.0)


@pytest.fixture(scope="session")
def damped_dq(damped_config):
    return derive(damped_config)
