"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from ambcest import CorrelationSpec, SystemConfig
from ambcest.model import ResidualDenoiser

# property tests draw the same examples on every run, so a failure repeats; each test
# keeps its own max_examples
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


def iid_config(m=16, ma=4, mb=4, snr_db=0.0, na=2, nb=2, seed=0) -> SystemConfig:
    """Uncorrelated unit-variance channels with no reflected path."""
    return SystemConfig(
        m=m,
        ma=ma,
        mb=mb,
        snr_db=snr_db,
        zeta_db=float("-inf"),
        corr_h=CorrelationSpec("identity", 0.0),
        corr_g=CorrelationSpec("identity", 0.0),
        na=na,
        nb=nb,
        seed=seed,
    )


def set_model_to_ls(model: ResidualDenoiser) -> ResidualDenoiser:
    """Hand-set weights so the model computes the LS estimate (pilot average).

    Zeroing each block's final conv makes every block an exact pass-through
    (Y - 0 = Y); the reconstruction layer then averages the P input slices.
    """
    for block in model.blocks:
        block.convs[-1].w[...] = 0.0
        block.convs[-1].b[...] = 0.0
    p = model.hyper.pilots
    model.recon.w[...] = 1.0 / p
    model.recon.b[...] = 0.0
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(0)
