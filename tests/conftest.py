"""Shared test settings and fixtures.

Property tests run a fixed, derandomized example sequence with no per-example
deadline, so a result never depends on the run or on the host's speed.
Each property test bounds its own example count.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import settings

from hearstream import gridnet
from hearstream.kernels import masked_attention

settings.register_profile("hearstream", deadline=None, derandomize=True, database=None)
settings.load_profile("hearstream")


def _unmasked_attention(q, k, v, *, heads):
    # a lone query row sits last on the key timeline, so the mask hides
    # nothing from it: every query frame sees every key frame
    return np.concatenate([masked_attention(row[None], k, v, heads=heads) for row in q])


@pytest.fixture(scope="session")
def leaky_attention():
    """A context manager under which GridNet's attention lets every frame see
    future frames: the non-causal mutant that the latency checks must catch."""

    @contextlib.contextmanager
    def leak():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gridnet, "masked_attention", _unmasked_attention)
            yield

    return leak
