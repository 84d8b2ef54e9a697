import time
from dataclasses import dataclass

import pytest

from wreathz import DistortionSample, TreeMode, cyclic, lamp_mode, sample_pairs

ACCEPTANCE_SEED = 424242
ACCEPTANCE_SCALE = 1000
ACCEPTANCE_COUNT = 100_000


@dataclass
class SampleRun:
    samples: list[DistortionSample]
    seconds: float


@pytest.fixture(scope="session")
def distortion_run() -> SampleRun:
    """The shared 10^5-sample run behind the audit and envelope criteria."""
    start = time.perf_counter()
    samples = sample_pairs(
        cyclic(2),
        TreeMode.cocycle(),
        lamp_mode(cyclic(2)),
        ACCEPTANCE_SCALE,
        ACCEPTANCE_COUNT,
        ACCEPTANCE_SEED,
    )
    return SampleRun(samples, time.perf_counter() - start)
