import itertools

import numpy as np
import pytest

from qlocker import STRICT_ABORT, StateVector, record_probability


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


def random_qubit_state(rng) -> StateVector:
    """Haar-ish random single-qubit state for property sweeps."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return StateVector(1, v)


def every_record(iterations: int, strict: bool) -> list[str]:
    """Every record a box of ``iterations`` steps writes with nonzero
    probability for some state, as ``box_records`` writes it."""
    if strict:
        return (["0" * j + "10" for j in range(iterations)]
                + ["0" * iterations + final for final in "01"])
    return ["".join(bits)
            for bits in itertools.product("01", repeat=iterations + 1)]


def accepted_mass(alpha_sq: float, params) -> float:
    """The law's mass on the records that accept: a closing readout of 0,
    after no click under the strict policy."""
    strict = params.click_policy == STRICT_ABORT
    return sum(record_probability(r, alpha_sq, params)
               for r in every_record(params.iterations, strict)
               if r[-1] == "0" and not (strict and "1" in r))
