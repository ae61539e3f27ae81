import random

import pytest

from mdsrepair.bundled import bundled_code
from mdsrepair.codes import normalize_parity, rs_systematic
from mdsrepair.gf import FieldSpec


@pytest.fixture(scope="session")
def f4():
    return FieldSpec(2, [1, 1, 1])


@pytest.fixture(scope="session")
def f16():
    return FieldSpec(2, [1, 1, 0, 0, 1])


@pytest.fixture(scope="session")
def f256():
    return FieldSpec(2, [1, 0, 1, 1, 1, 0, 0, 0, 1])


@pytest.fixture(scope="session")
def rs53():
    return bundled_code("rs53")


@pytest.fixture(scope="session")
def rs64():
    return bundled_code("rs64")


@pytest.fixture(scope="session")
def fb1410():
    return bundled_code("fb1410")


@pytest.fixture(scope="session")
def rs64_gf81():
    # odd characteristic: RS(6,4) over GF(3^4) at z^0..z^5, cliques {1}{2,3}{4}
    f81 = FieldSpec(3, [2, 0, 0, 1, 1])
    return normalize_parity(
        rs_systematic(f81, [f81.element(i) for i in range(6)], 4, "rs64gf81"))


@pytest.fixture(scope="session")
def rs64_gf15625():
    # odd characteristic, sixth degree: RS(6,4) over GF(5^6) at z^0..z^5
    f = FieldSpec(5, [2, 0, 0, 0, 0, 1, 1])
    return normalize_parity(
        rs_systematic(f, [f.element(i) for i in range(6)], 4, "rs64gf15625"))


@pytest.fixture
def rng():
    return random.Random(0xC0DE)

