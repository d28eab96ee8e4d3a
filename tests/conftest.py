import pytest

from crcodes.codes import build_chain
from crcodes.field import build_field_context
from crcodes.regularity import CosetTable


@pytest.fixture(scope="session")
def ctx4():
    return build_field_context(4)


@pytest.fixture(scope="session")
def ctx6():
    return build_field_context(6)


@pytest.fixture(scope="session")
def chain4(ctx4):
    return build_chain(ctx4)


@pytest.fixture(scope="session")
def chain6(ctx6):
    return build_chain(ctx6)


@pytest.fixture(scope="session")
def tables4(chain4):
    return [CosetTable(code) for code in chain4]


@pytest.fixture(scope="session")
def tables6(chain6):
    return [CosetTable(code) for code in chain6]
