import pytest
from hypothesis import HealthCheck, settings

from lrc5 import Code, Field

settings.register_profile(
    "repeatable",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def f5():
    return Field(5)


@pytest.fixture(scope="session")
def f7():
    return Field(7)


@pytest.fixture(scope="session")
def f8():
    return Field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def f11():
    return Field(11)


@pytest.fixture(scope="session")
def f13():
    return Field(13)


@pytest.fixture(scope="session")
def code53(f5):
    return Code.build(f5, 3)


@pytest.fixture(scope="session")
def code75(f7):
    return Code.build(f7, 5)


@pytest.fixture(scope="session")
def code86(f8):
    return Code.build(f8, 6)


@pytest.fixture(scope="session")
def code114(f11):
    return Code.build(f11, 4)


@pytest.fixture(scope="session")
def code135(f13):
    return Code.build(f13, 5)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from tests import test_acceptance
    except ImportError:
        try:
            import test_acceptance
        except ImportError:
            return
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
