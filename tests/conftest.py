import random

import pytest
from hypothesis import settings

# timing-heavy fixtures (latency floors, servers) make wall-clock deadlines
# meaningless; examples are capped instead
settings.register_profile("r2o", deadline=None, max_examples=60)
settings.load_profile("r2o")

# acceptance verdict lines, printed once the run ends; written while a test
# runs they would be swallowed by output capture
_VERDICTS = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[_VERDICTS] = []


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash[_VERDICTS]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def verdict(request):
    """Record one criterion's `[criterion NN] PASS|FAIL <label>` line."""
    def _report(number: int, label: str, failures: list) -> None:
        status = "PASS" if not failures else "FAIL"
        request.config.stash[_VERDICTS].append(
            f"[criterion {number:02d}] {status} {label}")

    return _report


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
