import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def kernel_builds(monkeypatch):
    """Record the component set of every kernel the evaluation layer builds."""
    from netresp import evaluation

    built = []
    original = evaluation.build_kernel_matrix

    def counted(features, selected, *args, **kwargs):
        built.append(tuple(int(i) for i in selected))
        return original(features, selected, *args, **kwargs)

    monkeypatch.setattr(evaluation, "build_kernel_matrix", counted)
    return built


def pytest_terminal_summary(terminalreporter):
    """Re-emit the acceptance criterion lines after the captured test output."""
    results = getattr(sys.modules.get("test_acceptance"), "RESULTS", None)
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
