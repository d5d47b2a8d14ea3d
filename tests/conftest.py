import sys

from hypothesis import settings

# CI runs select this profile (--hypothesis-profile=ci), so its draws repeat run to run
settings.register_profile("ci", derandomize=True, deadline=None)


def pytest_terminal_summary(terminalreporter):
    """Print one verdict line per acceptance criterion after the test run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
