import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from eqdeform.deform import DeformationError, verify_deformation  # noqa: E402

ACCEPTANCE_RESULTS = []


def verified(d) -> bool:
    """Whether ``verify_deformation`` accepts the deformation d."""
    try:
        verify_deformation(d)
    except DeformationError:
        return False
    return True


def record_criterion(number: int, description: str, passed: bool, seconds: float):
    ACCEPTANCE_RESULTS.append((number, description, passed, seconds))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, description, passed, seconds in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number}: {status} ({seconds:.2f}s) {description}"
        )
