import os

# Fix BLAS threads before anything imports numpy, as perfbench/run.py does:
# np.linalg.solve rounds differently with more threads, and the golden
# digests are pinned at one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")



def _openblas_core_line() -> str:
    from _helpers import openblas_corenames

    return f"openblas core: {' '.join(openblas_corenames()) or 'unknown'}"


def pytest_report_header(config):
    """Name the OpenBLAS kernels in the log: the golden digests and the
    power-loop equality tests hold for the kernels that produced them."""
    return _openblas_core_line()


def pytest_terminal_summary(terminalreporter):
    # Under -q, as tier-1 and CI run, pytest prints no header, so the kernels
    # are named at the end of the log instead.
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_openblas_core_line())
