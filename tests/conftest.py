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
