import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# PYTHONPATH names the tree under test; without it, the tests import this
# checkout's src/, so that a bare `python -m pytest` works from a checkout
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
