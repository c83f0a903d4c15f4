import pathlib
import sys

from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "src"))

# every run draws the same examples and writes no example database; each
# test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
