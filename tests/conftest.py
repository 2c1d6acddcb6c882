import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every @given test draws the same examples on every run, so a red run
# names a defect, not an unlucky draw.  A test's own @settings keeps its
# max_examples.  `pytest --hypothesis-seed N` or `--hypothesis-profile
# default` explores fresh examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
