import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every @given test draws the same examples on every run, so a red run
# names a defect, not an unlucky draw.  A test's own @settings keeps its
# max_examples.  Under this profile `--hypothesis-seed N` alone changes
# nothing: Hypothesis tests derandomize before a forced seed.  Fresh
# examples take `--hypothesis-profile default`, with a seed to repeat
# them; tools/seed_sweep.py runs the @given tests so over seeds 1..30.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
