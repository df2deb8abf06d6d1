import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# The one hypothesis profile of the suite: every property test draws the
# same examples on every run, has no time limit per example and keeps no
# example database on disk. Each test sets only its own max_examples.
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
