import os

from hypothesis import settings

# the acceptance suite trains for minutes; it is collected only on request
collect_ignore = [] if os.environ.get("ESCORE_ACCEPTANCE") == "1" else ["test_acceptance.py"]

# Example counts for the tests that set none, the reader fuzzers of
# test_fuzz.py: a few each in tier-1, many under --hypothesis-profile=fuzz.
# Every other property test sets its own count.
settings.register_profile("tier1", max_examples=20, deadline=None)
settings.register_profile("fuzz", max_examples=1000, deadline=None)
settings.load_profile("tier1")
