import os

# the acceptance suite trains for minutes; it is collected only on request
collect_ignore = [] if os.environ.get("ESCORE_ACCEPTANCE") == "1" else ["test_acceptance.py"]
