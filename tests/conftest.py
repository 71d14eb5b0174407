"""Shared test settings.

Every ``hypothesis`` property runs derandomized, with no example database
and no deadline, so a run is reproducible and a slow machine does not
fail it. Tests set only their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("hyperconv", derandomize=True, database=None, deadline=None)
settings.load_profile("hyperconv")
