"""Hypothesis settings profiles.

``ci`` runs more examples per property and lifts the per-example
deadline, which a slow or shared runner can miss; select it with
``--hypothesis-profile=ci``.  Without that option the default profile
applies.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
