"""Shared hypothesis settings for the property tests.

Two profiles, applied as decorators (``@STANDARD_SETTINGS``):

- :data:`STANDARD_SETTINGS` — the default budget of a property test:
  60 examples, no deadline (most properties build a store or train a
  model, so a per-example deadline measures the box, not the code);
- :data:`DETERMINISM_SETTINGS` — for properties that pin an
  implementation to a reference or oracle with exact equality (the
  same components, the same bits): 200 examples, no deadline.
"""

from __future__ import annotations

from hypothesis import settings

STANDARD_SETTINGS = settings(max_examples=60, deadline=None)

DETERMINISM_SETTINGS = settings(max_examples=200, deadline=None)
