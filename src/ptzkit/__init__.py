"""Desk-scale pan/tilt/zoom active-vision toolkit.

Subpackages cover the full data-iteration loop without a VLM or hardware:
an action token codec (``codec``), a geometric camera simulator (``camera``),
pseudo-label synthesis with OLS/random-forest regressors (``pseudolabel``),
reward shaping plus a GRPO-style optimizer with an analytic-gradient toy
policy (``rewards``), the multi-round IoU-filtered self-training driver
(``selftrain``), and the ``ptzkit`` command line (``cli``).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
