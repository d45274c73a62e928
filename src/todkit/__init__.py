"""Toolkit for toric half-flat instanton metrics built from rod data.

The pipeline: axisymmetric harmonic potentials from rod data, the metric
and fundamental form in Weyl-Papapetrou form, curvature and Weyl-spectrum
checks, axis regularity and lattice compatibility, the exact-rational
classification of admissible rod structures, the quartic-root family
non-regularity scans, and conformal Killing-Yano verifications.
"""

__version__ = "0.1.0"
