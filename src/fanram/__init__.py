"""Monochromatic fan certificates in 2-colored complete graphs.

Extraction of verified fan certificates from sufficiently large
colorings, the matching and clique-cover machinery behind it, and
brute-force oracles for desk-scale ground truth.

The package namespace holds the names the README documents; everything
else is imported from its submodule (fanram.covering, fanram.io, ...).
"""

from .coloring import BLACK, WHITE, Coloring
from .errors import (
    ColoringFormatError,
    FanRamseyError,
    PreconditionViolated,
    UnreachableBranch,
)
from .extractor import ExtractionTrace, extract_fan
from .oracle import enumerate_colorings, random_coloring
from .structures import FanCertificate, find_mono_fan, verify_fan

__version__ = "0.1.0"
