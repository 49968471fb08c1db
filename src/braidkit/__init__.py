"""Braid-group computations in the band-generator presentation.

The package decides word equality two independent ways (Garside normal
form and the action on Dynnikov coordinates), applies Hurwitz moves to
factorizations, reads presentation-relation rewrites as Hurwitz move
sequences, and checks a face condition on combinatorial maps of
half-twist systems.  Everything is exact integer combinatorics; there
are no third-party dependencies.
"""

__version__ = "0.1.0"
