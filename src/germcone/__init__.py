"""Exact multiplicity, tangent cones, and section-topology bounds for germs."""

__version__ = "0.1.0"
