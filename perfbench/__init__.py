"""Layered host-time benchmark of the FT-BESST simulator (see README.md)."""
