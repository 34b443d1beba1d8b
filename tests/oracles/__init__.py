"""Scalar reference implementations kept only as test oracles."""
