"""Pregel-style iterative vertex computation over DataFrames."""
