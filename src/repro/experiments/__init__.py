"""Experiment harnesses reproducing the paper's evaluation tables."""
