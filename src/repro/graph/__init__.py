"""Directed-graph substrate: DataFrame-backed graphs and file formats."""
