"""Synthetic stand-ins for the paper's datasets (see DESIGN.md)."""
