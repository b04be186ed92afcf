"""Closed-loop benchmark of coexctl: end-to-end rates and per-layer timings."""
