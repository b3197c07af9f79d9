"""Projected line-search descent on varieties of bounded-rank matrices."""

__version__ = "0.1.0"
