"""Exact verification toolkit for staged link-group presentations, their
finite images, and cyclic-cover homology."""
