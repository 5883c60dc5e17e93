"""Character degree graphs: construction, shape analysis, and desk-scale
classification checks."""

__version__ = "0.1.0"
