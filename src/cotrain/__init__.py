"""Co-training toolkit: a small video backbone trained jointly across several
datasets, with embedding regularizers and learned cross-dataset label
projections.  Everything runs on numpy with a built-in reverse-mode tape.
"""

__version__ = "0.1.0"
