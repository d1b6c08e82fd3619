"""pairsieve: filter noisy parallel corpora by dual conditional cross-entropy
and cross-entropy difference, then select, extract, and weight sentence pairs."""

__version__ = "0.1.0"
