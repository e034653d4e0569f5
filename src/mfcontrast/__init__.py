"""Speaker embedding training with multi-scale feature contrastive
objectives, in plain numpy."""

__version__ = "0.1.0"
