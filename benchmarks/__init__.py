"""End-to-end and per-layer benchmark of the dagwidth pipeline (see README.md)."""
