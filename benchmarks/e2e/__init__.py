"""End-to-end frame-latency benchmark (see README.md in this directory)."""
