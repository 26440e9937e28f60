"""Outside-in benchmark of the projgeo verifier (see README.md here)."""
