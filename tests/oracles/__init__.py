"""Reference implementations the differential tests and benches compare to.

Nothing under ``src/`` imports these; they are the slow, obviously
correct paths that the shipped kernels must match bit for bit.
"""
