"""The repo's wall-clock benchmark: six workloads over the whole stack.

Run with ``python -m bench run`` from the repository root (see
``bench/README.md``). Every layer under ``src/repro`` is measured from
outside: the harness times calls into public functions and hands the
program bench-owned wrappers through its existing constructor arguments.
Nothing in ``src/`` knows this package exists.
"""
