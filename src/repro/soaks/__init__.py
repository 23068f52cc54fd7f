"""The experiment drivers, one module per soak, above every library package.

* :mod:`repro.soaks.serving` (E21) owns :func:`~repro.soaks.serving.run_arm`,
  the one arm that plays every gateway soak;
* :mod:`repro.soaks.resilience` (E18) and :mod:`repro.soaks.governor` (E23)
  are workloads of that arm;
* :mod:`repro.soaks.dist` (E25) drives ``DistRuntime``, not a gateway, and
  keeps its own loop.

Each runs as ``python -m repro.soaks.<name> [--smoke] [--seed N]`` and its
exit code is the gate; the shared loop, gate and CLI are :mod:`repro.soak`'s.
No library package imports this one, and this ``__init__`` imports none of
its modules, so ``-m`` loads a driver exactly once.
"""
