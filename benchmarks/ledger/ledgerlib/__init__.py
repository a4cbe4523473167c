"""The two-clock perf ledger: workloads, metrics and comparison rules.

Everything here observes ``repro`` from outside — it times calls into
public functions and reads their public results; nothing under ``src/``
is instrumented.  ``virt`` always means seconds on the runtime's virtual
clocks (the simulated machine; repeats exactly per seed), ``wall`` means
host ``perf_counter`` seconds.  See ``README.md`` next to ``run.py``.
"""
