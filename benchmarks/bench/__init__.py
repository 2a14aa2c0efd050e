"""The repo benchmark: six closed-loop workloads, end-to-end metrics with
regression bounds, and an outside-in per-layer ledger.

``BENCHMARK.json`` at the repo root is the contract (names, units, bounds);
``README.md`` in this directory is the glossary and the method. Everything
here observes the program from outside: the timing spans are installed from
:mod:`benchmarks.bench.tracer` around each layer's entry points, and nothing
under ``src/`` knows the benchmark exists.
"""
