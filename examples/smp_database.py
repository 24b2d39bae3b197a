#!/usr/bin/env python
"""Active Pages in a symmetric multiprocessor (Section 2).

At saturation the processor is the bottleneck — it can't dispatch
activations and post-process results fast enough for the page pool.
The paper notes Active Pages work in SMPs with ordinary sync
variables; this example shows what that buys: multiple CPUs split the
activation work of a big database query and the saturated-region
ceiling lifts.

Run:  python examples/smp_database.py
"""

from repro.experiments.extensions import SMP_PAGES, query_makespan


def main() -> None:
    print("== SMP scaling of a saturated database query ==")
    print(f"{SMP_PAGES} Active Pages of records, query dispatched by N CPUs\n")
    base = None
    for n_cpus in (1, 2, 4, 8):
        t = query_makespan(n_cpus)
        base = base or t
        print(f"  {n_cpus} CPU{'s' if n_cpus > 1 else ' '}: "
              f"{t / 1e6:7.3f} ms  (x{base / t:4.2f} vs 1 CPU)")
    print("\nthe single-CPU time is the paper's saturated region; adding "
          "processors raises the activation/post-processing throughput "
          "that caps it (Section 7.2)")


if __name__ == "__main__":
    main()
