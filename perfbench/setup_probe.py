"""One benchmark set-up in a fresh process, timed by run.py for ``setup_s``.

Pins the thread pools, imports splitcut from the checkout's ``src/``,
loads the workload's backend profiles and graphs, runs one warm-up
``run_shots`` per backend, then prints ``ready`` and exits.

    python3 perfbench/setup_probe.py <workload>
"""
import sys

import workloads

if __name__ == "__main__":
    workloads.pin_threads()
    workloads.add_source_path()
    workloads.prepare(workloads.WORKLOADS[sys.argv[1]])
    print("ready", flush=True)
