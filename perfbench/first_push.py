"""How much slower the first push of a service process is than its second.

    python3 perfbench/first_push.py

Every timed push of ``fleet_push`` is the first push of a fresh ``orya serve``
process. This measures what that costs: on fresh copies of the fleet_push
store, one service pushes group g00 and then g01, the next pushes g01 and
then g00, and so on. Each group holds 100 sites of the same make-up, so the
first and second pushes do the same work apart from the second save seeing
100 more site documents. Prints the median time per site of first and of
second pushes and their ratio over six pairs, on the inputs of seed 1.
"""

from __future__ import annotations

import shutil
import statistics

from run import Run

SEED = 1
PAIRS = 6


def main() -> None:
    run = Run("fleet_push", SEED, 0, False)
    if run.work.exists():
        shutil.rmtree(run.work)
    run.work.mkdir(parents=True)
    product = run.inputs.products[0]
    first, second = [], []
    try:
        template = run.published_store()
        for i in range(PAIRS):
            groups = ("g00", "g01") if i % 2 == 0 else ("g01", "g00")
            store = run.fresh_copy(template)
            svc, _ = run.service(store, False)
            for group, times in zip(groups, (first, second)):
                resp, rtt = svc.request({"op": "deploy", "product": product, "group": group})
                sites = len(resp["report"]["entries"])
                times.append(rtt / sites * 1000)
            run.stop(svc)
            shutil.rmtree(store)
    finally:
        for svc in list(run.live):
            svc.stop()
    a, b = statistics.median(first), statistics.median(second)
    print(f"first push {a:.3f} ms/site, second push {b:.3f} ms/site, ratio {a / b:.3f} over {PAIRS} pairs")


if __name__ == "__main__":
    main()
