"""One benchmark set-up in a fresh interpreter: import crnlump, generate a
workload's input texts from its seed, print their sha256.

``run.py`` times this script from process start to exit for ``setup_s``.
Run from the checkout root::

    python3 perfbench/make_inputs.py --workload multisite5 --seed 1
"""

import argparse

from workloads import WORKLOADS, input_digest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    print(input_digest(workload.make_inputs()))


if __name__ == "__main__":
    main()
