"""Fixed reference computation that the harness times next to every sample.

Run as ``python bench/calibrate.py`` in a fresh interpreter.  It does the
kind of work the package does (exact ``Fraction`` arithmetic, dict updates,
small-object allocation) but uses none of its code, so no change to the
package changes its time: only the machine's speed at that moment does.
The harness divides each sample's time by the time of the calibration run
just before it (see ``run.py``).
"""
from fractions import Fraction

ITERATIONS = 25000


def main() -> Fraction:
    step = Fraction(1, 3)
    total = Fraction(0)
    table = {}
    for i in range(ITERATIONS):
        total += step * Fraction(i % 7 + 1, i % 5 + 1)
        table[i % 1000] = total
    return total


if __name__ == "__main__":
    main()
