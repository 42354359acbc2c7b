"""Linear model speaking slime's line-delimited JSON protocol (stdlib only).

Usage: ``python3 linear_child.py C1,C2,...,Cp [COUNT_FILE]``

Each stdin line ``{"instances": [[x1, ..., xp], ...]}`` is answered by one
stdout line ``{"predictions": [...]}`` holding ``sum(c_j * x_j)`` per row.
At end of input the number of rows answered is written to COUNT_FILE, so
the benchmark counts the rows the model was sent without touching the
package.
"""

import json
import sys


def predict(coefficients, rows):
    return [sum(c * x for c, x in zip(coefficients, row)) for row in rows]


def main(argv):
    coefficients = [float(v) for v in argv[1].split(",")]
    rows = 0
    for line in sys.stdin:
        instances = json.loads(line)["instances"]
        rows += len(instances)
        sys.stdout.write(json.dumps({"predictions": predict(coefficients, instances)}) + "\n")
        sys.stdout.flush()
    if len(argv) > 2:
        with open(argv[2], "w", encoding="utf-8") as fh:
            fh.write(f"{rows}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
