"""Rewrite the golden corpus from the source on the path, and print how many
values moved against the corpus it replaces, in units of their bound:

    PYTHONPATH=src python3 tests/golden/regenerate.py [corpus.json]

The corpus is ``tests/golden/corpus.json`` unless another path is given.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402


def regenerate(path: Path) -> None:
    results = test_golden.evaluate()
    if path.exists():
        print(test_golden.summary(test_golden.compare(results, json.loads(path.read_text()))))
    path.write_text(test_golden.encode(results))
    print(f"wrote {len(results)} cases to {path}")


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else test_golden.CORPUS)
