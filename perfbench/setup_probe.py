"""Set-up time of a fresh process: import biherm and parse group documents.

Usage: python3 perfbench/setup_probe.py SRC_DIR DOCUMENTS_JSON

Prints the seconds from just before ``import biherm`` to the parsed
documents, i.e. what a command pays before its first ``run_certificate``.
"""

import json
import sys
import time


def main() -> None:
    src, documents = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import biherm  # noqa: F401  (the package import the CLI pays)
    from biherm.hopf_groups import group_data_from_json

    for doc in json.loads(documents):
        group_data_from_json(doc)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
