"""Input loading through the program's own loaders.

Kept apart from the workloads so that the cold-start probe imports nothing
of the benchmark beyond this file.
"""

import json


def load(clpa, loader: str, path: str):
    """Load one corpus file: a graph, a signature, or one graded block."""
    if loader == "graph":
        return clpa.load_object(path)
    with open(path) as fh:
        data = json.load(fh)
    if loader == "signature":
        return clpa.signature_from_json(data)
    from clpa.scalars import field_from_spec
    return clpa.GradedMatrixAlgebra(data["kind"], data["size"], data["shifts"],
                                    period=data["period"],
                                    base=field_from_spec(data["field"]))
