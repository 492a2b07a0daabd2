"""Lossless JSON encoding of Clifford modules.

Matrices are row-major arrays of rows; each entry is a two-element array
[re, im] of decimal floats.  Python's shortest-round-trip float formatting
makes the round trip bit-exact for double precision.
"""

from __future__ import annotations

import json

import numpy as np

from .clifford import CliffordModule, Signature
from .linalg import AntilinearOp, frozen


def matrix_to_lists(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_lists(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=complex)


def module_to_dict(m: CliffordModule) -> dict:
    doc = {
        "p": m.signature.p,
        "q": m.signature.q,
        "branch": m.branch,
        "dim": m.dim,
        "gammas": [matrix_to_lists(g) for g in m.gammas],
        "P": matrix_to_lists(m.P),
        "chirality": matrix_to_lists(m.chirality),
        "J_matrix": matrix_to_lists(m.J.matrix),
    }
    if m.Jhat is not None:
        doc["Jhat_matrix"] = matrix_to_lists(m.Jhat.matrix)
    return doc


def module_from_dict(doc: dict) -> CliffordModule:
    sig = Signature(int(doc["p"]), int(doc["q"]))
    jhat = None
    if "Jhat_matrix" in doc:
        jhat = AntilinearOp(matrix_from_lists(doc["Jhat_matrix"]))
    return CliffordModule(
        signature=sig,
        branch=int(doc["branch"]),
        gammas=[matrix_from_lists(g) for g in doc["gammas"]],
        P=frozen(matrix_from_lists(doc["P"])),
        chirality=frozen(matrix_from_lists(doc["chirality"])),
        J=AntilinearOp(matrix_from_lists(doc["J_matrix"])),
        Jhat=jhat,
    )


def module_to_json(m: CliffordModule) -> str:
    return json.dumps(module_to_dict(m), indent=2) + "\n"

